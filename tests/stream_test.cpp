#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "runtime/fault.hpp"
#include "runtime/prng.hpp"
#include "stream/incremental_bfs.hpp"
#include "stream/versioned_store.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using Edges = std::vector<std::pair<vertex_t, vertex_t>>;

/// Applies `edges` to `store` as one insert batch; returns a pin on the
/// version it published.
SnapshotRef insert_all(VersionedGraphStore& store, const Edges& edges) {
    MutationBatch batch;
    for (const auto& [u, v] : edges) batch.insert(u, v);
    store.apply(batch);
    return store.acquire();
}

/// The edges of the path 0 - 1 - ... - (n-1).
Edges path_edges(vertex_t n) {
    Edges edges;
    for (vertex_t v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    return edges;
}

BfsResult serial_bfs(const CsrGraph& g, vertex_t root) {
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    return bfs(g, root, opts);
}

std::vector<level_t> serial_levels(const CsrGraph& g, vertex_t root) {
    return serial_bfs(g, root).level;
}

// ---------- edge multiset semantics of the store ----------

TEST(VersionedStore, MultisetInsertAndRemove) {
    VersionedGraphStore store(4);
    MutationBatch grow;
    grow.insert(0, 1);
    grow.insert(1, 2);
    grow.insert(1, 0);  // a second copy of {0, 1}
    store.apply(grow);
    {
        const SnapshotRef s = store.acquire();
        EXPECT_EQ(s.graph().num_edges(), 6u);
        EXPECT_TRUE(s.graph().has_edge(0, 1));
        EXPECT_TRUE(s.graph().has_edge(1, 0));
        EXPECT_FALSE(s.graph().has_edge(0, 2));
        EXPECT_EQ(s.graph().degree(1), 3u);
    }

    MutationBatch cut;
    cut.remove(0, 1);  // one copy goes, the other stays
    store.apply(cut);
    EXPECT_TRUE(store.acquire().graph().has_edge(0, 1));
    store.apply(cut);
    EXPECT_FALSE(store.acquire().graph().has_edge(0, 1));
    EXPECT_EQ(store.apply(cut), 4u) << "an absent edge's remove is a no-op";
    EXPECT_EQ(store.acquire().graph().num_edges(), 2u);
    EXPECT_EQ(store.counters().noop_ops.load(), 1u);
}

TEST(VersionedStore, SelfLoopCountsOneArc) {
    VersionedGraphStore store(2);
    MutationBatch loop;
    loop.insert(1, 1);
    store.apply(loop);
    EXPECT_EQ(store.acquire().graph().num_edges(), 1u);
    EXPECT_TRUE(store.acquire().graph().has_edge(1, 1));
    MutationBatch cut;
    cut.remove(1, 1);
    store.apply(cut);
    EXPECT_EQ(store.acquire().graph().num_edges(), 0u);
    EXPECT_EQ(store.counters().delta_edges.load(), 2u);
}

TEST(VersionedStore, SnapshotMatchesBuilder) {
    // Same edges through both paths must yield identical CSR structure.
    UniformParams params;
    params.num_vertices = 500;
    params.degree = 4;
    const EdgeList edges = generate_uniform(params);

    BuildOptions opts;
    opts.deduplicate = false;  // the store keeps multiplicity
    opts.remove_self_loops = false;
    const CsrGraph built = csr_from_edges(edges, opts);

    VersionedGraphStore store(params.num_vertices);
    MutationBatch batch;
    for (const Edge& e : edges) batch.insert(e.src, e.dst);
    store.apply(batch);
    EXPECT_TRUE(built == store.acquire().graph());
}

TEST(VersionedStore, ZeroVertices) {
    VersionedGraphStore store(0);
    EXPECT_EQ(store.acquire().graph().num_vertices(), 0u);
    EXPECT_EQ(store.acquire().graph().num_edges(), 0u);
    VersionedGraphStore copy((CsrGraph()));
    EXPECT_EQ(copy.acquire().graph().num_vertices(), 0u);
    EXPECT_EQ(store.apply(MutationBatch{}), 1u);
}

TEST(VersionedStore, AllSelfLoops) {
    VersionedGraphStore store(3);
    MutationBatch loops;
    for (vertex_t v = 0; v < 3; ++v) loops.insert(v, v);
    store.apply(loops);
    const SnapshotRef s = store.acquire();
    EXPECT_EQ(s.graph().num_edges(), 3u);  // one arc per self-loop
    for (vertex_t v = 0; v < 3; ++v) {
        ASSERT_EQ(s.graph().degree(v), 1u);
        EXPECT_EQ(s.graph().neighbors(v)[0], v);
    }
}

TEST(VersionedStore, OutOfRangeThrows) {
    // The vertex count comes from the source graph; id n is the first
    // bad one, at either endpoint of an insert or a remove.
    VersionedGraphStore store(test::two_cliques(5));
    const vertex_t n = store.num_vertices();
    ASSERT_EQ(n, 10u);
    for (const auto& [u, v] : Edges{{0, n}, {n, 0}}) {
        MutationBatch add;
        add.insert(u, v);
        EXPECT_THROW(store.apply(add), std::out_of_range) << u << "-" << v;
        MutationBatch cut;
        cut.remove(u, v);
        EXPECT_THROW(store.apply(cut), std::out_of_range) << u << "-" << v;
    }
    MutationBatch last;
    last.insert(0, n - 1);
    EXPECT_EQ(store.apply(last), 2u);
    EXPECT_TRUE(store.acquire().graph().has_edge(n - 1, 0));
}

TEST(VersionedStore, RoundTripFromStatic) {
    const CsrGraph g = test::two_cliques(5);
    VersionedGraphStore store(g);
    EXPECT_TRUE(g == store.acquire().graph());
    EXPECT_EQ(store.acquire().graph().num_edges(), g.num_edges());

    // Inserting a bridge and removing it again restores the source CSR.
    MutationBatch bridge;
    bridge.insert(0, 9);
    store.apply(bridge);
    EXPECT_FALSE(g == store.acquire().graph());
    MutationBatch cut;
    cut.remove(9, 0);
    store.apply(cut);
    EXPECT_TRUE(g == store.acquire().graph());
    EXPECT_EQ(store.acquire().graph().num_edges(), g.num_edges());
}

// ---------- IncrementalBfs over snapshots ----------

TEST(IncrementalBfs, InitialLevelsMatchBatchBfs) {
    const CsrGraph g = test::cycle_graph(20);
    const IncrementalBfs inc(g, 0);
    EXPECT_EQ(inc.levels(), serial_levels(g, 0));
    EXPECT_EQ(inc.reached_count(), 20u);
}

TEST(IncrementalBfs, ShortcutEdgeLowersLevels) {
    // Path 0..9; adding edge {0, 9} folds the far end to level 1.
    VersionedGraphStore store(10);
    IncrementalBfs inc(insert_all(store, path_edges(10)).graph(), 0);
    EXPECT_EQ(inc.level(9), 9u);

    const Edges shortcut = {{0, 9}};
    const std::size_t changed =
        inc.on_edges_added(insert_all(store, shortcut).graph(), shortcut);
    EXPECT_GT(changed, 0u);
    EXPECT_EQ(inc.level(9), 1u);
    EXPECT_EQ(inc.level(8), 2u);
    EXPECT_EQ(inc.level(5), 5u);  // middle unaffected (min of two waves)
}

TEST(IncrementalBfs, ConnectsNewComponent) {
    VersionedGraphStore store(6);
    IncrementalBfs inc(insert_all(store, {{0, 1}, {3, 4}, {4, 5}}).graph(), 0);
    EXPECT_EQ(inc.reached_count(), 2u);
    EXPECT_FALSE(inc.reached(4));

    const Edges bridge = {{1, 3}};
    inc.on_edges_added(insert_all(store, bridge).graph(), bridge);
    EXPECT_EQ(inc.reached_count(), 5u);
    EXPECT_EQ(inc.level(3), 2u);
    EXPECT_EQ(inc.level(5), 4u);
    EXPECT_FALSE(inc.reached(2));
}

TEST(IncrementalBfs, EdgeBetweenUnreachedIsDeferred) {
    VersionedGraphStore store(5);
    IncrementalBfs inc(insert_all(store, {{0, 1}}).graph(), 0);

    const Edges island = {{3, 4}};
    EXPECT_EQ(inc.on_edges_added(insert_all(store, island).graph(), island),
              0u);
    EXPECT_FALSE(inc.reached(3));

    // Later the island connects; the earlier edge must now count.
    const Edges bridge = {{1, 3}};
    inc.on_edges_added(insert_all(store, bridge).graph(), bridge);
    EXPECT_TRUE(inc.reached(4));
    EXPECT_EQ(inc.level(4), 3u);
}

TEST(IncrementalBfs, RandomStreamMatchesBatchRecompute) {
    // Property test: after every insertion, incremental levels must
    // equal a from-scratch BFS on the snapshot.
    Xoshiro256 rng(2024);
    constexpr vertex_t kN = 300;
    VersionedGraphStore store(kN);
    IncrementalBfs inc(store.acquire().graph(), 0);

    for (int step = 0; step < 400; ++step) {
        const auto u = static_cast<vertex_t>(rng.next_below(kN));
        auto v = static_cast<vertex_t>(rng.next_below(kN - 1));
        if (v >= u) ++v;
        const Edges edge = {{u, v}};
        const SnapshotRef snap = insert_all(store, edge);
        inc.on_edges_added(snap.graph(), edge);

        if (step % 20 != 0) continue;  // full audit every 20 insertions
        const BfsResult batch = serial_bfs(snap.graph(), 0);
        ASSERT_EQ(inc.levels(), batch.level) << "step " << step;
        ASSERT_EQ(inc.reached_count(), batch.vertices_visited);
    }
}

TEST(IncrementalBfs, RebuildAfterRemoval) {
    VersionedGraphStore store(4);
    IncrementalBfs inc(insert_all(store, path_edges(4)).graph(), 0);
    EXPECT_EQ(inc.level(3), 3u);

    MutationBatch cut;
    cut.remove(1, 2);
    store.apply(cut);
    inc.rebuild(store.acquire().graph());
    EXPECT_FALSE(inc.reached(2));
    EXPECT_EQ(inc.reached_count(), 2u);
}

TEST(IncrementalBfs, InvalidRootThrows) {
    const CsrGraph g = test::path_graph(3);
    EXPECT_THROW(IncrementalBfs(g, 3), std::out_of_range);
}

// ---------- the one-snapshot-per-call check ----------

TEST(IncrementalBfs, UnobservedInsertionThrowsOnQuery) {
    VersionedGraphStore store(4);
    IncrementalBfs inc(insert_all(store, {{0, 1}}).graph(), 0);
    EXPECT_EQ(inc.level(1), 1u);

    // Two edges landed, one was announced: the arc count gives it away,
    // and the levels stay those of the last graph passed.
    insert_all(store, {{1, 2}});
    const Edges announced = {{2, 3}};
    const SnapshotRef both = insert_all(store, announced);
    EXPECT_THROW(inc.on_edges_added(both.graph(), announced), std::logic_error);
    EXPECT_FALSE(inc.reached(2));

    inc.rebuild(both.graph());
    EXPECT_EQ(inc.level(3), 3u);
}

TEST(IncrementalBfs, UnobservedRemovalThrowsOnQuery) {
    VersionedGraphStore store(4);
    IncrementalBfs inc(insert_all(store, path_edges(3)).graph(), 0);
    EXPECT_EQ(inc.level(2), 2u);

    // This is the bug the check exists for: repairing onto a graph that
    // also lost {1, 2} would keep level(2) == 2 — decrease-only repair
    // can't raise levels — so only rebuild() accepts a removal.
    MutationBatch churn;
    churn.remove(1, 2);
    churn.insert(0, 3);
    store.apply(churn);
    const SnapshotRef next = store.acquire();
    const Edges announced = {{0, 3}};
    EXPECT_THROW(inc.on_edges_added(next.graph(), announced), std::logic_error);
    inc.rebuild(next.graph());
    EXPECT_FALSE(inc.reached(2));
    EXPECT_EQ(inc.level(3), 1u);
}

TEST(IncrementalBfs, OverNotificationThrows) {
    VersionedGraphStore store(3);
    IncrementalBfs inc(insert_all(store, {{0, 1}}).graph(), 0);
    // Claiming two insertions when the graph saw none is a caller bug.
    const Edges edges = {{0, 2}, {1, 2}};
    EXPECT_THROW(inc.on_edges_added(store.acquire().graph(), edges),
                 std::logic_error);
    EXPECT_FALSE(inc.reached(2));
}

TEST(IncrementalBfs, OtherVertexCountThrows) {
    const IncrementalBfs base(test::path_graph(3), 0);
    IncrementalBfs inc = base;
    EXPECT_THROW(inc.on_edges_added(test::path_graph(4), {}), std::logic_error);
    EXPECT_EQ(inc.levels(), base.levels());
}

// ---------- batched repair + stale-entry skip ----------

TEST(IncrementalBfs, BatchedCascadeSkipsStaleEntries) {
    // Path 0-1-...-99. One batch delivers a far shortcut (50, 99) and
    // then a much better one (0, 99): vertex 99 is first enqueued at
    // level 51, then improved to 1 before its entry is dequeued. The
    // level-51 entry is stale; without the skip it would rescan and
    // re-propagate an entire obsolete cascade (the quadratic repair).
    constexpr vertex_t kN = 100;
    VersionedGraphStore store(kN);
    IncrementalBfs inc(insert_all(store, path_edges(kN)).graph(), 0);
    EXPECT_EQ(inc.level(99), 99u);

    const Edges batch = {{50, 99}, {0, 99}};
    const SnapshotRef next = insert_all(store, batch);
    const std::size_t changed = inc.on_edges_added(next.graph(), batch);
    EXPECT_GT(changed, 0u);
    EXPECT_GT(inc.repair_stats().stale_skips, 0u)
        << "the superseded level-51 entry must be dropped, not rescanned";
    EXPECT_EQ(inc.repair_stats().waves, 1u) << "one wave per batch";

    // Exactness: identical to a from-scratch BFS on the new graph.
    EXPECT_EQ(inc.levels(), serial_levels(next.graph(), 0));
}

TEST(IncrementalBfs, BatchedRepairBoundsWorkOnCascade) {
    // Same cascade served two ways: one batched wave must not scan more
    // edges than the sequential per-edge repairs did (the coalesced
    // wave should strictly beat replaying obsolete intermediate states).
    constexpr vertex_t kN = 200;
    const Edges shortcuts = {{150, 199}, {100, 199}, {50, 199}, {0, 199}};

    VersionedGraphStore seq(kN);
    IncrementalBfs inc_seq(insert_all(seq, path_edges(kN)).graph(), 0);
    for (const auto& edge : shortcuts) {
        const Edges one = {edge};
        inc_seq.on_edges_added(insert_all(seq, one).graph(), one);
    }
    const std::uint64_t seq_scanned = inc_seq.repair_stats().edges_scanned;

    VersionedGraphStore bat(kN);
    IncrementalBfs inc_bat(insert_all(bat, path_edges(kN)).graph(), 0);
    inc_bat.on_edges_added(insert_all(bat, shortcuts).graph(), shortcuts);

    EXPECT_LE(inc_bat.repair_stats().edges_scanned, seq_scanned);
    EXPECT_EQ(inc_bat.levels(), inc_seq.levels());
}

// ---------- randomized differential: mixed stream vs batch BFS ----------

TEST(StreamDifferential, MixedStreamMatchesBatchBfs) {
    // Inserts, removals and queries interleave; after EVERY step the
    // incremental answer must equal a from-scratch serial BFS on the
    // published snapshot. Removals rebuild (the documented contract);
    // inserts repair incrementally.
    Xoshiro256 rng(91);
    constexpr vertex_t kN = 120;
    VersionedGraphStore store(kN);
    IncrementalBfs inc(store.acquire().graph(), 0);
    Edges live;

    for (int step = 0; step < 250; ++step) {
        SnapshotRef snap;
        if (!live.empty() && rng.next_below(4) == 0) {
            const std::size_t i = rng.next_below(live.size());
            MutationBatch cut;
            cut.remove(live[i].first, live[i].second);
            live[i] = live.back();
            live.pop_back();
            store.apply(cut);
            snap = store.acquire();
            inc.rebuild(snap.graph());
        } else {
            const auto u = static_cast<vertex_t>(rng.next_below(kN));
            auto v = static_cast<vertex_t>(rng.next_below(kN - 1));
            if (v >= u) ++v;
            const Edges edge = {{u, v}};
            live.push_back(edge[0]);
            snap = insert_all(store, edge);
            inc.on_edges_added(snap.graph(), edge);
        }

        const BfsResult batch = serial_bfs(snap.graph(), 0);
        ASSERT_EQ(inc.reached_count(), batch.vertices_visited)
            << "step " << step;
        ASSERT_EQ(inc.levels(), batch.level) << "step " << step;
    }
}

// ---------- VersionedGraphStore ----------

TEST(VersionedStore, PublishesInitialSnapshot) {
    const CsrGraph g = test::cycle_graph(8);
    VersionedGraphStore store(g);
    EXPECT_EQ(store.version(), 1u);
    EXPECT_EQ(store.num_vertices(), 8u);

    const SnapshotRef ref = store.acquire();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref.version(), 1u);
    EXPECT_TRUE(ref.graph() == g);
    EXPECT_EQ(store.live_snapshots(), 1u);
}

TEST(VersionedStore, ApplyPublishesImmutableVersions) {
    VersionedGraphStore store(4);
    const SnapshotRef empty = store.acquire();  // pin v1 across publishes

    MutationBatch b1;
    b1.insert(0, 1);
    b1.insert(1, 2);
    EXPECT_EQ(store.apply(b1), 2u);
    EXPECT_EQ(store.version(), 2u);

    MutationBatch b2;
    b2.remove(0, 1);
    EXPECT_EQ(store.apply(b2), 3u);

    // The pinned v1 snapshot never changed under the readers' feet.
    EXPECT_EQ(empty.version(), 1u);
    EXPECT_EQ(empty.graph().num_edges(), 0u);
    const SnapshotRef now = store.acquire();
    EXPECT_EQ(now.version(), 3u);
    EXPECT_EQ(now.graph().num_edges(), 2u);  // only {1, 2} survives

    const auto& c = store.counters();
    EXPECT_EQ(c.batches_applied.load(), 2u);
    EXPECT_EQ(c.snapshots_published.load(), 3u);  // v1 + two applies
    EXPECT_EQ(c.delta_edges.load(), 3u);          // 2 inserts + 1 remove
}

TEST(VersionedStore, InBatchInsertRemoveCancels) {
    VersionedGraphStore store(3);
    MutationBatch b;
    b.insert(0, 1);
    b.remove(1, 0);  // cancels the pending insert (normalized key)
    EXPECT_EQ(store.apply(b), 1u) << "fully-cancelled batch publishes nothing";
    EXPECT_EQ(store.version(), 1u);
    EXPECT_EQ(store.counters().noop_ops.load(), 2u);
    EXPECT_EQ(store.counters().snapshots_published.load(), 1u);
    EXPECT_EQ(store.acquire().graph().num_edges(), 0u);
}

TEST(VersionedStore, RemoveBeforeInsertStaysReal) {
    // remove(0,1) precedes insert(0,1): the remove targets a
    // pre-existing copy (there is none — no-op), the insert is new.
    // Net-counting would wrongly cancel both.
    VersionedGraphStore store(3);
    MutationBatch b;
    b.remove(0, 1);
    b.insert(0, 1);
    store.apply(b);
    EXPECT_EQ(store.acquire().graph().num_edges(), 2u);  // {0,1} exists
    EXPECT_EQ(store.counters().noop_ops.load(), 1u);    // the remove
    EXPECT_EQ(store.counters().delta_edges.load(), 1u);
}

TEST(VersionedStore, PinnedSnapshotDefersReclaim) {
    VersionedGraphStore store(4);
    SnapshotRef pin = store.acquire();  // v1
    MutationBatch b;
    b.insert(0, 1);
    for (int i = 0; i < 3; ++i) store.apply(b);  // v2, v3, v4

    // v2 and v3 retired unpinned => already swept; v1 is held.
    EXPECT_EQ(store.live_snapshots(), 2u);
    EXPECT_EQ(store.counters().snapshots_retired.load(), 3u);
    EXPECT_EQ(store.counters().snapshots_reclaimed.load(), 2u);

    pin.release();
    EXPECT_EQ(store.reclaim(), 1u);
    EXPECT_EQ(store.live_snapshots(), 1u);
    EXPECT_EQ(store.counters().snapshots_reclaimed.load(), 3u);
}

TEST(VersionedStore, OutOfRangeOpLeavesStoreUntouched) {
    VersionedGraphStore store(3);
    MutationBatch b;
    b.insert(0, 1);
    b.insert(0, 7);  // bad id after a good op
    EXPECT_THROW(store.apply(b), std::out_of_range);
    MutationBatch cut;
    cut.remove(3, 0);
    EXPECT_THROW(store.apply(cut), std::out_of_range);
    EXPECT_THROW(store.track(3), std::out_of_range);
    EXPECT_EQ(store.version(), 1u);
    EXPECT_EQ(store.acquire().graph().num_edges(), 0u)
        << "validation precedes application: nothing was half-applied";
    EXPECT_EQ(store.counters().batches_applied.load(), 0u);
}

TEST(VersionedStore, InsertOnlyRepairBitIdenticalToRecompute) {
    Xoshiro256 rng(123);
    constexpr vertex_t kN = 150;
    VersionedGraphStore store(kN);
    store.track(0);

    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    for (int round = 0; round < 30; ++round) {
        MutationBatch b;
        for (int i = 0; i < 8; ++i) {
            const auto u = static_cast<vertex_t>(rng.next_below(kN));
            auto v = static_cast<vertex_t>(rng.next_below(kN - 1));
            if (v >= u) ++v;
            b.insert(u, v);
        }
        store.apply(b);

        const SnapshotRef ref = store.acquire();
        const BfsResult batch = bfs(ref.graph(), 0, opts);
        const std::vector<level_t> levels = store.tracked_levels(0);
        ASSERT_EQ(levels.size(), batch.level.size());
        for (vertex_t w = 0; w < kN; ++w)
            ASSERT_EQ(levels[w], batch.level[w])
                << "round " << round << " vertex " << w;
    }
    EXPECT_EQ(store.counters().rebuilds.load(), 0u)
        << "insert-only traffic must never rebuild";
    EXPECT_GT(store.counters().repair_touched.load(), 0u);
}

TEST(VersionedStore, DeleteBatchRebuildsTrackedLevels) {
    VersionedGraphStore store(5);
    store.track(0);
    MutationBatch grow;
    grow.insert(0, 1);
    grow.insert(1, 2);
    grow.insert(2, 3);
    store.apply(grow);
    EXPECT_EQ(store.tracked_levels(0)[3], 3u);

    MutationBatch cut;
    cut.remove(1, 2);
    store.apply(cut);
    EXPECT_EQ(store.counters().rebuilds.load(), 1u);
    EXPECT_EQ(store.tracked_levels(0)[3], kInvalidLevel)
        << "levels must rise after the cut — only a rebuild can do that";
    EXPECT_THROW((void)store.tracked_levels(2), std::invalid_argument);
}

// ---------- differential: the store against a multiset model ----------

/// The store's batch rules restated on one multiset per row: a remove
/// cancels the latest uncancelled insert of the same edge before it in
/// the batch, then the surviving ops run in order.
struct MultisetModel {
    std::vector<std::multiset<vertex_t>> rows;
    bool symmetric = true;
    std::uint64_t version = 1;
    std::uint64_t batches_applied = 0;
    std::uint64_t delta_edges = 0;
    std::uint64_t noop_ops = 0;
    std::uint64_t snapshots_published = 1;

    explicit MultisetModel(const CsrGraph& g)
        : rows(g.num_vertices()), symmetric(g.symmetric()) {
        for (vertex_t v = 0; v < g.num_vertices(); ++v)
            rows[v].insert(g.neighbors(v).begin(), g.neighbors(v).end());
    }

    void apply(const MutationBatch& batch) {
        const auto& ops = batch.ops;
        const auto same_edge = [](const EdgeOp& a, const EdgeOp& b) {
            return std::minmax(a.u, a.v) == std::minmax(b.u, b.v);
        };
        std::vector<bool> cancelled(ops.size(), false);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].kind != EdgeOp::Kind::kRemove) continue;
            for (std::size_t j = i; j-- > 0;) {
                if (cancelled[j] || ops[j].kind != EdgeOp::Kind::kInsert ||
                    !same_edge(ops[i], ops[j]))
                    continue;
                cancelled[i] = cancelled[j] = true;
                noop_ops += 2;
                break;
            }
        }
        std::uint64_t delta = 0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (cancelled[i]) continue;
            const auto [kind, u, v] = ops[i];
            if (kind == EdgeOp::Kind::kInsert) {
                rows[u].insert(v);
                if (u != v) rows[v].insert(u);
                ++delta;
            } else if (const auto it = rows[u].find(v); it != rows[u].end()) {
                rows[u].erase(it);
                if (const auto back = rows[v].find(u);
                    u != v && back != rows[v].end())
                    rows[v].erase(back);
                ++delta;
            } else {
                ++noop_ops;
            }
        }
        if (!ops.empty()) ++batches_applied;
        delta_edges += delta;
        if (delta > 0) {
            ++version;
            ++snapshots_published;
        }
    }

    [[nodiscard]] CsrGraph csr() const {
        AlignedBuffer<edge_offset_t> offsets(rows.size() + 1);
        offsets[0] = 0;
        for (std::size_t v = 0; v < rows.size(); ++v)
            offsets[v + 1] = offsets[v] + rows[v].size();
        AlignedBuffer<vertex_t> targets(offsets[rows.size()]);
        for (std::size_t v = 0; v < rows.size(); ++v)
            std::copy(rows[v].begin(), rows[v].end(),
                      targets.data() + offsets[v]);
        return CsrGraph(std::move(offsets), std::move(targets), symmetric);
    }
};

/// A small batch over the model's vertices that mixes every case the
/// rules distinguish: plain and duplicate inserts, removes of present
/// and absent edges, self-loops, remove-then-insert and
/// insert-then-remove (in either orientation).
MutationBatch random_batch(Xoshiro256& rng, const MultisetModel& model) {
    const auto n = static_cast<vertex_t>(model.rows.size());
    MutationBatch b;
    const std::uint64_t ops = 1 + rng.next_below(6);
    for (std::uint64_t k = 0; k < ops; ++k) {
        const auto u = static_cast<vertex_t>(rng.next_below(n));
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        switch (rng.next_below(9)) {
            case 0:
            case 1: b.insert(u, v); break;
            case 2: {  // a present edge, as of the batch's start
                const auto& row = model.rows[u];
                if (row.empty()) {
                    b.remove(u, v);
                } else {
                    auto it = row.begin();
                    std::advance(it, rng.next_below(row.size()));
                    b.remove(u, *it);
                }
                break;
            }
            case 3: b.remove(u, v); break;  // mostly absent
            case 4: b.insert(u, u); break;
            case 5: b.remove(u, u); break;
            case 6:
                b.insert(u, v);
                b.insert(u, v);
                break;
            case 7:
                b.remove(u, v);
                b.insert(u, v);
                break;
            default:
                b.insert(u, v);
                if (rng.next_below(2) == 0)
                    b.remove(u, v);
                else
                    b.remove(v, u);
                break;
        }
    }
    return b;
}

TEST(VersionedStore, MatchesMultisetModel) {
    // Three kinds of initial graph on 16 vertices, so batches collide
    // often: empty, a stamped R-MAT graph (sorted, deduplicated) and an
    // unstamped one whose rows are unsorted and hold parallel arcs,
    // self-loops and arcs without their reverse.
    constexpr vertex_t kN = 16;
    const auto unstamped = [](std::uint64_t seed) {
        Xoshiro256 rng(seed);
        EdgeList edges(kN);
        for (int i = 0; i < 48; ++i)
            edges.add(static_cast<vertex_t>(rng.next_below(kN)),
                      static_cast<vertex_t>(rng.next_below(kN)));
        return csr_from_edges(edges, {.make_undirected = false,
                                      .remove_self_loops = false,
                                      .deduplicate = false,
                                      .sort_neighbors = false});
    };
    const auto stamped = [](std::uint64_t seed) {
        RmatParams params;
        params.scale = 4;
        params.num_edges = 40;
        params.seed = seed;
        return csr_from_edges(generate_rmat(params));
    };
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (int kind = 0; kind < 3; ++kind) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " kind " +
                         std::to_string(kind));
            const CsrGraph initial =
                kind == 0 ? CsrGraph(AlignedBuffer<edge_offset_t>(kN + 1, true),
                                     AlignedBuffer<vertex_t>(), true)
                : kind == 1 ? stamped(seed)
                            : unstamped(seed);
            const auto store =
                kind == 0 ? std::make_unique<VersionedGraphStore>(kN)
                          : std::make_unique<VersionedGraphStore>(initial);
            MultisetModel model(initial);
            store->track(0);
            store->track(kN - 1);

            Xoshiro256 rng(seed * 3 + static_cast<std::uint64_t>(kind));
            for (int round = 0; round <= 30; ++round) {
                if (round > 0) {
                    const MutationBatch batch = random_batch(rng, model);
                    model.apply(batch);
                    EXPECT_EQ(store->apply(batch), model.version);
                }
                const SnapshotRef snap = store->acquire();
                ASSERT_TRUE(snap.graph() == model.csr()) << "round " << round;
                EXPECT_EQ(snap.graph().symmetric(), model.symmetric);
                EXPECT_EQ(store->version(), model.version);
                const StoreCounters& c = store->counters();
                EXPECT_EQ(c.batches_applied.load(), model.batches_applied);
                EXPECT_EQ(c.delta_edges.load(), model.delta_edges);
                EXPECT_EQ(c.noop_ops.load(), model.noop_ops);
                EXPECT_EQ(c.snapshots_published.load(),
                          model.snapshots_published);
                for (const vertex_t root : {vertex_t{0}, kN - 1})
                    ASSERT_EQ(store->tracked_levels(root),
                              serial_levels(snap.graph(), root))
                        << "round " << round << " root " << root;
            }
        }
    }
}

// ---------- failure atomicity ----------

/// Everything a failed apply() must leave as it was.
struct StoreState {
    std::uint64_t version = 0;
    std::vector<edge_offset_t> offsets;
    std::vector<vertex_t> targets;
    std::vector<std::uint64_t> counters;
    std::vector<level_t> levels;
    bool operator==(const StoreState&) const = default;
};

StoreState state_of(const VersionedGraphStore& store, vertex_t root) {
    const SnapshotRef snap = store.acquire();
    const auto offsets = snap.graph().offsets();
    const auto targets = snap.graph().targets();
    const StoreCounters& c = store.counters();
    return {store.version(),
            {offsets.begin(), offsets.end()},
            {targets.begin(), targets.end()},
            {c.batches_applied.load(), c.snapshots_published.load(),
             c.delta_edges.load(), c.noop_ops.load(), c.repair_touched.load(),
             c.rebuilds.load(), c.snapshots_retired.load(),
             c.snapshots_reclaimed.load()},
            store.tracked_levels(root)};
}

TEST(VersionedStore, FailedApplyLeavesNoTrace) {
    // `store` meets an allocation failure at each alloc-site hit of
    // every apply() in turn until one succeeds; `clean` applies the same
    // batches without faults. A failure leaves nothing behind, and the
    // batch that finally lands publishes only its own edges: after each
    // batch the two stores agree on everything.
    VersionedGraphStore store(8);
    VersionedGraphStore clean(8);
    store.track(0);
    clean.track(0);
    std::vector<MutationBatch> batches(3);
    batches[0].insert(0, 1);  // insert-only: the repair path
    batches[0].insert(1, 2);
    batches[1].insert(2, 3);  // with a delete: the rebuild path
    batches[1].remove(0, 1);
    batches[2].insert(0, 1);
    batches[2].insert(4, 4);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        int failures = 0;
        for (std::uint64_t nth = 1;; ++nth) {
            const StoreState before = state_of(store, 0);
            fault::arm(fault::Site::kAlloc,
                       fault::Trigger{.probability = 0.0, .nth = nth});
            try {
                store.apply(batches[b]);
                fault::disarm_all();
                break;
            } catch (const std::bad_alloc&) {
                fault::disarm_all();
                ++failures;
            }
            EXPECT_TRUE(state_of(store, 0) == before)
                << "batch " << b << " failed at alloc hit " << nth;
        }
        EXPECT_GE(failures, 1) << "the next version's buffers are alloc sites";
        clean.apply(batches[b]);
        EXPECT_TRUE(state_of(store, 0) == state_of(clean, 0)) << "batch " << b;
    }
    EXPECT_EQ(store.version(), 4u);
}

// ---------- readers-vs-writer soak (TSan coverage) ----------

namespace {

/// FNV-1a over the CSR arrays: any torn or half-applied publish makes
/// a reader's recomputed digest diverge from the writer's.
std::uint64_t graph_digest(const CsrGraph& g) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 1099511628211ull;
    };
    mix(g.num_vertices());
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        mix(g.degree(v));
        for (const vertex_t w : g.neighbors(v)) mix(w);
    }
    return h;
}

}  // namespace

TEST(VersionedStoreSoak, ReadersVsWriterSeeOnlyWholeBatches) {
    constexpr vertex_t kN = 64;
    constexpr int kBatches = 120;
    VersionedGraphStore store(kN);

    // Slot per version: the writer records the digest of what it
    // published; readers recompute from their pinned snapshot. 0 means
    // "not yet recorded" (the digest itself is never 0 in practice; the
    // reader spins until the slot fills).
    std::vector<std::atomic<std::uint64_t>> digest(kBatches + 2);
    for (auto& d : digest) d.store(0);
    digest[1].store(graph_digest(store.acquire().graph()));

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reader_checks{0};

    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            std::uint64_t last_version = 0;
            while (!done.load(std::memory_order_acquire)) {
                const SnapshotRef ref = store.acquire();
                ASSERT_GE(ref.version(), last_version)
                    << "published versions are monotone per reader";
                last_version = ref.version();
                std::uint64_t expect = 0;
                while ((expect = digest[ref.version()].load(
                            std::memory_order_acquire)) == 0) {
                }
                ASSERT_EQ(graph_digest(ref.graph()), expect)
                    << "version " << ref.version();
                reader_checks.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    Xoshiro256 rng(42);
    for (int round = 0; round < kBatches; ++round) {
        MutationBatch b;
        for (int i = 0; i < 6; ++i) {
            const auto u = static_cast<vertex_t>(rng.next_below(kN));
            const auto v = static_cast<vertex_t>(rng.next_below(kN));
            if (rng.next_below(5) == 0)
                b.remove(u, v);
            else
                b.insert(u, v);
        }
        const std::uint64_t version = store.apply(b);
        const SnapshotRef ref = store.acquire();
        ASSERT_EQ(ref.version(), version) << "single writer: no one races us";
        digest[version].store(graph_digest(ref.graph()),
                              std::memory_order_release);
    }
    // The writer can outrun reader-thread startup entirely; hold `done`
    // until the readers have audited some snapshots. This always
    // terminates: the final version's digest slot is filled, so readers
    // keep completing checks against it.
    while (reader_checks.load(std::memory_order_relaxed) < 8)
        std::this_thread::yield();
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_GT(reader_checks.load(), 0u);
    // Everyone dropped their pins: the store shrinks back to one
    // snapshot.
    store.reclaim();
    EXPECT_EQ(store.live_snapshots(), 1u);
}

}  // namespace
}  // namespace sge
