// Edge-aware frontier scheduler (src/concurrency/work_queue.hpp) and
// its engine wiring: plan invariants, steal-domain containment, and
// output equivalence across the engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "concurrency/work_queue.hpp"
#include "core/bfs.hpp"
#include "core/engine_common.hpp"
#include "core/validate.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

/// Drains every chunk one claimant may take; returns the claimed
/// [begin, end) item ranges in claim order.
std::vector<std::pair<std::size_t, std::size_t>> drain(WorkQueue& wq,
                                                       int claimant) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t b = 0;
    std::size_t e = 0;
    while (wq.claim(claimant, b, e) != WorkQueue::Claim::kNone)
        out.emplace_back(b, e);
    return out;
}

/// Asserts `ranges` tile [0, count) exactly once.
void expect_exact_cover(
    std::vector<std::pair<std::size_t, std::size_t>> ranges,
    std::size_t count) {
    std::sort(ranges.begin(), ranges.end());
    std::size_t at = 0;
    for (const auto& [b, e] : ranges) {
        EXPECT_EQ(b, at) << "gap or overlap at item " << at;
        EXPECT_GT(e, b) << "empty chunk at " << b;
        at = e;
    }
    EXPECT_EQ(at, count);
}

TEST(WorkQueue, WeightedPlanTilesRangeAndBoundsChunkWeight) {
    // Skewed weights: items 0, 100, 200, ... are hundred-fold "hubs".
    const std::size_t count = 500;
    const auto weight = [](std::size_t i) -> std::uint64_t {
        return i % 100 == 0 ? 400 : 4;
    };
    std::uint64_t total = 0;
    std::uint64_t w_max = 0;
    for (std::size_t i = 0; i < count; ++i) {
        total += weight(i);
        w_max = std::max(w_max, weight(i));
    }

    WorkQueue wq(4, {0, 0, 0, 0});
    const std::size_t max_chunks = 4 * 16;
    wq.plan(count, max_chunks, weight);
    ASSERT_GE(wq.num_chunks(), 1u);
    ASSERT_LE(wq.num_chunks(), max_chunks);

    const std::uint64_t ideal = (total + max_chunks - 1) / max_chunks;
    std::vector<std::pair<std::size_t, std::size_t>> all;
    for (std::size_t c = 0; c < wq.num_chunks(); ++c) {
        const auto [b, e] = wq.chunk_bounds(c);
        all.emplace_back(b, e);
        std::uint64_t w = 0;
        for (std::size_t i = b; i < e; ++i) w += weight(i);
        // Greedy cut guarantee: no chunk carries more than one item past
        // the target, so weight <= 2 x max(ideal share, heaviest item).
        EXPECT_LE(w, 2 * std::max(ideal, w_max))
            << "chunk " << c << " over-heavy";
    }
    expect_exact_cover(std::move(all), count);
}

TEST(WorkQueue, StarGraphLeafFrontierSpreadAtMostTwiceIdeal) {
    // The ISSUE's hand-built star: hub 0, leaves 1..n-1. The leaf-level
    // frontier is weight-uniform, so every chunk must stay within 2x the
    // ideal edge share — no straggler chunk.
    const CsrGraph g = test::star_graph(1025);
    std::vector<vertex_t> frontier;
    for (vertex_t v = 1; v < g.num_vertices(); ++v) frontier.push_back(v);

    WorkQueue wq(8, std::vector<int>(8, 0));
    detail::plan_frontier(wq, frontier.data(), frontier.size(), g);

    const auto weight = [&](std::size_t i) {
        return static_cast<std::uint64_t>(g.degree(frontier[i])) + 1;
    };
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) total += weight(i);
    const double ideal =
        static_cast<double>(total) / static_cast<double>(wq.num_chunks());
    for (std::size_t c = 0; c < wq.num_chunks(); ++c) {
        const auto [b, e] = wq.chunk_bounds(c);
        std::uint64_t w = 0;
        for (std::size_t i = b; i < e; ++i) w += weight(i);
        EXPECT_LE(static_cast<double>(w), 2.0 * ideal) << "chunk " << c;
    }

    // The hub level (frontier = {0}) must still produce a plan that
    // covers the single item.
    const vertex_t hub = 0;
    detail::plan_frontier(wq, &hub, 1, g);
    EXPECT_EQ(wq.num_chunks(), 1u);
    EXPECT_EQ(wq.chunk_bounds(0), (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(WorkQueue, OwnedPlanStealsOnlyWithinSocket) {
    // Claimants 0,1 on socket 0; 2,3 on socket 1. Claimant 0 drains
    // everything it is allowed to touch: its own range plus claimant 1's
    // — never socket 1's chunks.
    WorkQueue wq(4, {0, 0, 1, 1});
    wq.plan(400, 8, [](std::size_t) { return 1u; });
    ASSERT_EQ(wq.num_chunks(), 8u);

    std::size_t b = 0;
    std::size_t e = 0;
    std::size_t stolen = 0;
    std::vector<std::pair<std::size_t, std::size_t>> owned;
    std::vector<std::pair<std::size_t, std::size_t>> got;
    for (;;) {
        const WorkQueue::Claim cl = wq.claim(0, b, e);
        if (cl == WorkQueue::Claim::kNone) break;
        got.emplace_back(b, e);
        if (cl == WorkQueue::Claim::kOwned) {
            EXPECT_EQ(stolen, 0u) << "owned claim after a steal";
            owned.emplace_back(b, e);
        } else {
            ++stolen;
        }
    }
    // Own range first, then the same-socket sibling's.
    const auto [r0b, r0e] = wq.claimant_range(0);
    const auto [r1b, r1e] = wq.claimant_range(1);
    EXPECT_EQ(owned.size(), r0e - r0b);
    EXPECT_EQ(stolen, r1e - r1b);
    // The owned claims come back as one ascending, contiguous run of
    // items: a claimant scans its slice of the frontier in order.
    ASSERT_FALSE(owned.empty());
    EXPECT_EQ(owned.front().first, wq.chunk_bounds(r0b).first);
    for (std::size_t i = 1; i < owned.size(); ++i)
        EXPECT_EQ(owned[i].first, owned[i - 1].second) << "claim " << i;

    // Socket 1's chunks are untouched: claimants 2 and 3 still drain
    // their full ranges, and the four drains tile the items exactly.
    const auto got2 = drain(wq, 2);
    const auto got3 = drain(wq, 3);
    const auto [r2b, r2e] = wq.claimant_range(2);
    const auto [r3b, r3e] = wq.claimant_range(3);
    EXPECT_EQ(got2.size() + got3.size(), (r2e - r2b) + (r3e - r3b));

    std::vector<std::pair<std::size_t, std::size_t>> all = got;
    all.insert(all.end(), got2.begin(), got2.end());
    all.insert(all.end(), got3.begin(), got3.end());
    expect_exact_cover(std::move(all), 400);
}

TEST(WorkQueue, ResetCursorsReplaysTheSamePlan) {
    WorkQueue wq(2, {0, 0});
    wq.plan(100, 10, [](std::size_t) { return 1u; });
    const auto first = drain(wq, 0);   // own + stolen: everything
    EXPECT_TRUE(drain(wq, 1).empty());  // nothing left
    wq.reset_cursors();
    const auto second = drain(wq, 0);
    EXPECT_EQ(first, second);
}

TEST(WorkQueue, EmptyPlanYieldsNoClaims) {
    WorkQueue wq(2, {0, 0});
    wq.plan(0, 16, [](std::size_t) { return 1u; });
    EXPECT_EQ(wq.num_chunks(), 0u);
    EXPECT_TRUE(drain(wq, 0).empty());
    EXPECT_TRUE(drain(wq, 1).empty());
}

// ---------------------------------------------------------------------
// End-to-end: every parallel engine yields a valid BFS tree with the
// same reachability as the serial reference.
// ---------------------------------------------------------------------

CsrGraph skewed_graph() {
    RmatParams params;
    params.scale = 10;
    params.num_edges = 1 << 13;
    params.seed = 7;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 11);
    return csr_from_edges(edges);
}

TEST(Scheduler, AllEnginesProduceValidEquivalentTrees) {
    const CsrGraph graphs[] = {skewed_graph(), test::star_graph(257),
                               test::path_graph(200)};
    const BfsEngine engines[] = {BfsEngine::kNaive, BfsEngine::kBitmap,
                                 BfsEngine::kMultiSocket, BfsEngine::kHybrid};
    for (const CsrGraph& g : graphs) {
        const BfsResult reference = bfs(g, 0, {});  // serial
        for (const BfsEngine engine : engines) {
            BfsOptions options;
            options.engine = engine;
            options.threads = 4;
            options.topology = Topology::emulate(2, 2, 1);
            const BfsResult result = bfs(g, 0, options);
            SCOPED_TRACE(to_string(engine));
            EXPECT_TRUE(validate_bfs_tree(g, 0, result).ok);
            test::expect_equivalent(reference, result);
        }
    }
}

TEST(Scheduler, MultisocketPartialBatchesFullyDrained) {
    // Batch size 7 never divides the level frontiers, so every level
    // ships a final partial batch through the channels; the engine's
    // debug drain assert and the tree validation both cover it.
    const CsrGraph g = skewed_graph();
    BfsOptions options;
    options.engine = BfsEngine::kMultiSocket;
    options.threads = 4;
    options.topology = Topology::emulate(2, 2, 1);
    options.batch_size = 7;
    const BfsResult result = bfs(g, 0, options);
    EXPECT_TRUE(validate_bfs_tree(g, 0, result).ok);
    test::expect_equivalent(bfs(g, 0, {}), result);
}

// ---------------------------------------------------------------------
// Counter consistency.
// ---------------------------------------------------------------------

TEST(Scheduler, ChunkCounterInvariants) {
    const CsrGraph g = skewed_graph();
    BfsOptions options;
    options.engine = BfsEngine::kBitmap;
    options.threads = 4;
    options.topology = Topology::emulate(2, 2, 1);
    options.collect_stats = true;
    const BfsResult result = bfs(g, 0, options);
    std::uint64_t claimed = 0;
    std::uint64_t edges = 0;
    std::uint64_t max_edges = 0;
    for (const BfsLevelStats& s : result.level_stats) {
        // Plans cap chunk count at claimants x 16 per level.
        EXPECT_LE(s.chunks_claimed, 4u * 16u);
        EXPECT_GE(s.chunks_claimed, s.frontier_size > 0 ? 1u : 0u);
        EXPECT_LE(s.chunks_stolen, s.chunks_claimed);
        EXPECT_LE(s.max_thread_edges, s.edges_scanned);
        claimed += s.chunks_claimed;
        edges += s.edges_scanned;
        max_edges += s.max_thread_edges;
    }
    EXPECT_GT(claimed, 0u);
    EXPECT_GT(max_edges, 0u);
    EXPECT_LE(max_edges, edges);
}

}  // namespace
}  // namespace sge
