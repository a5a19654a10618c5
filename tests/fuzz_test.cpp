// Randomized property tests: hundreds of generated cases per suite,
// each checked against a reference model or the serial oracle. Seeds
// are the parameter, so failures reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <string>
#include <vector>

#include "concurrency/channel.hpp"
#include "concurrency/spsc_ring.hpp"
#include "core/bfs.hpp"
#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "core/msbfs.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/small_world.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "runtime/prng.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

// ---------------------------------------------------------------------
// Builder fuzz: arbitrary edge lists, arbitrary build flags.
// ---------------------------------------------------------------------

class BuilderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuilderFuzz, CsrInvariantsHoldForArbitraryInput) {
    Xoshiro256 rng(GetParam());
    const auto n = static_cast<vertex_t>(1 + rng.next_below(2000));
    const std::size_t m = rng.next_below(5 * static_cast<std::uint64_t>(n));

    EdgeList edges(n);
    for (std::size_t e = 0; e < m; ++e)
        edges.add(static_cast<vertex_t>(rng.next_below(n)),
                  static_cast<vertex_t>(rng.next_below(n)));

    BuildOptions opts;
    opts.make_undirected = rng.next() & 1;
    opts.remove_self_loops = rng.next() & 1;
    opts.deduplicate = rng.next() & 1;
    opts.sort_neighbors = opts.deduplicate || (rng.next() & 1);

    const CsrGraph g = csr_from_edges(edges, opts);
    ASSERT_TRUE(g.well_formed());
    ASSERT_EQ(g.num_vertices(), n);

    if (opts.sort_neighbors) {
        for (vertex_t v = 0; v < n; ++v) {
            const auto adj = g.neighbors(v);
            ASSERT_TRUE(std::is_sorted(adj.begin(), adj.end())) << "vertex " << v;
        }
    }
    if (opts.deduplicate) {
        for (vertex_t v = 0; v < n; ++v) {
            const auto adj = g.neighbors(v);
            ASSERT_TRUE(std::adjacent_find(adj.begin(), adj.end()) == adj.end())
                << "duplicate neighbour at vertex " << v;
        }
    }
    if (opts.remove_self_loops) {
        for (vertex_t v = 0; v < n; ++v) ASSERT_FALSE(g.has_edge(v, v));
    }
    if (opts.make_undirected && opts.deduplicate) {
        for (vertex_t v = 0; v < n; ++v)
            for (const vertex_t w : g.neighbors(v))
                ASSERT_TRUE(g.has_edge(w, v)) << v << "-" << w;
    }
    if (!opts.make_undirected && !opts.deduplicate) {
        // Arc count is exact: input arcs minus removed self-loops.
        std::size_t expect = 0;
        for (const Edge& e : edges)
            expect += !(opts.remove_self_loops && e.src == e.dst);
        ASSERT_EQ(g.num_edges(), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderFuzz, ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------
// Engine fuzz: random graph family x random engine config vs the
// serial oracle.
// ---------------------------------------------------------------------

/// A random workload — uniform, R-MAT or small-world — symmetrized or
/// left directed (unstamped: hybrid must then stay top-down).
CsrGraph draw_graph(Xoshiro256& rng) {
    BuildOptions build;
    build.make_undirected = rng.next() & 1;
    switch (rng.next_below(3)) {
        case 0: {
            UniformParams params;
            params.num_vertices = static_cast<vertex_t>(2 + rng.next_below(3000));
            params.degree = static_cast<std::uint32_t>(1 + rng.next_below(12));
            params.seed = rng.next();
            return csr_from_edges(generate_uniform(params), build);
        }
        case 1: {
            RmatParams params;
            params.scale = static_cast<std::uint32_t>(6 + rng.next_below(6));
            params.num_edges = (2 + rng.next_below(14)) << params.scale;
            params.seed = rng.next();
            return csr_from_edges(generate_rmat(params), build);
        }
        default: {
            SmallWorldParams params;
            params.num_vertices = static_cast<vertex_t>(16 + rng.next_below(3000));
            params.mean_degree = static_cast<std::uint32_t>(
                2 + rng.next_below(6));
            params.rewire_probability = rng.next_double();
            params.seed = rng.next();
            return csr_from_edges(generate_small_world(params), build);
        }
    }
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllEnginesMatchSerialOnRandomWorkloads) {
    Xoshiro256 rng(GetParam() * 7919);
    const CsrGraph g = draw_graph(rng);
    const auto root = static_cast<vertex_t>(rng.next_below(g.num_vertices()));

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult expected = bfs(g, root, serial);

    // Random engine configuration.
    BfsOptions opts;
    const BfsEngine engines[] = {BfsEngine::kNaive, BfsEngine::kBitmap,
                                 BfsEngine::kMultiSocket, BfsEngine::kHybrid,
                                 BfsEngine::kAuto};
    opts.engine = engines[rng.next_below(5)];
    const int sockets = static_cast<int>(1 + rng.next_below(4));
    const int cores = static_cast<int>(1 + rng.next_below(4));
    opts.topology = Topology::emulate(sockets, cores, 1);
    opts.threads = static_cast<int>(1 + rng.next_below(
        static_cast<std::uint64_t>(sockets) * cores));
    opts.batch_size = 1 + rng.next_below(128);
    opts.channel_capacity = 2 + rng.next_below(512);
    opts.bitmap_double_check = rng.next() & 1;
    opts.remote_sender_filter = rng.next() & 1;
    // Plain, compressed or paged plain targets.
    const int backend = static_cast<int>(rng.next_below(3));
    opts.collect_stats = rng.next() & 1;

    const BfsResult actual = test::with_backend(
        backend, g, [&](const auto& graph) { return bfs(graph, root, opts); });
    const std::string config =
        to_string(opts.engine) + " t=" + std::to_string(opts.threads) +
        " backend=" + test::kBackendNames[backend] +
        " stats=" + std::to_string(opts.collect_stats) +
        " undirected=" + std::to_string(g.symmetric());
    SCOPED_TRACE(config);
    test::expect_equivalent(expected, actual);
    const ValidationReport report = validate_bfs_tree(g, root, actual);
    ASSERT_TRUE(report.ok) << config << ": " << report.error;

    // Per-level accounting: every non-root vertex is claimed exactly
    // once, and every visited vertex is some level's frontier.
    if (opts.collect_stats && obs::compiled_in()) {
        std::uint64_t wins = 0;
        std::uint64_t frontier = 0;
        for (const BfsLevelStats& s : actual.level_stats) {
            wins += s.atomic_wins;
            frontier += s.frontier_size;
        }
        EXPECT_EQ(wins, actual.vertices_visited - 1);
        EXPECT_EQ(frontier, actual.vertices_visited);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------
// MS-BFS fuzz: random sources x team shape x backend x buffer reuse vs
// one serial BFS per lane.
// ---------------------------------------------------------------------

/// 1..64 distinct sources in [0, n).
std::vector<vertex_t> draw_sources(Xoshiro256& rng, vertex_t n) {
    const std::size_t k = 1 + rng.next_below(std::min<std::uint64_t>(64, n));
    std::vector<bool> taken(n, false);
    std::vector<vertex_t> sources;
    while (sources.size() < k) {
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        if (!taken[v]) {
            taken[v] = true;
            sources.push_back(v);
        }
    }
    return sources;
}

class MsBfsFuzz : public ::testing::TestWithParam<std::uint64_t> {
  protected:
    /// Runs one wave from `sources` and checks every lane's levels
    /// against the serial engine on `plain`, the return value against
    /// the deepest lane, and — with stats — the level counters against
    /// the visitor calls.
    template <class Graph>
    void check_wave(const Graph& g, const CsrGraph& plain,
                    const std::vector<vertex_t>& sources, MsBfsOptions mo) {
        const std::size_t n = plain.num_vertices();
        std::vector<level_t> levels(sources.size() * n, kInvalidLevel);
        std::atomic<std::uint64_t> calls{0};
        std::atomic<bool> bad_report{false};
        std::vector<BfsLevelStats> stats;
        mo.level_stats = &stats;
        // Concurrent calls report distinct vertices, and a level barrier
        // separates calls for one vertex, so the slot writes never race.
        const std::uint32_t ran = multi_source_bfs(
            g, sources,
            [&](int, level_t level, vertex_t v, std::uint64_t mask) {
                calls.fetch_add(1, std::memory_order_relaxed);
                if (mask == 0) bad_report.store(true);
                for (; mask != 0; mask &= mask - 1) {
                    const auto lane =
                        static_cast<std::size_t>(std::countr_zero(mask));
                    level_t& slot = levels[lane * n + v];
                    if (slot != kInvalidLevel) bad_report.store(true);
                    slot = level;
                }
            },
            mo);
        EXPECT_FALSE(bad_report.load())
            << "an empty lane mask, or a lane reported a vertex twice";

        BfsOptions serial;
        serial.engine = BfsEngine::kSerial;
        level_t deepest = 0;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const BfsResult expected = bfs(plain, sources[i], serial);
            const auto lane = levels.begin() + static_cast<std::ptrdiff_t>(i * n);
            ASSERT_TRUE(std::equal(expected.level.begin(), expected.level.end(),
                                   lane))
                << "lane " << i << " (source " << sources[i] << ")";
            for (const level_t l : expected.level)
                if (l != kInvalidLevel) deepest = std::max(deepest, l);
        }
        EXPECT_EQ(ran, deepest + 1);

        if (!mo.collect_stats) return;
        ASSERT_EQ(stats.size(), ran);
        std::uint64_t frontier = 0;
        for (std::size_t d = 0; d < stats.size(); ++d) {
            frontier += stats[d].frontier_size;
            EXPECT_LE(stats[d].chunks_stolen, stats[d].chunks_claimed)
                << "level " << d;
        }
        EXPECT_EQ(frontier, calls.load());
    }
};

TEST_P(MsBfsFuzz, EveryLaneMatchesSerial) {
    Xoshiro256 rng(GetParam() * 104723);
    const CsrGraph g = draw_graph(rng);
    const vertex_t n = g.num_vertices();

    const int threads = static_cast<int>(1 + rng.next_below(8));
    const Topology topology = Topology::emulate(
        static_cast<int>(1 + rng.next_below(4)),
        static_cast<int>(1 + rng.next_below(4)),
        static_cast<int>(1 + rng.next_below(2)));
    const int backend = static_cast<int>(rng.next_below(3));
    const bool reuse = rng.next() & 1;
    MsBfsOptions mo;
    mo.collect_stats = rng.next() & 1;
    SCOPED_TRACE("t=" + std::to_string(threads) + " on " +
                 topology.describe() + " backend=" + std::to_string(backend) +
                 " reuse=" + std::to_string(reuse) +
                 " stats=" + std::to_string(mo.collect_stats) +
                 " n=" + std::to_string(n));

    if (!reuse) {
        mo.threads = threads;
        mo.topology = topology;
        test::with_backend(backend, g, [&](const auto& graph) {
            check_wave(graph, g, draw_sources(rng, n), mo);
        });
        return;
    }

    // A runner's team and workspace, used as the service uses them: a
    // wave, a single-source query, a wave on g, then a wave on a second
    // graph with the same vertex count, whose degrees the reused [0, n)
    // plan must be re-cut from. With kHybrid on a stamped graph the
    // query's bottom-up levels and the waves share that plan.
    BfsOptions bo;
    bo.engine = rng.next() & 1 ? BfsEngine::kHybrid : BfsEngine::kBitmap;
    bo.threads = threads;
    bo.topology = topology;
    BfsRunner runner(bo);
    (void)runner.run(g, 0);  // the workspace exists from the first query
    mo.team = runner.team();
    mo.workspace = runner.workspace();
    ASSERT_NE(mo.workspace, nullptr);
    SCOPED_TRACE("runner=" + to_string(bo.engine));
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    test::with_backend(backend, g, [&](const auto& graph) {
        check_wave(graph, g, draw_sources(rng, n), mo);
        const auto root = static_cast<vertex_t>(rng.next_below(n));
        const BfsResult got = runner.run(graph, root);
        EXPECT_EQ(got.level, bfs(g, root, serial).level) << "root " << root;
        check_wave(graph, g, draw_sources(rng, n), mo);
    });
    UniformParams params;
    params.num_vertices = n;
    params.degree = static_cast<std::uint32_t>(1 + rng.next_below(12));
    params.seed = rng.next();
    const CsrGraph g2 = csr_from_edges(generate_uniform(params));
    test::with_backend(backend, g2, [&](const auto& graph) {
        check_wave(graph, g2, draw_sources(rng, n), mo);
    });
    WorkQueue fresh(mo.team->size(), detail::team_socket_map(*mo.team));
    detail::plan_vertex_range(fresh, g2);
    const WorkQueue& used = *mo.workspace->range_wq;
    ASSERT_EQ(used.num_chunks(), fresh.num_chunks());
    for (std::size_t c = 0; c < fresh.num_chunks(); ++c)
        EXPECT_EQ(used.chunk_bounds(c), fresh.chunk_bounds(c))
            << "chunk " << c;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsBfsFuzz, ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Channel fuzz: random push/pop sequences vs a deque model.
// ---------------------------------------------------------------------

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFuzz, DeliversEveryItemExactlyOnceUnderRandomBatches) {
    // The channel's contract is *set* delivery (see channel.hpp: global
    // FIFO is not guaranteed once the spill engages), so the model is a
    // pending-multiset, not a queue. Values are unique, so a plain set
    // of outstanding items suffices.
    Xoshiro256 rng(GetParam() * 104729);
    Channel<std::uint64_t, ~0ULL> channel(1 + rng.next_below(64));
    std::vector<bool> outstanding;  // outstanding[value]
    std::size_t outstanding_count = 0;

    std::uint64_t next_value = 0;
    std::vector<std::uint64_t> buf(256);
    const auto consume = [&](std::size_t got) {
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_LT(buf[i], next_value) << "value never pushed";
            ASSERT_TRUE(outstanding[buf[i]]) << "duplicate delivery";
            outstanding[buf[i]] = false;
            --outstanding_count;
        }
    };

    for (int step = 0; step < 2000; ++step) {
        if (rng.next() & 1) {
            const std::size_t count = 1 + rng.next_below(64);
            for (std::size_t i = 0; i < count; ++i) {
                buf[i] = next_value++;
                outstanding.push_back(true);
                ++outstanding_count;
            }
            channel.push_batch(buf.data(), count);
        } else {
            const std::size_t want = 1 + rng.next_below(64);
            const std::size_t got = channel.pop_batch(buf.data(), want);
            ASSERT_LE(got, want);
            // Single-threaded: empty result means genuinely drained.
            if (got == 0) {
                ASSERT_EQ(outstanding_count, 0u);
            }
            consume(got);
        }
    }
    for (;;) {
        const std::size_t got = channel.pop_batch(buf.data(), buf.size());
        if (got == 0) break;
        consume(got);
    }
    ASSERT_EQ(outstanding_count, 0u);
    ASSERT_EQ(channel.pushed(), channel.popped());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz, ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------
// SPSC ring fuzz: random interleavings vs a deque model.
// ---------------------------------------------------------------------

class SpscFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpscFuzz, MatchesQueueModel) {
    Xoshiro256 rng(GetParam() * 31337);
    SpscRing<std::uint64_t, ~0ULL> ring(1 + rng.next_below(32));
    std::deque<std::uint64_t> model;

    std::uint64_t next_value = 0;
    for (int step = 0; step < 5000; ++step) {
        if (rng.next() & 1) {
            const bool pushed = ring.try_push(next_value);
            if (pushed) {
                model.push_back(next_value);
                ++next_value;
            } else {
                ASSERT_EQ(model.size(), ring.capacity()) << "spurious full";
            }
        } else {
            const auto popped = ring.try_pop();
            if (popped) {
                ASSERT_FALSE(model.empty());
                ASSERT_EQ(*popped, model.front());
                model.pop_front();
            } else {
                ASSERT_TRUE(model.empty()) << "spurious empty";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpscFuzz, ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace sge
