#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/betweenness.hpp"
#include "analytics/connected_components.hpp"
#include "analytics/diameter.hpp"
#include "concurrency/thread_team.hpp"
#include "concurrency/atomic_bitmap.hpp"
#include "core/bfs.hpp"
#include "core/bfs_workspace.hpp"
#include "core/msbfs.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/csr_compressed.hpp"
#include "runtime/aligned_buffer.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using test::expect_equivalent;

CsrGraph uniform_test_graph(vertex_t n, std::uint32_t degree,
                            std::uint64_t seed) {
    UniformParams params;
    params.num_vertices = n;
    params.degree = degree;
    params.seed = seed;
    return csr_from_edges(generate_uniform(params));
}

CsrGraph rmat_test_graph(std::uint32_t scale, std::uint64_t edges,
                         std::uint64_t seed) {
    RmatParams params;
    params.scale = scale;
    params.num_edges = edges;
    params.seed = seed;
    return csr_from_edges(generate_rmat(params));
}

// ---------------------------------------------------------------------
// AtomicBitmap primitive.
// ---------------------------------------------------------------------

TEST(WorkspaceBitmap, SetTestAndClear) {
    AtomicBitmap b(100);
    EXPECT_EQ(b.num_words(), 2u);
    EXPECT_FALSE(b.test(0));
    EXPECT_FALSE(b.test_and_set(0));
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test_and_set(0));
    EXPECT_FALSE(b.test(1));  // same word, different slot
    EXPECT_FALSE(b.test_and_set(99));
    EXPECT_TRUE(b.test(99));

    b.clear();
    EXPECT_FALSE(b.test(0));
    EXPECT_FALSE(b.test(99));
    EXPECT_FALSE(b.test_and_set(0));  // a cleared slot wins again
    EXPECT_TRUE(b.test(0));
}

TEST(WorkspaceBitmap, ExactlyOneWinnerPerBitUnderContention) {
    // The BFS correctness hinge: when many threads race test_and_set on
    // the same vertex, exactly one sees "previously clear". The second
    // round runs on the same words after a clear().
    constexpr std::size_t kBits = 4096;
    constexpr int kThreads = 8;
    AtomicBitmap bm(kBits);
    for (int round = 0; round < 2; ++round) {
        if (round == 1) bm.clear();
        std::atomic<std::uint64_t> wins{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                std::uint64_t local = 0;
                for (std::size_t i = 0; i < kBits; ++i)
                    if (!bm.test_and_set(i)) ++local;
                wins.fetch_add(local);
            });
        }
        for (auto& th : threads) th.join();
        EXPECT_EQ(wins.load(), kBits) << "round " << round;
        for (std::size_t i = 0; i < kBits; ++i)
            ASSERT_TRUE(bm.test(i)) << "round " << round << " slot " << i;
    }
}

// ---------------------------------------------------------------------
// Reuse determinism: the same runner answering many queries must match
// a fresh runner (and the serial reference semantics) on every query,
// for every engine.
// ---------------------------------------------------------------------

struct ReuseConfig {
    BfsEngine engine;
    Topology topology;
    const char* label;
};

std::string reuse_name(const ::testing::TestParamInfo<ReuseConfig>& info) {
    return info.param.label;
}

class WorkspaceReuseMatrix : public ::testing::TestWithParam<ReuseConfig> {
  protected:
    BfsOptions options() const {
        const ReuseConfig& cfg = GetParam();
        BfsOptions opts;
        opts.engine = cfg.engine;
        opts.threads = 4;
        opts.topology = cfg.topology;
        // Small batches/rings on purpose: exercise the flush and spill
        // paths that big defaults would hide.
        opts.batch_size = 8;
        opts.channel_capacity = 64;
        return opts;
    }
};

TEST_P(WorkspaceReuseMatrix, TenRootsMatchFreshRunner) {
    const CsrGraph g = rmat_test_graph(9, 4096, 7);
    BfsRunner reused(options());
    BfsResult result;
    for (int q = 0; q < 10; ++q) {
        const auto root =
            static_cast<vertex_t>((q * 131u + 17u) % g.num_vertices());
        reused.run_into(result, g, root);

        BfsRunner fresh(options());
        const BfsResult expected = fresh.run(g, root);
        expect_equivalent(expected, result);

        const ValidationReport report = validate_bfs_tree(g, root, result);
        EXPECT_TRUE(report.ok) << report.error << " (query " << q << ")";
    }
    EXPECT_EQ(reused.workspace_stats().prepares, 1u);
    EXPECT_EQ(reused.workspace_stats().workspace_reuses, 9u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, WorkspaceReuseMatrix,
    ::testing::Values(
        ReuseConfig{BfsEngine::kNaive, Topology::emulate(1, 4, 1), "naive"},
        ReuseConfig{BfsEngine::kBitmap, Topology::emulate(1, 4, 1), "bitmap"},
        ReuseConfig{BfsEngine::kMultiSocket, Topology::emulate(2, 2, 1),
                    "multisocket"},
        ReuseConfig{BfsEngine::kHybrid, Topology::emulate(1, 4, 1), "hybrid"}),
    reuse_name);

// ---------------------------------------------------------------------
// Graph swap: one runner across different graphs and sizes.
// ---------------------------------------------------------------------

TEST(WorkspaceSwap, GrowShrinkAndReplanAcrossGraphs) {
    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);

    const CsrGraph small = uniform_test_graph(200, 4, 1);
    const CsrGraph big = uniform_test_graph(3000, 6, 2);
    const CsrGraph other_small = uniform_test_graph(200, 5, 3);

    BfsRunner runner(opts);
    BfsResult result;
    for (const CsrGraph* g : {&small, &big, &other_small, &small}) {
        runner.run_into(result, *g, 0);
        BfsRunner fresh(opts);
        expect_equivalent(fresh.run(*g, 0), result);
        const ValidationReport report = validate_bfs_tree(*g, 0, result);
        EXPECT_TRUE(report.ok) << report.error;
    }
    // 200 -> 3000 -> 200 re-allocated twice; the last swap (equal n,
    // different graph) reuses buffers but re-plans.
    EXPECT_EQ(runner.workspace_stats().prepares, 3u);
    EXPECT_EQ(runner.workspace_stats().workspace_reuses, 1u);
}

TEST(WorkspaceSwap, HybridRangePlanInvalidatedOnGraphChange) {
    BfsOptions opts;
    opts.engine = BfsEngine::kHybrid;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    // Dense graphs so the direction heuristic actually flips bottom-up
    // (exercising the range plan) on both graphs.
    const CsrGraph a = rmat_test_graph(9, 8192, 21);
    const CsrGraph b = rmat_test_graph(9, 8192, 22);

    BfsRunner runner(opts);
    BfsResult result;
    for (const CsrGraph* g : {&a, &b, &a}) {
        runner.run_into(result, *g, 1);
        BfsRunner fresh(opts);
        expect_equivalent(fresh.run(*g, 1), result);
        const ValidationReport report = validate_bfs_tree(*g, 1, result);
        EXPECT_TRUE(report.ok) << report.error;
    }
}

// ---------------------------------------------------------------------
// run_into buffer reuse.
// ---------------------------------------------------------------------

TEST(WorkspaceRunInto, ReusesResultBuffers) {
    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 2;
    opts.topology = Topology::emulate(1, 2, 1);
    const CsrGraph g = uniform_test_graph(1000, 5, 8);

    BfsRunner runner(opts);
    BfsResult result;
    runner.run_into(result, g, 0);
    const vertex_t* parent_ptr = result.parent.data();
    const level_t* level_ptr = result.level.data();
    for (vertex_t root = 1; root < 5; ++root) {
        runner.run_into(result, g, root);
        EXPECT_EQ(result.parent.data(), parent_ptr);
        EXPECT_EQ(result.level.data(), level_ptr);
    }
}

TEST(WorkspaceRunInto, PreparedQueriesAllocateNothing) {
    // Single-runner process, so the process-wide count sees only this
    // runner's workers: with the graph encoded up front and the first
    // query preparing the workspace, traversals allocate no
    // AlignedBuffer.
    const CsrGraph g = rmat_test_graph(10, 8192, 5);
    const CompressedCsrGraph z = csr_compress(g);
    const auto check = [](const auto& graph, const std::string& label) {
        for (const BfsEngine engine :
             {BfsEngine::kNaive, BfsEngine::kBitmap, BfsEngine::kMultiSocket,
              BfsEngine::kHybrid}) {
            SCOPED_TRACE(to_string(engine) + "/" + label);
            BfsOptions opts;
            opts.engine = engine;
            opts.threads = 4;
            opts.topology = Topology::emulate(2, 2, 1);
            BfsRunner runner(opts);
            BfsResult result;
            runner.run_into(result, graph, 0);
            const std::uint64_t before = aligned_alloc_count().load();
            for (vertex_t root = 1; root <= 8; ++root)
                runner.run_into(result, graph, root);
            EXPECT_EQ(aligned_alloc_count().load(), before);
        }
    };
    check(g, "plain");
    check(z, "compressed");
}

TEST(WorkspaceRunInto, SerialEngineWritesOutParam) {
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    const CsrGraph g = test::path_graph(32);
    BfsRunner runner(opts);
    BfsResult result;
    runner.run_into(result, g, 0);
    EXPECT_EQ(result.vertices_visited, 32u);
    runner.run_into(result, g, 31);
    EXPECT_EQ(result.level[0], 31u);
    // Serial runners never materialize a workspace.
    EXPECT_EQ(runner.workspace(), nullptr);
    EXPECT_EQ(runner.workspace_stats().prepares, 0u);
}

TEST(WorkspaceRunInto, CollectStatsStableAcrossReuse) {
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 4;
    opts.topology = Topology::emulate(2, 2, 1);
    opts.collect_stats = true;
    opts.batch_size = 8;
    const CsrGraph g = rmat_test_graph(8, 2048, 31);

    BfsRunner runner(opts);
    BfsResult result;
    std::vector<std::uint64_t> first_frontiers;
    for (int q = 0; q < 3; ++q) {
        runner.run_into(result, g, 2);
        ASSERT_EQ(result.level_stats.size(), result.num_levels);
        std::vector<std::uint64_t> frontiers;
        std::uint64_t wins = 0;
        for (const BfsLevelStats& s : result.level_stats) {
            frontiers.push_back(s.frontier_size);
            wins += s.atomic_wins;
        }
        if (obs::compiled_in()) {
            EXPECT_EQ(wins, result.vertices_visited - 1) << "query " << q;
        }
        if (q == 0)
            first_frontiers = frontiers;
        else
            EXPECT_EQ(frontiers, first_frontiers) << "query " << q;
    }
}

// ---------------------------------------------------------------------
// Analytics riding an external team / runner.
// ---------------------------------------------------------------------

TEST(WorkspaceAnalytics, ComponentsOnExternalTeam) {
    const CsrGraph g = uniform_test_graph(800, 3, 9);

    ParallelComponentsOptions owned;
    owned.threads = 4;
    owned.topology = Topology::emulate(1, 4, 1);
    const ComponentsResult expected = connected_components_parallel(g, owned);

    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    ParallelComponentsOptions external;
    external.team = &team;
    const ComponentsResult actual = connected_components_parallel(g, external);

    EXPECT_EQ(expected.component, actual.component);
    EXPECT_EQ(expected.sizes, actual.sizes);
}

TEST(WorkspaceAnalytics, BetweennessOnExternalTeam) {
    const CsrGraph g = rmat_test_graph(8, 2048, 10);

    BetweennessOptions owned;
    owned.threads = 4;
    owned.topology = Topology::emulate(1, 4, 1);
    owned.sample_sources = 16;
    const std::vector<double> expected = betweenness_centrality(g, owned);

    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    BetweennessOptions external = owned;
    external.team = &team;
    const std::vector<double> actual = betweenness_centrality(g, external);

    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
        EXPECT_DOUBLE_EQ(expected[v], actual[v]) << "vertex " << v;
}

TEST(WorkspaceAnalytics, DiameterThroughSharedRunner) {
    const CsrGraph g = uniform_test_graph(600, 4, 11);

    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    const DiameterEstimate expected = estimate_diameter(g, 0, opts);

    BfsRunner runner(opts);
    const DiameterEstimate actual = estimate_diameter(g, 0, runner);
    EXPECT_EQ(expected.lower_bound, actual.lower_bound);
    EXPECT_EQ(expected.upper_bound, actual.upper_bound);
    EXPECT_EQ(expected.sweeps, actual.sweeps);

    // The runner stays usable for direct queries afterwards.
    const BfsResult r = runner.run(g, 0);
    const ValidationReport report = validate_bfs_tree(g, 0, r);
    EXPECT_TRUE(report.ok) << report.error;
}

TEST(WorkspaceAnalytics, DiameterRejectsRunnerWithoutLevels) {
    const CsrGraph g = test::path_graph(16);
    BfsOptions opts;
    opts.compute_levels = false;
    BfsRunner runner(opts);
    EXPECT_THROW(estimate_diameter(g, 0, runner), std::invalid_argument);
}

// ---------------------------------------------------------------------
// MS-BFS on a shared team + workspace.
// ---------------------------------------------------------------------

TEST(WorkspaceMsBfs, SharedWorkspaceMatchesFresh) {
    const CsrGraph g = rmat_test_graph(8, 2048, 12);
    std::vector<vertex_t> sources;
    for (vertex_t s = 0; s < 8; ++s)
        sources.push_back(static_cast<vertex_t>(s * 7 % g.num_vertices()));
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

    using Key = std::pair<level_t, vertex_t>;
    const auto run = [&](const MsBfsOptions& opts) {
        std::vector<std::pair<Key, std::uint64_t>> visits;
        std::mutex mu;
        const std::uint32_t levels = multi_source_bfs(
            g, sources,
            [&](int, level_t level, vertex_t v, std::uint64_t mask) {
                const std::lock_guard<std::mutex> lock(mu);
                visits.emplace_back(Key{level, v}, mask);
            },
            opts);
        std::sort(visits.begin(), visits.end());
        return std::pair{levels, visits};
    };

    MsBfsOptions fresh;
    fresh.threads = 4;
    fresh.topology = Topology::emulate(1, 4, 1);
    const auto expected = run(fresh);

    // One team + workspace across three calls: all must match.
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    BfsWorkspace ws;
    MsBfsOptions shared;
    shared.team = &team;
    shared.workspace = &ws;
    for (int call = 0; call < 3; ++call) {
        const auto actual = run(shared);
        EXPECT_EQ(expected.first, actual.first) << "call " << call;
        EXPECT_EQ(expected.second, actual.second) << "call " << call;
    }
    EXPECT_EQ(ws.stats.prepares, 1u);
    EXPECT_EQ(ws.stats.workspace_reuses, 2u);
}

TEST(WorkspaceMsBfs, WorkspaceWithoutTeamThrows) {
    const CsrGraph g = test::path_graph(8);
    BfsWorkspace ws;
    MsBfsOptions opts;
    opts.workspace = &ws;
    const std::vector<vertex_t> sources{0};
    EXPECT_THROW(multi_source_bfs(
                     g, sources, [](int, level_t, vertex_t, std::uint64_t) {},
                     opts),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Sharing one runner's workspace with MS-BFS (the bfs.hpp accessors).
// ---------------------------------------------------------------------

TEST(WorkspaceSharing, RunnerWorkspaceServesMsBfs) {
    const CsrGraph g = rmat_test_graph(8, 2048, 13);
    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);

    BfsRunner runner(opts);
    BfsResult result;
    runner.run_into(result, g, 0);
    ASSERT_NE(runner.team(), nullptr);
    ASSERT_NE(runner.workspace(), nullptr);

    MsBfsOptions ms;
    ms.team = runner.team();
    ms.workspace = runner.workspace();
    std::vector<vertex_t> sources{0};
    std::atomic<std::uint64_t> visits{0};
    const std::uint32_t levels = multi_source_bfs(
        g, sources,
        [&](int, level_t, vertex_t, std::uint64_t) {
            visits.fetch_add(1, std::memory_order_relaxed);
        },
        ms);

    // Single-source MS-BFS agrees with the runner's own traversal.
    EXPECT_EQ(visits.load(), result.vertices_visited);
    EXPECT_EQ(levels, result.num_levels);

    // And the runner's BFS path still works after the MS-BFS interlude.
    runner.run_into(result, g, 5);
    BfsRunner fresh(opts);
    expect_equivalent(fresh.run(g, 5), result);
}

}  // namespace
}  // namespace sge
