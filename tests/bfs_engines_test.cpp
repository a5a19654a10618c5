#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/grid.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/ssca2.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using test::expect_equivalent;

// ---------------------------------------------------------------------
// Property sweep: every parallel engine x thread count x topology must
// produce a valid BFS tree with the same reachability and levels as the
// serial reference, on every graph family.
// ---------------------------------------------------------------------

struct EngineConfig {
    BfsEngine engine;
    int threads;
    Topology topology;
    bool double_check;
    const char* label;
};

std::string config_name(const ::testing::TestParamInfo<EngineConfig>& info) {
    return info.param.label;
}

class BfsEngineMatrix : public ::testing::TestWithParam<EngineConfig> {
  protected:
    BfsOptions options() const {
        const EngineConfig& cfg = GetParam();
        BfsOptions opts;
        opts.engine = cfg.engine;
        opts.threads = cfg.threads;
        opts.topology = cfg.topology;
        opts.bitmap_double_check = cfg.double_check;
        // Small batches/rings on purpose: exercise the flush and spill
        // paths that big defaults would hide.
        opts.batch_size = 8;
        opts.channel_capacity = 64;
        return opts;
    }

    void check_against_serial(const CsrGraph& g, vertex_t root) {
        BfsOptions serial;
        serial.engine = BfsEngine::kSerial;
        const BfsResult expected = bfs(g, root, serial);
        const BfsResult actual = bfs(g, root, options());
        expect_equivalent(expected, actual);
        const ValidationReport report = validate_bfs_tree(g, root, actual);
        EXPECT_TRUE(report.ok) << report.error;
    }
};

TEST_P(BfsEngineMatrix, PathGraph) { check_against_serial(test::path_graph(64), 0); }

TEST_P(BfsEngineMatrix, StarGraph) { check_against_serial(test::star_graph(257), 0); }

TEST_P(BfsEngineMatrix, CycleFromArbitraryRoot) {
    check_against_serial(test::cycle_graph(101), 37);
}

TEST_P(BfsEngineMatrix, DisconnectedCliques) {
    check_against_serial(test::two_cliques(13), 20);
}

TEST_P(BfsEngineMatrix, UniformRandomGraph) {
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 8;
    params.seed = 11;
    check_against_serial(csr_from_edges(generate_uniform(params)), 5);
}

TEST_P(BfsEngineMatrix, SparseUniformManyComponents) {
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 1;  // forest-like, many components
    params.seed = 3;
    check_against_serial(csr_from_edges(generate_uniform(params)), 100);
}

TEST_P(BfsEngineMatrix, RmatGraph) {
    RmatParams params;
    params.scale = 12;
    params.num_edges = 1 << 15;
    params.seed = 23;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 5);
    check_against_serial(csr_from_edges(edges), 9);
}

TEST_P(BfsEngineMatrix, GridGraph) {
    GridParams params;
    params.width = 64;
    params.height = 32;
    check_against_serial(csr_from_edges(generate_grid(params)), 0);
}

TEST_P(BfsEngineMatrix, Ssca2Graph) {
    Ssca2Params params;
    params.num_vertices = 3000;
    params.seed = 8;
    check_against_serial(csr_from_edges(generate_ssca2(params)), 1500);
}

TEST_P(BfsEngineMatrix, RootAtPartitionBoundary) {
    // Vertex n-1 lands on the last socket; exercises root ownership.
    UniformParams params;
    params.num_vertices = 1000;
    params.degree = 6;
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    check_against_serial(g, 999);
}

/// n = 1000: fifteen full 64-vertex words and a 40-vertex tail word.
/// Even words leave their bits 0 and 63 isolated, odd words bits 1 and
/// 62, and the tail word also its last vertex, so every word mixes
/// reached and unreached vertices, both kinds at its edges. The
/// vertices at bit 31 form a path of their own that root 5 never
/// reaches; the rest are one component.
CsrGraph mixed_words_graph() {
    constexpr vertex_t n = 1000;
    std::vector<vertex_t> reached;
    std::vector<vertex_t> apart;
    for (vertex_t v = 0; v + 1 < n; ++v) {
        const vertex_t bit = v % 64;
        if ((v / 64) % 2 == 0 ? bit == 0 || bit == 63 : bit == 1 || bit == 62)
            continue;
        (bit == 31 ? apart : reached).push_back(v);
    }
    EdgeList edges(n);
    for (std::size_t i = 0; i + 1 < apart.size(); ++i)
        edges.add(apart[i], apart[i + 1]);
    // A path through the component in shuffled order keeps it connected;
    // random chords cut its diameter.
    std::mt19937 rng(5);
    std::shuffle(reached.begin(), reached.end(), rng);
    for (std::size_t i = 0; i + 1 < reached.size(); ++i)
        edges.add(reached[i], reached[i + 1]);
    for (std::size_t i = 0; i < 2 * reached.size(); ++i)
        edges.add(reached[rng() % reached.size()],
                  reached[rng() % reached.size()]);
    return csr_from_edges(edges);
}

TEST_P(BfsEngineMatrix, SentinelsAtWordAndSliceEdges) {
    // The unreached fill sweeps 64-vertex words, clipped to each worker's
    // slice, which the partition and thread split cut mid-word. Every
    // slot starts poisoned, so a slot the fill skips keeps the poison and
    // one it overwrites loses its parent.
    const CsrGraph g = mixed_words_graph();
    const vertex_t n = g.num_vertices();
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult expected = bfs(g, 5, serial);
    ASSERT_LT(expected.vertices_visited, n);
    BfsRunner runner(options());
    BfsResult r;
    for (int run = 0; run < 2; ++run) {  // a fresh and a reused workspace
        r.parent.assign(n, n + 1);
        r.level.assign(n, n + 1);
        runner.run_into(r, g, 5);
        for (vertex_t v = 0; v < n && !HasFailure(); ++v) {
            const bool reached = expected.parent[v] != kInvalidVertex;
            if (reached ? r.parent[v] >= n : r.parent[v] != kInvalidVertex)
                ADD_FAILURE() << "parent of " << v << ": " << r.parent[v];
            if (r.level[v] != expected.level[v])
                ADD_FAILURE() << "level of " << v << ": " << r.level[v];
        }
        const ValidationReport report = validate_bfs_tree(g, 5, r);
        EXPECT_TRUE(report.ok) << report.error;
    }
}

TEST_P(BfsEngineMatrix, StatsAccounting) {
    UniformParams params;
    params.num_vertices = 2048;
    params.degree = 8;
    const CsrGraph g = csr_from_edges(generate_uniform(params));

    BfsOptions opts = options();
    opts.collect_stats = true;
    const BfsResult r = bfs(g, 0, opts);

    ASSERT_EQ(r.level_stats.size(), r.num_levels);
    std::uint64_t frontier_total = 0;
    std::uint64_t edges_total = 0;
    for (const BfsLevelStats& s : r.level_stats) {
        frontier_total += s.frontier_size;
        edges_total += s.edges_scanned;
        // Atomics can never exceed checks (double-check filters), and
        // every scanned edge produces exactly one check.
        EXPECT_LE(s.atomic_ops, s.bitmap_checks);
    }
    EXPECT_EQ(frontier_total, r.vertices_visited);
    double level_seconds = 0.0;
    for (const BfsLevelStats& s : r.level_stats) {
        EXPECT_GE(s.seconds, 0.0);
        level_seconds += s.seconds;
    }
    // Level times tile the traversal (allow slack for the epilogue work
    // outside any level window).
    EXPECT_LE(level_seconds, r.seconds * 1.5 + 1e-3);
    if (GetParam().engine == BfsEngine::kHybrid) {
        // The hybrid engine's per-level edges_scanned records the work
        // actually done, which bottom-up levels deliberately decouple
        // from the sum-of-degrees convention in edges_traversed.
        EXPECT_GT(edges_total, 0u);
    } else {
        EXPECT_EQ(edges_total, r.edges_traversed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BfsEngineMatrix,
    ::testing::Values(
        // Algorithm 1 baseline.
        EngineConfig{BfsEngine::kNaive, 4, Topology::emulate(1, 4, 1), true,
                     "naive_4t"},
        // Algorithm 2, single socket, with and without the double-check.
        EngineConfig{BfsEngine::kBitmap, 1, Topology::emulate(1, 1, 1), true,
                     "bitmap_1t"},
        EngineConfig{BfsEngine::kBitmap, 4, Topology::emulate(1, 4, 1), true,
                     "bitmap_4t"},
        EngineConfig{BfsEngine::kBitmap, 4, Topology::emulate(1, 4, 1), false,
                     "bitmap_4t_no_double_check"},
        EngineConfig{BfsEngine::kBitmap, 8, Topology::nehalem_ep(), true,
                     "bitmap_8t_ep"},
        // Algorithm 3 across emulated socket shapes.
        EngineConfig{BfsEngine::kMultiSocket, 2, Topology::emulate(2, 1, 1),
                     true, "multisocket_2s_2t"},
        EngineConfig{BfsEngine::kMultiSocket, 8, Topology::nehalem_ep(), true,
                     "multisocket_ep_8t"},
        EngineConfig{BfsEngine::kMultiSocket, 16, Topology::nehalem_ep(), true,
                     "multisocket_ep_16t_smt"},
        EngineConfig{BfsEngine::kMultiSocket, 16, Topology::nehalem_ex(), true,
                     "multisocket_ex_16t"},
        EngineConfig{BfsEngine::kMultiSocket, 64, Topology::nehalem_ex(), true,
                     "multisocket_ex_64t"},
        EngineConfig{BfsEngine::kMultiSocket, 8, Topology::nehalem_ep(), false,
                     "multisocket_ep_8t_no_double_check"},
        // Multi-socket engine degenerating to one socket must still work.
        EngineConfig{BfsEngine::kMultiSocket, 4, Topology::emulate(1, 4, 1),
                     true, "multisocket_single_socket"},
        EngineConfig{BfsEngine::kMultiSocket, 6, Topology::emulate(3, 2, 1),
                     true, "multisocket_3s_6t"},
        // Extension: direction-optimizing engine.
        EngineConfig{BfsEngine::kHybrid, 1, Topology::emulate(1, 1, 1), true,
                     "hybrid_1t"},
        EngineConfig{BfsEngine::kHybrid, 4, Topology::emulate(1, 4, 1), true,
                     "hybrid_4t"},
        EngineConfig{BfsEngine::kHybrid, 8, Topology::nehalem_ep(), true,
                     "hybrid_8t_ep"}),
    config_name);

// ---------------------------------------------------------------------
// Engine selection / runner behaviour.
// ---------------------------------------------------------------------

TEST(BfsRunner, AutoPicksSerialForOneThread) {
    BfsOptions opts;
    opts.threads = 1;
    opts.topology = Topology::emulate(2, 4, 1);
    EXPECT_EQ(BfsRunner(opts).resolved_engine(), BfsEngine::kSerial);
}

TEST(BfsRunner, AutoPicksHybridWithinOneSocket) {
    BfsOptions opts;
    opts.threads = 4;
    opts.topology = Topology::nehalem_ep();  // 4 threads fit socket 0
    EXPECT_EQ(BfsRunner(opts).resolved_engine(), BfsEngine::kHybrid);
}

TEST(BfsRunner, AutoPicksMultiSocketAcrossSockets) {
    BfsOptions opts;
    opts.threads = 8;
    opts.topology = Topology::nehalem_ep();
    EXPECT_EQ(BfsRunner(opts).resolved_engine(), BfsEngine::kMultiSocket);
}

TEST(BfsRunner, ZeroThreadsMeansAllOfTopology) {
    BfsOptions opts;
    opts.topology = Topology::emulate(2, 2, 2);
    BfsRunner runner(opts);
    EXPECT_EQ(runner.threads(), 8);
}

TEST(BfsRunner, NegativeThreadsRejected) {
    BfsOptions opts;
    opts.threads = -1;
    EXPECT_THROW(BfsRunner{opts}, std::invalid_argument);
}

TEST(BfsRunner, ReusableAcrossGraphsAndRoots) {
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 4;
    opts.topology = Topology::emulate(2, 2, 1);
    BfsRunner runner(opts);

    const CsrGraph a = test::path_graph(50);
    const CsrGraph b = test::star_graph(50);
    for (const vertex_t root : {0u, 10u, 49u}) {
        const BfsResult ra = runner.run(a, root);
        EXPECT_TRUE(validate_bfs_tree(a, root, ra).ok);
        const BfsResult rb = runner.run(b, root);
        EXPECT_TRUE(validate_bfs_tree(b, root, rb).ok);
    }
}

TEST(BfsRunner, EngineNamesRoundTrip) {
    EXPECT_EQ(to_string(BfsEngine::kSerial), "serial");
    EXPECT_EQ(to_string(BfsEngine::kNaive), "naive");
    EXPECT_EQ(to_string(BfsEngine::kBitmap), "bitmap");
    EXPECT_EQ(to_string(BfsEngine::kMultiSocket), "multisocket");
    EXPECT_EQ(to_string(BfsEngine::kAuto), "auto");
}

// Determinism of *results* (not trees): repeated runs of a parallel
// engine must agree on reachability and levels.
TEST(BfsDeterminism, RepeatedRunsAgreeOnLevels) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    const CsrGraph g = csr_from_edges(generate_rmat(params));

    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 8;
    opts.topology = Topology::nehalem_ep();
    BfsRunner runner(opts);

    const BfsResult first = runner.run(g, 3);
    for (int i = 0; i < 3; ++i) {
        const BfsResult again = runner.run(g, 3);
        expect_equivalent(first, again);
    }
}

}  // namespace
}  // namespace sge
