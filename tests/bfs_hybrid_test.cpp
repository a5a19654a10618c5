#include <gtest/gtest.h>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

std::uint64_t total_scanned(const BfsResult& r) {
    std::uint64_t total = 0;
    for (const auto& s : r.level_stats) total += s.edges_scanned;
    return total;
}

CsrGraph dense_uniform() {
    UniformParams params;
    params.num_vertices = 8192;
    params.degree = 16;
    params.seed = 4;
    return csr_from_edges(generate_uniform(params));
}

BfsOptions hybrid_options(int threads = 4) {
    BfsOptions opts;
    opts.engine = BfsEngine::kHybrid;
    opts.threads = threads;
    opts.topology = Topology::emulate(1, threads, 1);
    opts.collect_stats = true;
    return opts;
}

TEST(BfsHybrid, BottomUpSkipsMostEdgeWork) {
    // On a dense low-diameter graph the explosive middle levels run
    // bottom-up and stop at the first frontier parent: total scanned
    // edges must come out well below the top-down engine's (which scans
    // every edge of every visited vertex).
    const CsrGraph g = dense_uniform();

    BfsOptions bitmap = hybrid_options();
    bitmap.engine = BfsEngine::kBitmap;
    const BfsResult top_down = bfs(g, 0, bitmap);

    const BfsResult hybrid = bfs(g, 0, hybrid_options());
    EXPECT_TRUE(validate_bfs_tree(g, 0, hybrid).ok);
    EXPECT_EQ(hybrid.vertices_visited, top_down.vertices_visited);
    EXPECT_LT(total_scanned(hybrid), total_scanned(top_down) / 2)
        << "direction optimization saved no work";
    // The rate convention stays comparable.
    EXPECT_EQ(hybrid.edges_traversed, top_down.edges_traversed);
}

TEST(BfsHybrid, TinyAlphaDegeneratesToTopDown) {
    // The flip condition is next_frontier_degree > unexplored/alpha, so
    // alpha -> 0 drives the threshold to infinity: pure top-down.
    const CsrGraph g = dense_uniform();
    BfsOptions opts = hybrid_options();
    opts.hybrid_alpha = 1e-18;
    const BfsResult r = bfs(g, 0, opts);

    BfsOptions bitmap = hybrid_options();
    bitmap.engine = BfsEngine::kBitmap;
    const BfsResult top_down = bfs(g, 0, bitmap);

    EXPECT_EQ(total_scanned(r), total_scanned(top_down));
    test::expect_equivalent(top_down, r);
}

TEST(BfsHybrid, HighDiameterGraphStaysTopDown) {
    // A path's frontier is one vertex wide — below the n/beta width
    // guard — so the traversal never leaves top-down and scans each arc
    // exactly once. (Without the guard, the drained unexplored-edge
    // pool would trigger useless O(n) bottom-up sweeps near the tail.)
    const CsrGraph g = test::path_graph(2000);
    const BfsResult r = bfs(g, 0, hybrid_options());
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
    EXPECT_EQ(r.num_levels, 2000u);
    EXPECT_EQ(total_scanned(r), 2u * 1999);
}

TEST(BfsHybrid, FewHubsNextToTheRootFlipOnTheirArcs) {
    // Root 0 touches kHubs hubs, each adjacent to every leaf, plus the
    // head of a long path. The root's frontier is kHubs + 1 vertices —
    // far under n/beta — but holds about half of all arcs, far over
    // m/beta. A vertex-width guard keeps that level top-down and pays
    // every hub arc; the arc guard flips it, and each leaf then finds
    // hub 1 on its first arc. (The path keeps a vertex guard's scans
    // above half of bitmap's, so this test separates the two guards.)
    constexpr vertex_t kHubs = 8;
    constexpr vertex_t kLeaves = 4000;
    constexpr vertex_t kPath = 2000;
    const vertex_t first_leaf = 1 + kHubs;
    const vertex_t first_path = first_leaf + kLeaves;
    EdgeList edges(first_path + kPath);
    for (vertex_t h = 1; h <= kHubs; ++h) {
        edges.add(0, h);
        for (vertex_t l = first_leaf; l < first_path; ++l) edges.add(h, l);
    }
    edges.add(0, first_path);
    for (vertex_t p = first_path; p + 1 < first_path + kPath; ++p)
        edges.add(p, p + 1);
    const CsrGraph g = csr_from_edges(edges);

    const BfsOptions opts = hybrid_options();
    ASSERT_LT(kHubs + 1, g.num_vertices() / opts.hybrid_beta);
    ASSERT_GT(g.degree(1) * kHubs, g.num_edges() / opts.hybrid_beta);

    BfsOptions bitmap = opts;
    bitmap.engine = BfsEngine::kBitmap;
    const BfsResult top_down = bfs(g, 0, bitmap);
    const BfsResult hybrid = bfs(g, 0, opts);
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    test::expect_equivalent(bfs(g, 0, serial), hybrid);
    EXPECT_LT(total_scanned(hybrid), total_scanned(top_down) / 2);
}

TEST(BfsHybrid, DirectedGraphsNeverGoBottomUp) {
    // Bottom-up reads out-arcs as in-arcs, which is wrong on a directed
    // graph; an unstamped graph must run every level top-down, so both
    // hybrid and kAuto (hybrid on one socket) scan exactly bitmap's arcs
    // and reach serial's levels.
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    BfsOptions bitmap = hybrid_options(2);
    bitmap.engine = BfsEngine::kBitmap;
    BfsOptions automatic = hybrid_options(2);
    automatic.engine = BfsEngine::kAuto;
    ASSERT_EQ(BfsRunner(automatic).resolved_engine(), BfsEngine::kHybrid);

    BuildOptions directed;
    directed.make_undirected = false;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RmatParams params;
        params.scale = 14;
        params.num_edges = std::uint64_t{16} << params.scale;
        params.seed = seed;
        const CsrGraph g = csr_from_edges(generate_rmat(params), directed);
        ASSERT_FALSE(g.symmetric());
        vertex_t root = 0;
        for (vertex_t v = 1; v < g.num_vertices(); ++v)
            if (g.degree(v) > g.degree(root)) root = v;

        const BfsResult expected = bfs(g, root, serial);
        const std::uint64_t top_down = total_scanned(bfs(g, root, bitmap));
        for (const BfsOptions& opts : {hybrid_options(2), automatic}) {
            const BfsResult r = bfs(g, root, opts);
            test::expect_equivalent(expected, r);
            EXPECT_EQ(total_scanned(r), top_down) << "seed " << seed;
        }
    }
}

TEST(BfsHybrid, TinyAlphaOnPathScansEachArcOnce) {
    const CsrGraph g = test::path_graph(2000);
    BfsOptions opts = hybrid_options();
    opts.hybrid_alpha = 1e-18;  // pin top-down
    const BfsResult r = bfs(g, 0, opts);
    EXPECT_EQ(total_scanned(r), 2u * 1999);
}

TEST(BfsHybrid, AggressiveAlphaStillCorrect) {
    const CsrGraph g = dense_uniform();
    BfsOptions opts = hybrid_options();
    opts.hybrid_alpha = 1e18;  // flip to bottom-up immediately
    opts.hybrid_beta = 1e18;   // and never flip back (threshold n/beta -> 0)
    const BfsResult r = bfs(g, 0, opts);
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    test::expect_equivalent(bfs(g, 0, serial), r);
}

TEST(BfsHybrid, RmatFromHubAndFromLeaf) {
    RmatParams params;
    params.scale = 13;
    params.num_edges = 1 << 17;
    params.seed = 6;
    const CsrGraph g = csr_from_edges(generate_rmat(params));

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;

    // Hub-ish root (id 0 pre-permutation is the heaviest quadrant) and
    // an arbitrary low-degree root.
    for (const vertex_t root : {vertex_t{0}, vertex_t{4099}}) {
        if (g.degree(root) == 0) continue;
        const BfsResult r = bfs(g, root, hybrid_options(8));
        EXPECT_TRUE(validate_bfs_tree(g, root, r).ok);
        test::expect_equivalent(bfs(g, root, serial), r);
    }
}

TEST(BfsHybrid, DisconnectedGraph) {
    const CsrGraph g = test::two_cliques(32);
    const BfsResult r = bfs(g, 5, hybrid_options());
    EXPECT_EQ(r.vertices_visited, 32u);
    EXPECT_TRUE(validate_bfs_tree(g, 5, r).ok);
}

TEST(BfsHybrid, RepeatedRunsAgree) {
    const CsrGraph g = dense_uniform();
    BfsRunner runner(hybrid_options(8));
    const BfsResult first = runner.run(g, 9);
    for (int i = 0; i < 3; ++i)
        test::expect_equivalent(first, runner.run(g, 9));
}

}  // namespace
}  // namespace sge
