#include <gtest/gtest.h>

#include <string>

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

/// Root 0 touches kHubs hubs, each adjacent to every leaf, plus the head
/// of a long path. The root's frontier is kHubs + 1 vertices — far under
/// n/beta — but holds about half of all arcs, far over m/beta.
constexpr vertex_t kHubs = 8;
CsrGraph hubs_next_to_root() {
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
    return csr_from_edges(edges);
}

TEST(BfsHybrid, FewHubsNextToTheRootFlipOnTheirArcs) {
    // A vertex-width guard keeps the root's level top-down and pays every
    // hub arc; the arc guard flips it, and each leaf then finds hub 1 on
    // its first arc. (The path keeps a vertex guard's scans above half of
    // bitmap's, so this test separates the two guards.)
    const CsrGraph g = hubs_next_to_root();
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

/// The direction each level of `r` ran, read off its edges_scanned: 'T'
/// when it scanned every arc of its frontier (top-down), 'B' when it
/// scanned each still-unvisited vertex's arcs up to the first frontier
/// neighbour (bottom-up), '?' for neither, as when a level rescanned
/// vertices of an earlier frontier.
std::string directions(const CsrGraph& g, const BfsResult& r) {
    std::string dirs;
    for (level_t d = 0; d < r.level_stats.size(); ++d) {
        std::uint64_t top_down = 0;
        std::uint64_t bottom_up = 0;
        for (vertex_t v = 0; v < g.num_vertices(); ++v) {
            if (r.level[v] == d) top_down += g.degree(v);
            if (r.level[v] <= d) continue;  // unreached reads kInvalidLevel
            for (const vertex_t w : g.neighbors(v)) {
                ++bottom_up;
                if (r.level[w] == d) break;
            }
        }
        const std::uint64_t scanned = r.level_stats[d].edges_scanned;
        dirs += scanned == top_down ? 'T' : scanned == bottom_up ? 'B' : '?';
    }
    return dirs;
}

/// Two 64-cliques strung on paths. The root sees all of the first
/// clique and the last of three path vertices all of the second, so
/// each clique is one frontier holding most arcs: it flips bottom-up for
/// one level, which finds the next path vertex and compacts it into the
/// queue the top-down level after it scans. The second clique lands on
/// level 5, so the traversal goes bottom-up a second time.
CsrGraph cliques_on_a_path() {
    constexpr vertex_t kClique = 64;
    constexpr vertex_t kPath = 3;
    constexpr vertex_t kTail = 8;
    EdgeList edges(1 + 2 * kClique + kPath + kTail);
    vertex_t next = 1;
    const auto clique = [&](vertex_t hub) {  // returns its first member
        const vertex_t first = next;
        next += kClique;
        for (vertex_t a = first; a < next; ++a) {
            edges.add(hub, a);
            for (vertex_t b = a + 1; b < next; ++b) edges.add(a, b);
        }
        return first;
    };
    const auto path = [&](vertex_t from, vertex_t length) {  // returns its end
        for (vertex_t i = 0; i < length; ++i, from = next++)
            edges.add(from, next);
        return from;
    };
    path(clique(path(clique(0), kPath)), kTail);
    return csr_from_edges(edges);
}

TEST(BfsHybrid, ABitmapWrittenEarlierInTheQueryIsClearWhenReused) {
    // The visited bitmap serves every level of one query, and the
    // bottom-up levels find their frontier in it. A level that took a
    // vertex discovered earlier in the same level for a frontier parent,
    // or that rescanned an earlier frontier, shows as a '?' level. Two
    // ways to reuse the bitmap: two bottom-up levels in a row (the
    // R-MAT's middle), and a return to bottom-up after top-down levels
    // (the second clique). Either way each discovery lands in a next
    // queue exactly once.
    RmatParams params;
    params.scale = 12;
    params.num_edges = std::uint64_t{1} << 16;
    params.seed = 3;
    const CsrGraph rmat = csr_from_edges(generate_rmat(params));
    const CsrGraph cliques = cliques_on_a_path();
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    vertex_t hub = 0;
    for (vertex_t v = 1; v < rmat.num_vertices(); ++v)
        if (rmat.degree(v) > rmat.degree(hub)) hub = v;
    struct Case {
        const CsrGraph* g;
        vertex_t root;
        const char* pattern;
    };
    for (const auto& [g, root, pattern] :
         {Case{&rmat, hub, "BBT"}, Case{&cliques, 0, "BT"}}) {
        const BfsResult r = bfs(*g, root, hybrid_options());
        const BfsResult expected = bfs(*g, root, serial);
        EXPECT_EQ(r.level, expected.level);
        test::expect_equivalent(expected, r);
        const std::string dirs = directions(*g, r);
        SCOPED_TRACE(dirs);
        EXPECT_EQ(dirs.find('?'), std::string::npos);
        std::uint64_t writes = 0;
        for (const BfsLevelStats& s : r.level_stats) writes += s.compact_writes;
        EXPECT_EQ(writes, r.vertices_visited - 1);
        const std::size_t first = dirs.find(pattern);
        ASSERT_NE(first, std::string::npos);
        if (g == &cliques) {  // bottom-up again after top-down levels
            EXPECT_NE(dirs.find(pattern, first + 2), std::string::npos);
        }
    }
}

TEST(BfsHybrid, BitmapNeverGoesBottomUp) {
    // kBitmap is the hybrid step with flips off: on the stamped hub graph,
    // where kHybrid flips after the root's level, Algorithm 2 still scans
    // every arc of the (connected) graph exactly once.
    const CsrGraph g = hubs_next_to_root();
    ASSERT_TRUE(g.symmetric());
    BfsOptions bitmap = hybrid_options();
    bitmap.engine = BfsEngine::kBitmap;
    const BfsResult top_down = bfs(g, 0, bitmap);
    EXPECT_EQ(total_scanned(top_down), g.num_edges());
    EXPECT_LT(total_scanned(bfs(g, 0, hybrid_options())), g.num_edges());
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    test::expect_equivalent(bfs(g, 0, serial), top_down);
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

TEST(BfsHybrid, BottomUpLevelsIssueNoLockedRmw) {
    // A stamped R-MAT whose n is not a multiple of 64, so the last claim
    // ends inside a word. Bottom-up claims own whole cache lines of the
    // bitmaps and publish with plain stores: those levels report no
    // atomic_ops, yet every discovery still counts one win.
    RmatParams params;
    params.scale = 13;
    params.num_edges = std::uint64_t{1} << 16;
    params.seed = 9;
    const vertex_t n = (vertex_t{1} << params.scale) - 37;
    EdgeList edges(n);
    for (const Edge& e : generate_rmat(params))
        if (e.src < n && e.dst < n) edges.add(e.src, e.dst);
    const CsrGraph g = csr_from_edges(edges);
    ASSERT_TRUE(g.symmetric());
    ASSERT_NE(n % 64, 0u);
    vertex_t root = 0;
    for (vertex_t v = 1; v < n; ++v)
        if (g.degree(v) > g.degree(root)) root = v;
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult expected = bfs(g, root, serial);

    struct Team {
        int threads;
        Topology topology;
    };
    for (const Team& team : {Team{3, Topology::emulate(1, 3, 1)},
                             Team{4, Topology::emulate(2, 2, 1)}}) {
        for (int backend = 0; backend < test::kBackends; ++backend) {
            SCOPED_TRACE(std::to_string(team.threads) + " threads, " +
                         test::kBackendNames[backend]);
            BfsOptions opts = hybrid_options(team.threads);
            opts.topology = team.topology;
            const BfsResult r = test::with_backend(
                backend, g, [&](const auto& graph) {
                    return bfs(graph, root, opts);
                });
            EXPECT_EQ(r.level, expected.level);
            std::uint64_t wins = 0;
            std::size_t bottom_up = 0;
            for (const BfsLevelStats& s : r.level_stats) {
                wins += s.atomic_wins;
                if (s.simd_words_scanned == 0) continue;  // top-down
                ++bottom_up;
                EXPECT_EQ(s.atomic_ops, 0u);
            }
            EXPECT_GT(bottom_up, 0u);
            EXPECT_EQ(wins, r.vertices_visited - 1);
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
    // Every level from 1 on runs bottom-up, and a bottom-up vertex takes
    // the first neighbour in its row that `visited` held when the level
    // began. So a vertex at level l >= 2 must have the first neighbour of
    // its row at level l - 1 as its parent: a hunt that saw a vertex
    // discovered in its own level would pick a neighbour at level l.
    const CsrGraph g = dense_uniform();
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult expected = bfs(g, 0, serial);
    for (const int threads : {1, 4}) {
        for (int backend = 0; backend < test::kBackends; ++backend) {
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         test::kBackendNames[backend]);
            BfsOptions opts = hybrid_options(threads);
            opts.hybrid_alpha = 1e18;  // flip to bottom-up immediately
            opts.hybrid_beta = 1e18;   // and never back (n/beta -> 0)
            const BfsResult r = test::with_backend(
                backend, g, [&](const auto& graph) {
                    return bfs(graph, 0, opts);
                });
            EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
            test::expect_equivalent(expected, r);
            for (std::size_t d = 0; d < r.level_stats.size(); ++d)
                EXPECT_EQ(r.level_stats[d].simd_words_scanned != 0, d >= 1)
                    << "level " << d;
            for (vertex_t v = 0; v < g.num_vertices(); ++v) {
                const level_t l = r.level[v];
                if (l == kInvalidLevel || l < 2) continue;
                vertex_t first = kInvalidVertex;
                for (const vertex_t w : g.neighbors(v)) {
                    if (r.level[w] == l - 1) {
                        first = w;
                        break;
                    }
                }
                ASSERT_EQ(r.parent[v], first) << "vertex " << v;
            }
        }
    }
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
