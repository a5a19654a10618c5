// Deliberately hostile engine configurations: worst-case knob settings
// that the default-sized tests would never hit.

#include <gtest/gtest.h>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using test::expect_equivalent;

BfsResult serial_reference(const CsrGraph& g, vertex_t root) {
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    return bfs(g, root, opts);
}

TEST(EngineEdgeCases, MinimalChannelForcesMassiveSpill) {
    // Ring of 2 entries under a 64-thread 4-socket run: essentially all
    // remote traffic takes the spill path.
    UniformParams params;
    params.num_vertices = 4000;
    params.degree = 8;
    const CsrGraph g = csr_from_edges(generate_uniform(params));

    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 64;
    opts.topology = Topology::nehalem_ex();
    opts.channel_capacity = 2;
    opts.batch_size = 3;
    const BfsResult r = bfs(g, 0, opts);
    expect_equivalent(serial_reference(g, 0), r);
}

TEST(EngineEdgeCases, BatchLargerThanGraph) {
    const CsrGraph g = test::cycle_graph(50);
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 4;
    opts.topology = Topology::emulate(2, 2, 1);
    opts.batch_size = 1 << 20;
    expect_equivalent(serial_reference(g, 0), bfs(g, 0, opts));
}

TEST(EngineEdgeCases, BatchOfOne) {
    RmatParams params;
    params.scale = 10;
    params.num_edges = 8192;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    for (const BfsEngine engine :
         {BfsEngine::kBitmap, BfsEngine::kMultiSocket, BfsEngine::kHybrid}) {
        BfsOptions opts;
        opts.engine = engine;
        opts.threads = 3;
        opts.topology = Topology::emulate(3, 1, 1);
        opts.batch_size = 1;
        expect_equivalent(serial_reference(g, 5), bfs(g, 5, opts));
    }
}

TEST(EngineEdgeCases, ManyMoreThreadsThanWork) {
    // 64 workers, 10-vertex graph: most threads find nothing to do at
    // every level and must still synchronize correctly.
    const CsrGraph g = test::path_graph(10);
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 64;
    opts.topology = Topology::nehalem_ex();
    expect_equivalent(serial_reference(g, 0), bfs(g, 0, opts));
}

TEST(EngineEdgeCases, TwoVertexGraph) {
    EdgeList edges(2);
    edges.add(0, 1);
    const CsrGraph g = csr_from_edges(edges);
    for (const BfsEngine engine :
         {BfsEngine::kNaive, BfsEngine::kBitmap, BfsEngine::kMultiSocket,
          BfsEngine::kHybrid}) {
        BfsOptions opts;
        opts.engine = engine;
        opts.threads = 2;
        opts.topology = Topology::emulate(2, 1, 1);
        const BfsResult r = bfs(g, 1, opts);
        EXPECT_EQ(r.vertices_visited, 2u) << to_string(engine);
        EXPECT_EQ(r.level[0], 1u) << to_string(engine);
    }
}

TEST(EngineEdgeCases, StarFromHubWithSingleFatLevel) {
    // One level of n-1 simultaneous discoveries: maximal contention on
    // the next-queue cursor and channels.
    const CsrGraph g = test::star_graph(20000);
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 8;
    opts.topology = Topology::nehalem_ep();
    opts.batch_size = 7;  // non-power-of-two
    const BfsResult r = bfs(g, 0, opts);
    expect_equivalent(serial_reference(g, 0), r);
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
}

TEST(EngineEdgeCases, RemoteFilterEquivalence) {
    UniformParams params;
    params.num_vertices = 3000;
    params.degree = 10;
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    const BfsResult expected = serial_reference(g, 2);
    for (const bool filter : {false, true}) {
        BfsOptions opts;
        opts.engine = BfsEngine::kMultiSocket;
        opts.threads = 6;
        opts.topology = Topology::emulate(3, 2, 1);
        opts.remote_sender_filter = filter;
        expect_equivalent(expected, bfs(g, 2, opts));
    }
}

TEST(EngineEdgeCases, HybridOnStarFlipsAndRecovers) {
    // Star from a leaf: level 1 is the hub alone, level 2 is everyone —
    // the flip happens on a frontier of size 1 -> guard must hold —
    // then the explosion may flip bottom-up and immediately terminate.
    const CsrGraph g = test::star_graph(5000);
    BfsOptions opts;
    opts.engine = BfsEngine::kHybrid;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    const BfsResult r = bfs(g, 17, opts);
    expect_equivalent(serial_reference(g, 17), r);
}

TEST(EngineEdgeCases, SmtOversubscribedEpModel) {
    // All 16 EP threads (SMT layer included) on whatever CPUs exist.
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    const CsrGraph g = csr_from_edges(generate_rmat(params));
    BfsOptions opts;
    opts.threads = 16;
    opts.topology = Topology::nehalem_ep();
    // kAuto must select the multi-socket engine here.
    BfsRunner runner(opts);
    EXPECT_EQ(runner.resolved_engine(), BfsEngine::kMultiSocket);
    expect_equivalent(serial_reference(g, 0), runner.run(g, 0));
}

}  // namespace
}  // namespace sge
