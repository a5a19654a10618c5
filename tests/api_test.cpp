// Compiles the umbrella header and exercises cross-module flows that no
// single-module test covers: partitioner -> multi-socket BFS, stream ->
// snapshot -> analytics, reorder -> weighted search.

#include "sge.hpp"  // the whole public API in one include

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace sge {
namespace {

TEST(Api, PartitionerFeedsMultiSocket) {
    // Grow a partition and relabel so parts are contiguous: Algorithm 3's
    // socket blocks then follow the graph's locality, and its channel
    // traffic must drop versus raw labels.
    GridParams grid;
    grid.width = 48;
    grid.height = 48;
    EdgeList edges = generate_grid(grid);
    permute_vertices(edges, 21);
    const CsrGraph raw = csr_from_edges(edges);

    const PartitionAssignment grown = bfs_grow_partition(raw, 4, 3);
    const CsrGraph relabeled =
        apply_vertex_permutation(raw, partition_order(grown));

    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 4;
    opts.topology = Topology::emulate(4, 1, 1);
    opts.collect_stats = true;

    const auto tuples = [&](const CsrGraph& g) {
        const BfsResult r = bfs(g, 0, opts);
        EXPECT_EQ(r.vertices_visited, g.num_vertices());
        std::uint64_t total = 0;
        for (const auto& s : r.level_stats) total += s.remote_tuples;
        // Every arc is scanned once, and each one that crosses the
        // engine's socket blocks ships exactly one tuple.
        const PartitionAssignment blocks =
            block_partition(g.num_vertices(), 4);
        EXPECT_EQ(total,
                  evaluate_partition(g, blocks.part, blocks.parts).cut_arcs);
        return total;
    };
    EXPECT_LT(tuples(relabeled), tuples(raw) / 4);
}

TEST(Api, StreamSnapshotRunsFullAnalyticsStack) {
    // Ingest a stream through the store, pin its snapshot, and push it
    // through several analytics in sequence — the intended "query the
    // current state" path.
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    const EdgeList stream = generate_rmat(params);

    VersionedGraphStore store(1u << 11);
    MutationBatch batch;
    for (const Edge& e : stream)
        if (e.src != e.dst) batch.insert(e.src, e.dst);
    store.apply(batch);
    const SnapshotRef pin = store.acquire();
    const CsrGraph& snapshot = pin.graph();

    const ComponentsResult cc = connected_components(snapshot);
    EXPECT_GT(cc.largest_size(), 0u);

    BfsOptions bfs_opts;
    bfs_opts.engine = BfsEngine::kHybrid;
    bfs_opts.threads = 2;
    bfs_opts.topology = Topology::emulate(1, 2, 1);
    vertex_t root = 0;
    while (snapshot.degree(root) == 0) ++root;
    const BfsResult r = bfs(snapshot, root, bfs_opts);
    EXPECT_TRUE(validate_bfs_tree(snapshot, root, r).ok);

    const KcoreResult kc = kcore_decomposition(snapshot);
    EXPECT_GT(kc.degeneracy, 0u);
    const TriangleCounts tc = count_triangles(snapshot);
    EXPECT_GE(tc.global_clustering(snapshot), 0.0);
}

TEST(Api, ReorderedWeightedGraphKeepsDistancesUnderRelabel) {
    UniformParams params;
    params.num_vertices = 800;
    params.degree = 5;
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    const auto perm = degree_descending_order(g);
    const CsrGraph h = apply_vertex_permutation(g, perm);

    // Weights hash unordered *ids*, so weight the graphs independently
    // and only compare structure-level facts: reachability counts.
    const WeightedCsrGraph wg = with_random_weights(
        csr_from_edges(edges_from_csr(g),
                       {.make_undirected = false, .remove_self_loops = false,
                        .deduplicate = false}),
        1, 9, 5);
    const SsspResult a = dijkstra(wg, 0);

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult rb = bfs(h, perm[0], serial);
    EXPECT_EQ(a.vertices_settled, rb.vertices_visited);
}

TEST(Api, EffectiveDiameterAndDoubleSweepAgree) {
    SmallWorldParams params;
    params.num_vertices = 3000;
    params.mean_degree = 8;
    params.rewire_probability = 0.05;
    const CsrGraph g = csr_from_edges(generate_small_world(params));

    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    const DiameterEstimate sweep = estimate_diameter(g, 0, opts);

    NeighborhoodOptions nopts;
    nopts.sample_sources = 64;
    const NeighborhoodFunction nf = approximate_neighborhood_function(g, nopts);
    // Effective (90th percentile) diameter can never exceed the true
    // upper bound, and the certified lower bound caps how small the
    // hop range can be.
    EXPECT_LE(nf.effective_diameter(), sweep.upper_bound);
    EXPECT_GE(sweep.lower_bound, static_cast<std::uint32_t>(
                                     nf.effective_diameter() / 2.0));
}

}  // namespace
}  // namespace sge
