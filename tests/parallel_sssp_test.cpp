#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analytics/parallel_sssp.hpp"
#include "gen/rmat.hpp"
#include "gen/small_world.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

void expect_distances_match(const SsspResult& expected, const SsspResult& actual) {
    ASSERT_EQ(expected.distance.size(), actual.distance.size());
    for (vertex_t v = 0; v < expected.distance.size(); ++v)
        ASSERT_EQ(expected.distance[v], actual.distance[v]) << "vertex " << v;
    EXPECT_EQ(expected.vertices_settled, actual.vertices_settled);
}

void expect_valid_tree(const WeightedCsrGraph& g, vertex_t source,
                       const SsspResult& r) {
    EXPECT_EQ(r.parent[source], source);
    EXPECT_EQ(r.distance[source], 0u);
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        if (v == source) continue;
        if (r.distance[v] == kInfiniteDistance) {
            ASSERT_EQ(r.parent[v], kInvalidVertex) << v;
            continue;
        }
        const vertex_t p = r.parent[v];
        ASSERT_NE(p, kInvalidVertex) << v;
        // The tree edge must realise the distance.
        const auto adj = g.neighbors(p);
        const auto w = g.weights(p);
        bool found = false;
        for (std::size_t e = 0; e < adj.size(); ++e)
            if (adj[e] == v && r.distance[p] + w[e] == r.distance[v])
                found = true;
        ASSERT_TRUE(found) << "tree edge (" << p << ", " << v << ")";
    }
}

// Matrix: (threads, sockets, delta) against the Dijkstra oracle.
class ParallelSsspMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, weight_t>> {};

TEST_P(ParallelSsspMatrix, MatchesDijkstraOnUniform) {
    const auto [threads, sockets, delta] = GetParam();
    UniformParams params;
    params.num_vertices = 3000;
    params.degree = 6;
    params.seed = 5;
    const WeightedCsrGraph g = with_random_weights(
        csr_from_edges(generate_uniform(params)), 1, 40, 11);

    const SsspResult expected = dijkstra(g, 7);

    ParallelSsspOptions opts;
    opts.threads = threads;
    opts.topology = Topology::emulate(sockets, std::max(threads / sockets, 1), 1);
    opts.delta = delta;
    const SsspResult actual = parallel_delta_stepping(g, 7, opts);
    expect_distances_match(expected, actual);
    expect_valid_tree(g, 7, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelSsspMatrix,
    ::testing::Values(std::make_tuple(1, 1, weight_t{0}),
                      std::make_tuple(2, 1, weight_t{0}),
                      std::make_tuple(4, 2, weight_t{0}),
                      std::make_tuple(8, 4, weight_t{0}),
                      std::make_tuple(4, 1, weight_t{1}),
                      std::make_tuple(4, 1, weight_t{5}),
                      std::make_tuple(4, 1, weight_t{1000})),
    [](const auto& info) {
        // Appended to one string: GCC 12's -Werror=restrict trips on the
        // temporaries of a chained operator+ here.
        std::string name = "t";
        name += std::to_string(std::get<0>(info.param));
        name += "_s";
        name += std::to_string(std::get<1>(info.param));
        name += "_d";
        name += std::to_string(std::get<2>(info.param));
        return name;
    });

TEST(ParallelSssp, RmatHeavyTail) {
    RmatParams params;
    params.scale = 12;
    params.num_edges = 1 << 15;
    const WeightedCsrGraph g = with_random_weights(
        csr_from_edges(generate_rmat(params)), 1, 200, 3);

    ParallelSsspOptions opts;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    expect_distances_match(dijkstra(g, 0), parallel_delta_stepping(g, 0, opts));
}

TEST(ParallelSssp, SmallWorldWithUnitWeights) {
    SmallWorldParams params;
    params.num_vertices = 4000;
    params.mean_degree = 6;
    params.rewire_probability = 0.1;
    const WeightedCsrGraph g = with_random_weights(
        csr_from_edges(generate_small_world(params)), 1, 1, 2);

    ParallelSsspOptions opts;
    opts.threads = 3;
    opts.topology = Topology::emulate(1, 3, 1);
    const SsspResult actual = parallel_delta_stepping(g, 100, opts);
    expect_distances_match(dijkstra(g, 100), actual);
}

TEST(ParallelSssp, DisconnectedGraph) {
    const WeightedCsrGraph g =
        with_random_weights(test::two_cliques(5), 1, 9, 4);
    ParallelSsspOptions opts;
    opts.threads = 2;
    opts.topology = Topology::emulate(1, 2, 1);
    const SsspResult r = parallel_delta_stepping(g, 0, opts);
    EXPECT_EQ(r.vertices_settled, 5u);
    for (vertex_t v = 5; v < 10; ++v)
        EXPECT_EQ(r.distance[v], kInfiniteDistance);
}

TEST(ParallelSssp, SingleVertex) {
    CsrGraph g = csr_from_edges(EdgeList(1));
    const WeightedCsrGraph wg(std::move(g), AlignedBuffer<weight_t>(0));
    const SsspResult r = parallel_delta_stepping(wg, 0);
    EXPECT_EQ(r.distance[0], 0u);
    EXPECT_EQ(r.parent[0], 0u);
}

TEST(ParallelSssp, OutOfRangeSourceThrows) {
    const WeightedCsrGraph g =
        with_random_weights(test::path_graph(4), 1, 3, 1);
    EXPECT_THROW(parallel_delta_stepping(g, 4), std::out_of_range);
}

TEST(ParallelSssp, RepeatedRunsDeterministicDistances) {
    UniformParams params;
    params.num_vertices = 2000;
    params.degree = 5;
    const WeightedCsrGraph g = with_random_weights(
        csr_from_edges(generate_uniform(params)), 1, 30, 6);
    ParallelSsspOptions opts;
    opts.threads = 6;
    opts.topology = Topology::emulate(3, 2, 1);
    const SsspResult first = parallel_delta_stepping(g, 1, opts);
    for (int i = 0; i < 3; ++i)
        expect_distances_match(first, parallel_delta_stepping(g, 1, opts));
}

}  // namespace
}  // namespace sge
