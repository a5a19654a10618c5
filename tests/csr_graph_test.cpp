#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "concurrency/thread_team.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/degree_stats.hpp"
#include "graph/edge_list.hpp"
#include "runtime/fault.hpp"
#include "runtime/prng.hpp"

namespace sge {
namespace {

EdgeList triangle_plus_tail() {
    // 0-1, 1-2, 2-0 triangle; 2-3 tail; 4 isolated.
    EdgeList edges(5);
    edges.add(0, 1);
    edges.add(1, 2);
    edges.add(2, 0);
    edges.add(2, 3);
    return edges;
}

TEST(CsrBuilder, UndirectedDefaultSymmetrizes) {
    const CsrGraph g = csr_from_edges(triangle_plus_tail());
    EXPECT_EQ(g.num_vertices(), 5u);
    EXPECT_EQ(g.num_edges(), 8u);  // 4 undirected edges -> 8 arcs
    EXPECT_TRUE(g.well_formed());
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_edge(3, 2));
    EXPECT_FALSE(g.has_edge(0, 3));
    EXPECT_EQ(g.degree(4), 0u);
}

TEST(CsrBuilder, DirectedMode) {
    BuildOptions opts;
    opts.make_undirected = false;
    const CsrGraph g = csr_from_edges(triangle_plus_tail(), opts);
    EXPECT_EQ(g.num_edges(), 4u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(g.has_edge(1, 0));

    // Rows longer than 8, kept as given (no sort, no dedup): row 0 is
    // unsorted, row 1 sorted. has_edge hits both ends of each and
    // misses an absent id.
    const std::vector<vertex_t> unsorted{9, 3, 11, 1, 7, 12, 5, 2, 10, 6};
    EdgeList rows(13);
    for (const vertex_t w : unsorted) rows.add(0, w);
    for (vertex_t w = 2; w <= 11; ++w) rows.add(1, w);
    opts.sort_neighbors = false;
    opts.deduplicate = false;
    const CsrGraph h = csr_from_edges(rows, opts);
    const auto row0 = h.neighbors(0);
    ASSERT_EQ(std::vector<vertex_t>(row0.begin(), row0.end()), unsorted);
    EXPECT_TRUE(h.has_edge(0, 9));
    EXPECT_TRUE(h.has_edge(0, 6));
    EXPECT_FALSE(h.has_edge(0, 4));
    EXPECT_TRUE(h.has_edge(1, 2));
    EXPECT_TRUE(h.has_edge(1, 11));
    EXPECT_FALSE(h.has_edge(1, 12));
}

TEST(CsrBuilder, RemovesSelfLoops) {
    EdgeList edges(3);
    edges.add(0, 0);
    edges.add(0, 1);
    edges.add(2, 2);
    const CsrGraph g = csr_from_edges(edges);
    EXPECT_EQ(g.num_edges(), 2u);  // only 0-1 symmetrized
    EXPECT_FALSE(g.has_edge(0, 0));
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(CsrBuilder, KeepsSelfLoopsWhenAsked) {
    EdgeList edges(2);
    edges.add(0, 0);
    BuildOptions opts;
    opts.remove_self_loops = false;
    opts.make_undirected = false;
    const CsrGraph g = csr_from_edges(edges, opts);
    EXPECT_TRUE(g.has_edge(0, 0));
}

TEST(CsrBuilder, DeduplicatesParallelEdges) {
    EdgeList edges(2);
    for (int i = 0; i < 5; ++i) edges.add(0, 1);
    const CsrGraph g = csr_from_edges(edges);
    EXPECT_EQ(g.num_edges(), 2u);  // one arc each way
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 1u);
}

TEST(CsrBuilder, KeepsParallelEdgesWhenAsked) {
    EdgeList edges(2);
    for (int i = 0; i < 5; ++i) edges.add(0, 1);
    BuildOptions opts;
    opts.deduplicate = false;
    opts.make_undirected = false;
    const CsrGraph g = csr_from_edges(edges, opts);
    EXPECT_EQ(g.num_edges(), 5u);
    EXPECT_EQ(g.degree(0), 5u);
}

TEST(CsrBuilder, NeighborsAreSorted) {
    EdgeList edges(6);
    edges.add(0, 5);
    edges.add(0, 2);
    edges.add(0, 4);
    edges.add(0, 1);
    BuildOptions opts;
    opts.make_undirected = false;
    const CsrGraph g = csr_from_edges(edges, opts);
    const auto adj = g.neighbors(0);
    const std::vector<vertex_t> got(adj.begin(), adj.end());
    EXPECT_EQ(got, (std::vector<vertex_t>{1, 2, 4, 5}));
}

TEST(CsrBuilder, RejectsOutOfRangeEndpoints) {
    EdgeList edges(2);
    edges.add(0, 7);
    EXPECT_THROW(csr_from_edges(edges), std::out_of_range);
}

TEST(CsrBuilder, EmptyGraph) {
    const CsrGraph g = csr_from_edges(EdgeList(0));
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_TRUE(g.well_formed());
}

TEST(CsrBuilder, VerticesWithoutEdges) {
    const CsrGraph g = csr_from_edges(EdgeList(100));
    EXPECT_EQ(g.num_vertices(), 100u);
    EXPECT_EQ(g.num_edges(), 0u);
    for (vertex_t v = 0; v < 100; ++v) ASSERT_EQ(g.degree(v), 0u);
}

TEST(CsrBuilder, RoundTripThroughEdgeList) {
    const CsrGraph g = csr_from_edges(triangle_plus_tail());
    const EdgeList extracted = edges_from_csr(g);
    BuildOptions opts;
    opts.make_undirected = false;  // already symmetric
    const CsrGraph g2 = csr_from_edges(extracted, opts);
    EXPECT_TRUE(g == g2);
}

// ---------------------------------------------------------------------
// The parallel build against the builder's contract, written the obvious
// way: per-row vectors in input order, then std::sort and std::unique
// when asked.
// ---------------------------------------------------------------------

struct ReferenceCsr {
    std::vector<edge_offset_t> offsets;
    std::vector<vertex_t> targets;
};

ReferenceCsr reference_build(const EdgeList& edges, const BuildOptions& opts) {
    std::vector<std::vector<vertex_t>> rows(edges.num_vertices());
    for (const Edge& e : edges) {
        if (opts.remove_self_loops && e.src == e.dst) continue;
        rows[e.src].push_back(e.dst);
        if (opts.make_undirected) rows[e.dst].push_back(e.src);
    }
    ReferenceCsr ref;
    ref.offsets.push_back(0);
    for (auto& row : rows) {
        if (opts.sort_neighbors || opts.deduplicate)
            std::sort(row.begin(), row.end());
        if (opts.deduplicate)
            row.erase(std::unique(row.begin(), row.end()), row.end());
        ref.targets.insert(ref.targets.end(), row.begin(), row.end());
        ref.offsets.push_back(ref.targets.size());
    }
    return ref;
}

void expect_matches_reference(const CsrGraph& g, const EdgeList& edges,
                              const BuildOptions& opts,
                              const std::string& where) {
    const ReferenceCsr ref = reference_build(edges, opts);
    const auto offsets = g.offsets();
    const auto targets = g.targets();
    EXPECT_EQ(std::vector<edge_offset_t>(offsets.begin(), offsets.end()),
              ref.offsets)
        << where;
    EXPECT_EQ(std::vector<vertex_t>(targets.begin(), targets.end()),
              ref.targets)
        << where;
    EXPECT_EQ(g.symmetric(), opts.make_undirected) << where;
}

BuildOptions options_from_bits(unsigned bits) {
    BuildOptions opts;
    opts.make_undirected = (bits & 1U) != 0;
    opts.remove_self_loops = (bits & 2U) != 0;
    opts.deduplicate = (bits & 4U) != 0;
    opts.sort_neighbors = (bits & 8U) != 0;
    return opts;
}

std::string describe(const BuildOptions& opts) {
    return std::string("undirected=") + (opts.make_undirected ? "1" : "0") +
           " drop_loops=" + (opts.remove_self_loops ? "1" : "0") +
           " dedup=" + (opts.deduplicate ? "1" : "0") +
           " sort=" + (opts.sort_neighbors ? "1" : "0");
}

/// The fuzz's inputs for one seed: edge cases, parallel edges, self-loops
/// and a hub row longer than any part's share.
std::vector<std::pair<std::string, EdgeList>> builder_inputs(std::uint64_t seed) {
    std::vector<std::pair<std::string, EdgeList>> inputs;
    inputs.emplace_back("empty n=0", EdgeList(0));
    inputs.emplace_back("empty n=5", EdgeList(5));

    EdgeList loops(1);
    for (int i = 0; i < 4; ++i) loops.add(0, 0);
    inputs.emplace_back("one vertex with self-loops", std::move(loops));

    Xoshiro256 rng(seed);
    EdgeList multi(37);
    for (int i = 0; i < 600; ++i) {
        const auto u = static_cast<vertex_t>(rng.next_below(37));
        // One edge in eight is a self-loop; the small id range makes
        // parallel edges common.
        const auto v = rng.next_below(8) == 0
                           ? u
                           : static_cast<vertex_t>(rng.next_below(37));
        multi.add(u, v);
    }
    inputs.emplace_back("random multigraph", std::move(multi));

    // The hub is the source of half its edges and the target of the
    // rest, so its row outweighs a part's share in directed builds too.
    EdgeList star(300);
    for (vertex_t v = 1; v < 300; ++v) star.add(v % 2 ? 0 : v, v % 2 ? v : 0);
    for (int i = 0; i < 40; ++i)
        star.add(static_cast<vertex_t>(1 + rng.next_below(299)),
                 static_cast<vertex_t>(1 + rng.next_below(299)));
    inputs.emplace_back("star with a hub row", std::move(star));

    EdgeList trailing(96);
    for (int i = 0; i < 120; ++i)
        trailing.add(static_cast<vertex_t>(rng.next_below(20)),
                     static_cast<vertex_t>(rng.next_below(20)));
    inputs.emplace_back("trailing isolated vertices", std::move(trailing));

    RmatParams rp;
    rp.scale = 10;
    rp.num_edges = 8 << 10;
    rp.seed = seed;
    inputs.emplace_back("rmat scale 10", generate_rmat(rp));
    return inputs;
}

TEST(CsrBuilderFuzz, MatchesReferenceAcrossOptionsAndTeams) {
    // Emulated topologies do not pin, so every host sweeps the same part
    // boundaries.
    std::vector<std::unique_ptr<ThreadTeam>> teams;
    for (const int k : {1, 2, 3, 4, 7})
        teams.push_back(std::make_unique<ThreadTeam>(k, Topology::emulate(1, k, 1)));

    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        for (const auto& [name, edges] : builder_inputs(seed)) {
            for (unsigned bits = 0; bits < 16; ++bits) {
                const BuildOptions opts = options_from_bits(bits);
                const std::string where = name + " seed=" + std::to_string(seed) +
                                          " " + describe(opts);
                expect_matches_reference(csr_from_edges(edges, opts), edges,
                                         opts, where + " default");
                for (const auto& team : teams)
                    expect_matches_reference(
                        csr_from_edges(edges, opts, *team), edges, opts,
                        where + " parts=" + std::to_string(team->size()));
            }
        }
    }
}

TEST(CsrBuilder, OutOfRangeEndpointInAnyPartThrows) {
    ThreadTeam team(3, Topology::emulate(1, 3, 1));
    RmatParams rp;
    rp.scale = 10;
    rp.num_edges = 8 << 10;
    rp.seed = 5;
    const EdgeList good = generate_rmat(rp);
    const std::size_t count = good.num_edges();
    // The first edge, mid-way through the last part (edges [2m/3, m)),
    // and the last edge.
    const std::size_t last_part = count * 2 / 3;
    for (const std::size_t at : {std::size_t{0}, (last_part + count) / 2, count - 1}) {
        for (const bool bad_src : {true, false}) {
            EdgeList bad(good.num_vertices());
            for (std::size_t i = 0; i < count; ++i) {
                Edge e = good[i];
                if (i == at) (bad_src ? e.src : e.dst) = good.num_vertices();
                bad.add(e.src, e.dst);
            }
            for (const unsigned bits : {15U, 0U}) {
                const BuildOptions opts = options_from_bits(bits);
                EXPECT_THROW(csr_from_edges(bad, opts, team), std::out_of_range)
                    << "edge " << at << " " << describe(opts);
                expect_matches_reference(csr_from_edges(good, opts, team), good,
                                         opts, "after a throw at " + std::to_string(at));
            }
        }
    }
}

TEST(CsrBuilder, AllocationFailureLeavesTeamReusable) {
    ThreadTeam team(3, Topology::emulate(1, 3, 1));
    RmatParams rp;
    rp.scale = 10;
    rp.num_edges = 8 << 10;
    rp.seed = 9;
    const EdgeList edges = generate_rmat(rp);

    // Every option path: dedup with its right-sized copy, sort only, and
    // the single unsorted pass.
    for (const unsigned bits : {15U, 9U, 0U}) {
        const BuildOptions opts = options_from_bits(bits);
        std::uint64_t failures = 0;
        bool built = false;
        for (std::uint64_t nth = 1; nth <= 32 && !built; ++nth) {
            fault::arm(fault::Site::kAlloc, fault::Trigger{.probability = 0.0, .nth = nth});
            try {
                const CsrGraph g = csr_from_edges(edges, opts, team);
                fault::disarm(fault::Site::kAlloc);
                built = true;
                expect_matches_reference(g, edges, opts, describe(opts));
            } catch (const std::bad_alloc&) {
                fault::disarm(fault::Site::kAlloc);
                ++failures;
            }
        }
        EXPECT_TRUE(built) << describe(opts);
        EXPECT_GE(failures, 2u) << describe(opts);
        expect_matches_reference(csr_from_edges(edges, opts, team), edges, opts,
                                 "after the failures, " + describe(opts));
    }
    fault::disarm_all();
}

TEST(CsrGraph, WellFormedRejectsBrokenOffsets) {
    AlignedBuffer<edge_offset_t> offsets(3);
    offsets[0] = 0;
    offsets[1] = 5;  // exceeds target count
    offsets[2] = 2;  // non-monotone
    AlignedBuffer<vertex_t> targets(2);
    targets[0] = 0;
    targets[1] = 1;
    const CsrGraph g(std::move(offsets), std::move(targets));
    EXPECT_FALSE(g.well_formed());
}

TEST(CsrGraph, WellFormedRejectsOutOfRangeTargets) {
    AlignedBuffer<edge_offset_t> offsets(2);
    offsets[0] = 0;
    offsets[1] = 1;
    AlignedBuffer<vertex_t> targets(1);
    targets[0] = 99;
    const CsrGraph g(std::move(offsets), std::move(targets));
    EXPECT_FALSE(g.well_formed());
}

TEST(CsrGraph, MemoryBytesAccountsBothArrays) {
    const CsrGraph g = csr_from_edges(triangle_plus_tail());
    EXPECT_EQ(g.memory_bytes(),
              6 * sizeof(edge_offset_t) + 8 * sizeof(vertex_t));
}

TEST(DegreeStats, SummarizesDistribution) {
    const CsrGraph g = csr_from_edges(triangle_plus_tail());
    const DegreeStats stats = compute_degree_stats(g);
    EXPECT_EQ(stats.min_degree, 0u);   // vertex 4
    EXPECT_EQ(stats.max_degree, 3u);   // vertex 2
    EXPECT_DOUBLE_EQ(stats.mean_degree, 8.0 / 5.0);
    EXPECT_EQ(stats.isolated_vertices, 1u);
    EXPECT_FALSE(stats.describe().empty());
}

}  // namespace
}  // namespace sge
