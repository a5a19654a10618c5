// The symmetry stamp (CsrGraph::symmetric()): set only where
// construction guarantees every arc's reverse, carried through every
// derived graph, never set by a file reader.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/io.hpp"
#include "graph/paged_graph.hpp"
#include "graph/reorder.hpp"
#include "graph/subgraph.hpp"
#include "stream/versioned_store.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

/// Lists both directions of every edge, so the arcs are symmetric —
/// but only make_undirected may say so.
EdgeList both_directions() {
    EdgeList edges(6);
    for (vertex_t v = 0; v + 2 < 6; ++v) {  // path 0-1-2-3-4; 5 isolated
        edges.add(v, v + 1);
        edges.add(v + 1, v);
    }
    return edges;
}

CsrGraph stamped() { return csr_from_edges(both_directions()); }

CsrGraph unstamped() {
    BuildOptions opts;
    opts.make_undirected = false;
    return csr_from_edges(both_directions(), opts);
}

class SymmetryStampFiles : public ::testing::Test {
  protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("sge_stamp_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    std::filesystem::path dir_;
};

TEST(SymmetryStamp, SetByMakeUndirectedOnly) {
    EXPECT_TRUE(stamped().symmetric());
    EXPECT_FALSE(unstamped().symmetric());
    EXPECT_TRUE(stamped() == unstamped());  // same arcs; the stamp is metadata
    EXPECT_FALSE(CsrGraph().symmetric());
}

TEST(SymmetryStamp, CarriesThroughPermutationAndSubgraphs) {
    std::vector<vertex_t> reverse(6);
    std::iota(reverse.rbegin(), reverse.rend(), vertex_t{0});
    const std::vector<vertex_t> some{4, 1, 2};
    for (const bool stamp : {true, false}) {
        const CsrGraph g = stamp ? stamped() : unstamped();
        EXPECT_EQ(apply_vertex_permutation(g, reverse).symmetric(), stamp);
        EXPECT_EQ(induced_subgraph(g, some).graph.symmetric(), stamp);
        EXPECT_EQ(largest_component_subgraph(g).graph.symmetric(), stamp);
    }
}

TEST(SymmetryStamp, CarriesThroughEncodings) {
    for (const bool stamp : {true, false}) {
        const CompressedCsrGraph z = csr_compress(stamp ? stamped() : unstamped());
        EXPECT_EQ(z.symmetric(), stamp);
        EXPECT_EQ(csr_decompress(z).symmetric(), stamp);
    }
}

TEST_F(SymmetryStampFiles, CarriesThroughSpillsButNotFileReaders) {
    for (const bool stamp : {true, false}) {
        const CsrGraph g = stamp ? stamped() : unstamped();
        const std::string name = stamp ? "stamped.pgr" : "unstamped.pgr";
        EXPECT_EQ(make_paged(g, path(name.c_str())).symmetric(), stamp);
    }
    EXPECT_FALSE(open_paged_graph(path("stamped.pgr")).symmetric());

    write_csr(stamped(), path("g.csr"));
    EXPECT_FALSE(read_csr(path("g.csr")).symmetric());
    write_compressed_csr(csr_compress(stamped()), path("g.zsr"));
    EXPECT_FALSE(read_compressed_csr(path("g.zsr")).symmetric());
}

TEST(SymmetryStamp, StreamSnapshotsInheritTheSource) {
    MutationBatch batch;
    batch.insert(0, 5);
    for (const bool stamp : {true, false}) {
        const CsrGraph g = stamp ? stamped() : unstamped();
        VersionedGraphStore store(g);
        EXPECT_EQ(store.acquire().graph().symmetric(), stamp);
        store.apply(batch);
        EXPECT_EQ(store.acquire().graph().symmetric(), stamp);
    }
    VersionedGraphStore grown(8);
    EXPECT_TRUE(grown.acquire().graph().symmetric());
    grown.apply(batch);
    EXPECT_TRUE(grown.acquire().graph().symmetric());
}

TEST(SymmetryStamp, ReachesHybridThroughTheBackends) {
    // csr_compress and make_paged must keep the stamp, or hybrid would
    // silently degrade to top-down on those backends.
    UniformParams params;
    params.num_vertices = 4096;
    params.degree = 16;
    params.seed = 5;
    const CsrGraph g = csr_from_edges(generate_uniform(params));

    const auto scanned = [](const auto& graph, BfsEngine engine) {
        BfsOptions opts;
        opts.engine = engine;
        opts.threads = 2;
        opts.topology = Topology::emulate(1, 2, 1);
        opts.collect_stats = true;
        std::uint64_t total = 0;
        for (const BfsLevelStats& s : bfs(graph, 0, opts).level_stats)
            total += s.edges_scanned;
        return total;
    };
    const std::uint64_t top_down = scanned(g, BfsEngine::kBitmap);
    for (int backend = 0; backend < test::kBackends; ++backend) {
        const std::uint64_t hybrid =
            test::with_backend(backend, g, [&](const auto& graph) {
                return scanned(graph, BfsEngine::kHybrid);
            });
        EXPECT_LT(hybrid, top_down / 2) << test::kBackendNames[backend];
    }
}

}  // namespace
}  // namespace sge
