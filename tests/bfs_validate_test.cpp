#include <gtest/gtest.h>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

BfsResult good_result(const CsrGraph& g, vertex_t root) {
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    return bfs(g, root, opts);
}

class ValidatorTest : public ::testing::Test {
  protected:
    void SetUp() override {
        UniformParams params;
        params.num_vertices = 500;
        params.degree = 4;
        g_ = csr_from_edges(generate_uniform(params));
        result_ = good_result(g_, 0);
    }

    CsrGraph g_;
    BfsResult result_;
};

TEST_F(ValidatorTest, AcceptsCorrectResult) {
    const auto report = validate_bfs_tree(g_, 0, result_);
    EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(ValidatorTest, RejectsRootNotItsOwnParent) {
    result_.parent[0] = 1;
    EXPECT_FALSE(validate_bfs_tree(g_, 0, result_).ok);
}

TEST_F(ValidatorTest, RejectsWrongRootLevel) {
    result_.level[0] = 1;
    EXPECT_FALSE(validate_bfs_tree(g_, 0, result_).ok);
}

TEST_F(ValidatorTest, RejectsNonEdgeParent) {
    // Find a reached vertex whose claimed parent we can corrupt to a
    // non-neighbour.
    for (vertex_t v = 1; v < g_.num_vertices(); ++v) {
        if (result_.parent[v] == kInvalidVertex) continue;
        vertex_t fake = kInvalidVertex;
        for (vertex_t w = 0; w < g_.num_vertices(); ++w) {
            if (w != v && !g_.has_edge(w, v) &&
                result_.parent[w] != kInvalidVertex) {
                fake = w;
                break;
            }
        }
        if (fake == kInvalidVertex) continue;
        result_.parent[v] = fake;
        // Keep the level consistent so only the edge rule can fire.
        result_.level[v] = result_.level[fake] + 1;
        const auto report = validate_bfs_tree(g_, 0, result_);
        EXPECT_FALSE(report.ok);
        EXPECT_NE(report.error.find("not a graph edge"), std::string::npos)
            << report.error;
        return;
    }
    GTEST_SKIP() << "no corruptible vertex found";
}

TEST_F(ValidatorTest, RejectsLevelSkew) {
    for (vertex_t v = 1; v < g_.num_vertices(); ++v) {
        if (result_.parent[v] == kInvalidVertex || v == 0) continue;
        result_.level[v] += 1;  // breaks level[v] == level[parent]+1
        EXPECT_FALSE(validate_bfs_tree(g_, 0, result_).ok);
        return;
    }
    GTEST_SKIP();
}

TEST_F(ValidatorTest, RejectsUnreachedWithLevel) {
    const CsrGraph g = test::two_cliques(4);
    BfsResult r = good_result(g, 0);
    r.level[6] = 3;  // vertex 6 is in the other clique
    EXPECT_FALSE(validate_bfs_tree(g, 0, r).ok);
}

TEST_F(ValidatorTest, RejectsVisitedCountMismatch) {
    result_.vertices_visited += 1;
    EXPECT_FALSE(validate_bfs_tree(g_, 0, result_).ok);
}

TEST_F(ValidatorTest, RejectsReachedSetNotClosed) {
    // Mark a reached vertex unreached: one of its neighbours' edges now
    // leaves the reached set.
    for (vertex_t v = 1; v < g_.num_vertices(); ++v) {
        if (result_.parent[v] == kInvalidVertex) continue;
        if (g_.degree(v) == 0) continue;
        result_.parent[v] = kInvalidVertex;
        result_.level[v] = kInvalidLevel;
        result_.vertices_visited -= 1;
        EXPECT_FALSE(validate_bfs_tree(g_, 0, result_).ok);
        return;
    }
    GTEST_SKIP();
}

TEST_F(ValidatorTest, RejectsWrongArraySizes) {
    result_.parent.pop_back();
    EXPECT_FALSE(validate_bfs_tree(g_, 0, result_).ok);
}

TEST_F(ValidatorTest, RejectsOutOfRangeRoot) {
    EXPECT_FALSE(validate_bfs_tree(g_, g_.num_vertices(), result_).ok);
}

TEST_F(ValidatorTest, WorksWithoutLevels) {
    BfsOptions opts;
    opts.engine = BfsEngine::kSerial;
    opts.compute_levels = false;
    const BfsResult r = bfs(g_, 0, opts);
    const auto report = validate_bfs_tree(g_, 0, r);
    EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(ValidatorTest, EdgeLevelSweepCatchesSkippedLevel) {
    // Construct a fake result on a path graph where vertex 2 claims
    // level 3: the edge (1,2) then skips a level.
    const CsrGraph g = test::path_graph(5);
    BfsResult r = good_result(g, 0);
    r.level[2] = 3;
    r.level[3] = 4;
    r.level[4] = 5;
    r.parent[3] = 2;
    r.parent[4] = 3;
    // Parent-chain levels stay consistent; only the full-edge sweep can
    // see that edge (1,2) spans levels 1 -> 3.
    const auto strict = validate_bfs_tree(g, 0, r);
    EXPECT_FALSE(strict.ok);
    // But the parent of 2 is vertex 1 at level 1, so the per-vertex rule
    // fires too unless we also doctor parent[2]... verify the error
    // mentions either rule.
    EXPECT_FALSE(strict.error.empty());
}

TEST(ValidatorScale, StarWithAMillionLeaves) {
    // The hub's row holds 2^20 arcs. Validation stays one pass over the
    // rows; a per-vertex search of the parent's row (a sortedness probe
    // or a linear scan of the hub) would make it quadratic.
    const CsrGraph g = test::star_graph((vertex_t{1} << 20) + 1);
    for (const vertex_t root : {vertex_t{0}, vertex_t{1}}) {
        const auto report = validate_bfs_tree(g, root, good_result(g, root));
        EXPECT_TRUE(report.ok) << "root " << root << ": " << report.error;
    }
}

}  // namespace
}  // namespace sge
