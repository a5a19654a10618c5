#pragma once

#include <string>

#include "core/bfs.hpp"
#include "graph/csr_graph.hpp"

namespace sge {

/// Outcome of validate_bfs_tree: `ok` plus a human-readable reason for
/// the first violation found.
struct ValidationReport {
    bool ok = true;
    std::string error;

    static ValidationReport failure(std::string why) {
        return {false, std::move(why)};
    }
};

/// Graph500-style correctness audit of a BFS result against the graph:
///
///   1. the root is its own parent at level 0;
///   2. every reached vertex's parent is reached, and the tree edge
///      (parent[v], v) exists in the graph;
///   3. levels are consistent: level[v] == level[parent[v]] + 1;
///   4. no graph edge connects vertices more than one level apart, and
///      no edge connects a reached vertex to an unreached one (so the
///      reached set is exactly the root's connected component under
///      symmetric graphs);
///   5. the reached count matches BfsResult::vertices_visited.
///
/// One O(n + m) pass: a sweep of the rows finds every tree edge and
/// rule 4's first violation, and the per-vertex checks follow. Rule 4
/// needs levels, and its reachability half runs only on graphs stamped
/// symmetric (CsrGraph::symmetric()).
ValidationReport validate_bfs_tree(const CsrGraph& g, vertex_t root,
                                   const BfsResult& result);

}  // namespace sge
