#pragma once

// Output checker of the end-to-end benchmark. It never calls
// validate_bfs_tree: that path pays CsrGraph::has_edge, which re-checks
// is_sorted over the parent's whole row on every call (1.7 s per query
// at SCALE 20). These checks are O(n) per answer, plus one pass over the
// arcs of the reached vertices for the full Graph500 level rules.

#include <cstdint>
#include <span>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace sge::e2e {

/// One BFS answer as the checker sees it.
struct Answer {
    vertex_t root = 0;
    std::span<const level_t> level;
    /// BFS tree; empty for answers that carry only levels (the service).
    std::span<const vertex_t> parent;
    std::uint64_t visited = 0;
    std::uint32_t num_levels = 0;
};

/// O(n) checks run on every answer: one level per vertex, the root at
/// level 0, `visited` equal to the number of levelled vertices, and
/// `num_levels` equal to the largest level + 1. Returns "" on success,
/// else the first violation. Unless null, `component_arcs` receives
/// Σ degree over the reached vertices: the component's arcs, twice its
/// undirected edges.
[[nodiscard]] std::string check_summary(const CsrGraph& g, const Answer& a,
                                        std::uint64_t* component_arcs);

/// The full Graph500 level rules over `g` plus the undirected `extra`
/// edges (edges a live graph gained after the snapshot `g`): both ends
/// of every edge are reached or neither is, reached ends differ by at
/// most one level, and every reached vertex but the root has a
/// neighbour one level up. With a tree, also parent[root] == root and
/// every other parent is a neighbour one level up. Together these hold
/// only for the exact hop distances. Parallel over `threads`. Returns ""
/// on success, else the first violation found.
[[nodiscard]] std::string check_full(const CsrGraph& g, std::span<const Edge> extra,
                                     const Answer& a, int threads);

/// Feeds the checker corrupted answers and expects each to be rejected
/// (and the clean ones accepted). Prints one line per case; returns the
/// number of cases that went wrong.
int selftest();

}  // namespace sge::e2e
