#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace sge {

/// Vertex relabellings that trade generator-given ids for
/// locality-friendly ones — the data-layout lever behind the paper's
/// "innovative data layout that enhances memory locality": with hot
/// (high-degree, or co-visited) vertices packed into adjacent ids, the
/// bitmap and parent-array lines they share stay resident.
///
/// All permutations map old id -> new id.

/// Hubs first: new id 0 is the highest-degree vertex. Packs the R-MAT
/// heavy tail into a few cache lines of bitmap.
std::vector<vertex_t> degree_descending_order(const CsrGraph& g);

/// BFS visit order from `root` (unreached vertices keep relative order
/// after the reached ones). Neighbouring-by-distance vertices get
/// neighbouring ids — the RCM idea without the bandwidth refinement.
std::vector<vertex_t> bfs_visit_order(const CsrGraph& g, vertex_t root);

/// Rebuilds the graph under `perm` (must be a permutation of [0, n)),
/// keeping its symmetry stamp. Throws std::invalid_argument otherwise.
CsrGraph apply_vertex_permutation(const CsrGraph& g,
                                  std::span<const vertex_t> perm);

}  // namespace sge
