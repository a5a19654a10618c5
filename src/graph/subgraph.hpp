#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace sge {

/// A vertex-induced subgraph together with the id mapping back to the
/// original graph.
struct Subgraph {
    CsrGraph graph;
    /// original_of[new_id] = id in the source graph.
    std::vector<vertex_t> original_of;
    /// new_of[old_id] = id in the subgraph, kInvalidVertex if excluded.
    std::vector<vertex_t> new_of;
};

/// Extracts the subgraph induced by `vertices` (deduplicated,
/// order-preserving relabelling: the i-th distinct selected vertex
/// becomes id i). Edges with both endpoints selected are kept, and so is
/// the source's symmetry stamp. Throws std::out_of_range for ids outside
/// the source graph.
Subgraph induced_subgraph(const CsrGraph& g, std::span<const vertex_t> vertices);

/// Extracts the largest connected component — the standard preprocessing
/// step for traversal benchmarks (sparse random graphs leave debris
/// components that would otherwise dominate root sampling).
Subgraph largest_component_subgraph(const CsrGraph& g);

}  // namespace sge
