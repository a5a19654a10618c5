#pragma once

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace sge {

/// CSR construction knobs.
struct BuildOptions {
    /// Insert the reverse of every edge (the paper's BFS workloads are
    /// symmetric traversals; generators emit one direction). Stamps the
    /// result CsrGraph::symmetric(); without it the graph is unstamped
    /// even when the input happens to list both directions.
    bool make_undirected = true;
    /// Drop v -> v edges (they add scan work but never discover anyone).
    bool remove_self_loops = true;
    /// Collapse parallel edges after sorting.
    bool deduplicate = true;
    /// Sort each adjacency ascending. Costs O(m log) at build time,
    /// enables O(log deg) has_edge and makes traversal order
    /// deterministic for the serial reference.
    bool sort_neighbors = true;
};

/// Builds a CSR graph from an edge list via counting sort on the source
/// vertex: O(n + m) time, no comparison sort over the full edge set.
CsrGraph csr_from_edges(const EdgeList& edges, const BuildOptions& opts = {});

/// Convenience: extract the full edge list back out of a CSR (tests and
/// permutation round-trips).
EdgeList edges_from_csr(const CsrGraph& g);

}  // namespace sge
