#pragma once

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace sge {

class ThreadTeam;

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
    /// Sort each adjacency ascending. Costs one more counting-sort pass
    /// at build time, enables O(log deg) has_edge and makes traversal
    /// order deterministic for the serial reference.
    bool sort_neighbors = true;
};

/// Builds a CSR graph from an edge list with stable counting sorts: O(n +
/// m) time per pass, no comparison sort.
///
/// Without sort_neighbors or deduplicate, one pass puts each arc into the
/// row of its source, and every row keeps input order. Otherwise two
/// passes make an LSD radix sort on (source, target): pass 1 puts each
/// arc into the row of its target, storing its source; pass 2 walks those
/// rows in ascending order and puts each stored source's arc into the row
/// of that source, so every row comes out ascending. Deduplication then
/// drops adjacent repeats while copying into a right-sized array.
///
/// Each pass is split into parts: each part counts its share of the arcs
/// per row into its own histogram, an exclusive prefix sum (row-major,
/// then in part order) turns the counts into cursors, and each part writes
/// its arcs through its own cursors, with no atomics. Pass 1 splits the
/// input edges evenly; pass 2 and the dedup split rows by arc count, so a
/// hub row lands whole in one part. Every allocation happens on the
/// calling thread, and the output is the same for any part count.
///
/// This overload picks the part count from the input first: every part
/// holds at least 2^16 input edges, and the part histograms together never
/// outweigh one arc array. A build of one part runs on the calling thread,
/// reads no topology and starts no thread; a larger one runs on a
/// transient team of at most Topology::detect().max_threads() workers.
///
/// Throws std::out_of_range, before any arc array is allocated, if an
/// endpoint is >= edges.num_vertices().
CsrGraph csr_from_edges(const EdgeList& edges, const BuildOptions& opts = {});

/// The same build with one part per worker of the caller's `team`,
/// whatever the input size (a caller that already owns a team, such as a
/// BfsRunner's, shares it; tests sweep part boundaries with it).
CsrGraph csr_from_edges(const EdgeList& edges, const BuildOptions& opts,
                        ThreadTeam& team);

/// Convenience: extract the full edge list back out of a CSR (tests and
/// permutation round-trips).
EdgeList edges_from_csr(const CsrGraph& g);

}  // namespace sge
