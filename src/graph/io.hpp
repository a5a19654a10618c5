#pragma once

#include <string>

#include "graph/csr_compressed.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/weighted.hpp"

namespace sge {

/// Binary CSR container ("SGECSR01"): magic, n, m, offsets[n+1],
/// targets[m], little-endian. Round-trips a built graph so benchmark
/// runs do not pay generation + build on every invocation.
void write_csr(const CsrGraph& g, const std::string& path);

/// Reads a file written by write_csr. Throws std::runtime_error on
/// malformed input (bad magic, truncation, non-well-formed CSR). The
/// format carries no symmetry guarantee, so the graph is unstamped
/// (CsrGraph::symmetric() is false), as from every reader here.
CsrGraph read_csr(const std::string& path);

/// Reads a whitespace-separated text edge list ("src dst" per line,
/// '#'-prefixed comment lines skipped) — the common interchange format
/// of SNAP/DIMACS-style graph collections.
EdgeList read_edge_list_text(const std::string& path);

/// Binary weighted-CSR container ("SGEWSR01"): the CSR payload followed
/// by the per-arc weight array.
void write_weighted_csr(const WeightedCsrGraph& g, const std::string& path);

/// Reads a file written by write_weighted_csr. Throws
/// std::runtime_error on malformed input.
WeightedCsrGraph read_weighted_csr(const std::string& path);

/// Binary compressed-CSR container ("SGEZSR01"): magic, n, m,
/// blob_bytes, byte_offsets[n+1], degrees[n], blob, little-endian.
/// Lets benchmarks load a pre-encoded graph without paying
/// csr_compress() on every invocation.
void write_compressed_csr(const CompressedCsrGraph& g, const std::string& path);

/// Reads a file written by write_compressed_csr. The untrusted header
/// is validated against the file size before any allocation (same
/// hardening as read_csr), and the decoded payload must pass
/// CompressedCsrGraph::well_formed() — after which the engines'
/// unchecked hot-path decode is safe. Throws std::runtime_error on
/// malformed input.
CompressedCsrGraph read_compressed_csr(const std::string& path);

/// Writes an EdgeList in the same text format.
void write_edge_list_text(const EdgeList& edges, const std::string& path);

}  // namespace sge
