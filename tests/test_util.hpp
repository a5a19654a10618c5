#pragma once

// Shared fixtures for the sge test suite: tiny graphs with known
// structure plus comparison helpers against the serial reference.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/paged_graph.hpp"

namespace sge::test {

/// 0 - 1 - 2 - ... - (n-1): worst case for level count.
inline CsrGraph path_graph(vertex_t n) {
    EdgeList edges(n);
    for (vertex_t v = 0; v + 1 < n; ++v) edges.add(v, v + 1);
    return csr_from_edges(edges);
}

/// Hub 0 connected to 1..n-1: one fat level.
inline CsrGraph star_graph(vertex_t n) {
    EdgeList edges(n);
    for (vertex_t v = 1; v < n; ++v) edges.add(0, v);
    return csr_from_edges(edges);
}

/// Simple cycle over n vertices.
inline CsrGraph cycle_graph(vertex_t n) {
    EdgeList edges(n);
    for (vertex_t v = 0; v < n; ++v) edges.add(v, (v + 1) % n);
    return csr_from_edges(edges);
}

/// Varint rows that decode without running off their bytes yet break
/// the row format's "sorted, in-range ids", for a 4-vertex graph whose
/// vertex 0 has degree 2 (first id 2, then one 10-byte gap).
inline const std::vector<std::vector<std::uint8_t>> kHostileVarintRows = {
    // The gap wraps 64 bits: the row decodes to [2, 1].
    {0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
    // The gap carries bits past 2^64.
    {0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
};

/// The 4-vertex graph of kHostileVarintRows around `row`, through the
/// trusting constructor.
inline CompressedCsrGraph hostile_varint_graph(
    const std::vector<std::uint8_t>& row) {
    AlignedBuffer<edge_offset_t> offsets(5);
    offsets[0] = 0;
    for (std::size_t v = 1; v < 5; ++v) offsets[v] = row.size();
    AlignedBuffer<vertex_t> degrees(4);
    degrees[0] = 2;
    for (std::size_t v = 1; v < 4; ++v) degrees[v] = 0;
    AlignedBuffer<std::uint8_t> blob(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) blob[i] = row[i];
    return CompressedCsrGraph(std::move(offsets), std::move(degrees),
                              std::move(blob));
}

/// Two disjoint cliques of size k (vertices [0,k) and [k,2k)).
inline CsrGraph two_cliques(vertex_t k) {
    EdgeList edges(2 * k);
    for (vertex_t base : {vertex_t{0}, k})
        for (vertex_t a = base; a < base + k; ++a)
            for (vertex_t b = a + 1; b < base + k; ++b) edges.add(a, b);
    return csr_from_edges(edges);
}

/// The ways with_backend hands a traversal a CsrGraph, by index: the
/// graph itself, its delta+varint encoding, and a spill of its plain
/// targets or of the varint blob.
inline constexpr int kBackends = 4;
inline constexpr const char* kBackendNames[kBackends] = {
    "plain", "compressed", "paged", "paged_compressed"};

/// A fresh spill basename under the system temp directory: the pid plus
/// a process-wide counter.
inline std::string spill_path() {
    static std::atomic<std::uint64_t> spills{0};
    return (std::filesystem::temp_directory_path() /
            ("sge_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(spills.fetch_add(1))))
        .string();
}

/// Calls `fn` with `g` on backend `backend` (an index into
/// kBackendNames) and returns what it returns. A spill owns its files,
/// so they go with the graph once `fn` returns.
template <class Fn>
auto with_backend(int backend, const CsrGraph& g, Fn&& fn) {
    if (backend == 0) return fn(g);
    if (backend == 1) return fn(csr_compress(g));
    PagedWriteOptions wopts;
    wopts.payload = backend == 2 ? PagedPayload::kPlainTargets
                                 : PagedPayload::kVarintBlob;
    PagedOpenOptions oopts;
    oopts.owns_files = true;
    return fn(make_paged(g, spill_path(), wopts, oopts));
}

/// Asserts two BFS results agree: identical reached sets and levels.
/// Parent arrays may legitimately differ (any BFS tree is valid), so
/// only reachability and distance are compared.
inline void expect_equivalent(const BfsResult& expected, const BfsResult& actual) {
    ASSERT_EQ(expected.parent.size(), actual.parent.size());
    EXPECT_EQ(expected.vertices_visited, actual.vertices_visited);
    EXPECT_EQ(expected.edges_traversed, actual.edges_traversed);
    EXPECT_EQ(expected.num_levels, actual.num_levels);
    ASSERT_EQ(expected.level.size(), actual.level.size());
    for (std::size_t v = 0; v < expected.parent.size(); ++v) {
        const bool e_reached = expected.parent[v] != kInvalidVertex;
        const bool a_reached = actual.parent[v] != kInvalidVertex;
        ASSERT_EQ(e_reached, a_reached) << "reachability differs at vertex " << v;
        if (!expected.level.empty()) {
            ASSERT_EQ(expected.level[v], actual.level[v])
                << "level differs at vertex " << v;
        }
    }
}

}  // namespace sge::test
