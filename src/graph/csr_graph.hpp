#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/prefetch.hpp"

namespace sge {

namespace detail {

/// Calls a neighbour scan's `fn(w)`; false only when `fn` returns bool
/// false, which stops the scan (the bottom-up probe's early exit).
template <class Fn>
inline bool keep_scanning(Fn& fn, vertex_t w) {
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, vertex_t>, bool>) {
        return fn(w);
    } else {
        fn(w);
        return true;
    }
}

}  // namespace detail

/// Immutable Compressed Sparse Row graph — the paper's data layout.
///
/// Two flat, cache-line-aligned arrays:
///   offsets[n+1] : edge_offset_t, offsets[v]..offsets[v+1] delimit v's
///                  adjacency in `targets`;
///   targets[m]   : vertex_t neighbour ids.
///
/// The BFS working-set hierarchy the paper builds on top of this layout:
/// the visited bitmap (1 bit/vertex, hot) < parent array (4 B/vertex) <
/// offsets (8 B/vertex) < targets (4 B/edge, cold, streamed).
class CsrGraph {
  public:
    CsrGraph() = default;

    /// Takes ownership of prebuilt arrays. `offsets` must have
    /// num_vertices+1 entries, be non-decreasing, start at 0 and end at
    /// targets.size(); use csr_from_edges() for checked construction.
    /// Pass `symmetric` only when the arrays are known to hold every
    /// arc's reverse (see symmetric()).
    CsrGraph(AlignedBuffer<edge_offset_t> offsets, AlignedBuffer<vertex_t> targets,
             bool symmetric = false)
        : offsets_(std::move(offsets)),
          targets_(std::move(targets)),
          symmetric_(symmetric) {}

    CsrGraph(CsrGraph&&) noexcept = default;
    CsrGraph& operator=(CsrGraph&&) noexcept = default;

    /// GraphAccessor backend marker: the engines branch `if constexpr`
    /// on it to choose span scans here vs decode-on-scan on
    /// CompressedCsrGraph (the `true` side, csr_compressed.hpp).
    static constexpr bool kCompressed = false;

    [[nodiscard]] vertex_t num_vertices() const noexcept {
        return offsets_.empty() ? 0 : static_cast<vertex_t>(offsets_.size() - 1);
    }

    [[nodiscard]] edge_offset_t num_edges() const noexcept {
        return offsets_.empty() ? 0 : offsets_[offsets_.size() - 1];
    }

    [[nodiscard]] edge_offset_t degree(vertex_t v) const noexcept {
        return offsets_[v + 1] - offsets_[v];
    }

    /// Symmetry stamp: true only where construction guarantees that
    /// every arc (u, v) has its reverse (v, u) — csr_from_edges with
    /// make_undirected, and graphs derived from a stamped graph
    /// (permutations, subgraphs, encodings, spills, stream snapshots).
    /// File readers leave it false. The direction-optimizing engine
    /// reads out-arcs as in-arcs, so it goes bottom-up only on a
    /// stamped graph.
    [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }

    /// Process-unique identity (next_graph_id), drawn at construction
    /// and carried by moves: the key of every cache derived from it.
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

    /// The adjacency list of `v` as a read-only span.
    [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const noexcept {
        return {targets_.data() + offsets_[v],
                static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
    }

    /// Calls `fn(w)` for every neighbour of `v` in storage order; an
    /// `fn` returning bool stops at its first false. Returns the
    /// adjacency bytes touched up to the stop (4 per neighbour) — the
    /// same contract as the other backends' neighbors_for_each, so
    /// accessor-generic code can account streamed volume uniformly.
    template <class Fn>
    std::size_t neighbors_for_each(vertex_t v, Fn&& fn) const noexcept {
        const auto adj = neighbors(v);
        std::size_t i = 0;
        while (i < adj.size() && detail::keep_scanning(fn, adj[i++])) {
        }
        return i * sizeof(vertex_t);
    }

    /// Prefetches the adjacency metadata a scan of `v` reads first (the
    /// offsets entry); pairs with CompressedCsrGraph::prefetch_adjacency.
    void prefetch_adjacency(vertex_t v) const noexcept {
        prefetch_read(&offsets_[v]);
    }

    /// True when edge (u, v) exists: a linear scan of u's row, O(deg(u)).
    [[nodiscard]] bool has_edge(vertex_t u, vertex_t v) const noexcept;

    [[nodiscard]] std::span<const edge_offset_t> offsets() const noexcept {
        return offsets_.span();
    }
    [[nodiscard]] std::span<const vertex_t> targets() const noexcept {
        return targets_.span();
    }

    /// Heap bytes held by the two arrays.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return offsets_.size() * sizeof(edge_offset_t) +
               targets_.size() * sizeof(vertex_t);
    }

    /// Structural checks (monotone offsets, targets in range). Returns
    /// true when the instance is a well-formed CSR. Used by tests and by
    /// the binary reader on untrusted files.
    [[nodiscard]] bool well_formed() const noexcept;

    /// Deep structural equality (same offsets and targets; the symmetry
    /// stamp is metadata and not compared).
    friend bool operator==(const CsrGraph& a, const CsrGraph& b) noexcept;

  private:
    AlignedBuffer<edge_offset_t> offsets_;
    AlignedBuffer<vertex_t> targets_;
    bool symmetric_ = false;
    std::uint64_t id_ = next_graph_id();
};

}  // namespace sge
