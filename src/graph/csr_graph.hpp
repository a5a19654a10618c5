#pragma once

#include <cstddef>
#include <span>

#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/prefetch.hpp"

namespace sge {

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

    /// The adjacency list of `v` as a read-only span.
    [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const noexcept {
        return {targets_.data() + offsets_[v],
                static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
    }

    /// Calls `fn(w)` for every neighbour of `v` in storage order.
    /// Returns the adjacency bytes touched (degree * sizeof(vertex_t))
    /// — the same contract as CompressedCsrGraph::neighbors_for_each,
    /// so accessor-generic code can account streamed volume uniformly.
    template <class Fn>
    std::size_t neighbors_for_each(vertex_t v, Fn&& fn) const noexcept {
        const auto adj = neighbors(v);
        for (const vertex_t w : adj) fn(w);
        return adj.size() * sizeof(vertex_t);
    }

    /// Early-exit variant: `fn(w)` returns true to continue, false to
    /// stop. Returns the bytes touched up to and including the stopping
    /// element.
    template <class Fn>
    std::size_t neighbors_for_each_until(vertex_t v, Fn&& fn) const noexcept {
        const auto adj = neighbors(v);
        std::size_t i = 0;
        while (i < adj.size()) {
            ++i;
            if (!fn(adj[i - 1])) break;
        }
        return i * sizeof(vertex_t);
    }

    /// Prefetches the adjacency metadata a scan of `v` reads first (the
    /// offsets entry); pairs with CompressedCsrGraph::prefetch_adjacency.
    void prefetch_adjacency(vertex_t v) const noexcept {
        prefetch_read(&offsets_[v]);
    }

    /// True when edge (u, v) exists. O(log deg(u)) when the graph was
    /// built with sorted adjacencies (the builder default), else O(deg).
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
};

}  // namespace sge
