#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace sge {

/// Mutable adjacency structure for streaming workloads — the paper's
/// conclusion points the design at "streaming and irregular
/// applications"; this is the ingestion side: edges arrive over time,
/// queries (BFS, analytics) run against the current state.
///
/// Representation: one growable vector per vertex with amortised-O(1)
/// undirected insertion. Not thread-safe for concurrent mutation (a
/// stream has one writer); snapshot() produces an immutable CsrGraph
/// for the parallel engines, which is the intended query path for
/// anything heavier than the incremental BFS maintenance in
/// stream/incremental_bfs.hpp. For concurrent readers against a single
/// writer, wrap it in stream/versioned_store.hpp instead of sharing
/// this object across threads.
///
/// Every mutation bumps a monotonic version() counter. Derived state
/// (IncrementalBfs) records the version it has observed and refuses to
/// answer queries across unobserved mutations — the guard that turned
/// "call rebuild() after removals" from a comment into a contract.
class DynamicGraph {
  public:
    explicit DynamicGraph(vertex_t num_vertices)
        : adjacency_(num_vertices), sorted_(num_vertices, 1) {}

    /// Builds from an existing static graph (arcs copied as-is; lists
    /// already sorted by the CSR builder snapshot straight through).
    /// Inherits its symmetry stamp: mutations insert and remove both
    /// arcs, so they keep a symmetric graph symmetric, but cannot make
    /// an unstamped one trustworthy.
    explicit DynamicGraph(const CsrGraph& g)
        : adjacency_(g.num_vertices()),
          sorted_(g.num_vertices()),
          symmetric_(g.symmetric()) {
        for (vertex_t v = 0; v < g.num_vertices(); ++v) {
            const auto adj = g.neighbors(v);
            adjacency_[v].assign(adj.begin(), adj.end());
            sorted_[v] = std::is_sorted(adj.begin(), adj.end()) ? 1 : 0;
            num_arcs_ += adj.size();
        }
    }

    [[nodiscard]] vertex_t num_vertices() const noexcept {
        return static_cast<vertex_t>(adjacency_.size());
    }
    [[nodiscard]] std::uint64_t num_arcs() const noexcept { return num_arcs_; }

    /// Symmetry stamp of every snapshot() (CsrGraph::symmetric()): true
    /// for a graph grown from DynamicGraph(n), the source's stamp for
    /// DynamicGraph(const CsrGraph&).
    [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }

    /// Monotonic mutation counter: bumped once per add_vertex, add_edge
    /// and (successful) remove_edge. Consumers that maintain state
    /// derived from the adjacency (IncrementalBfs) record the last
    /// version they observed; a mismatch at query time means a mutation
    /// slipped past their notification hooks.
    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

    /// Appends a new isolated vertex; returns its id.
    vertex_t add_vertex() {
        adjacency_.emplace_back();
        sorted_.push_back(1);
        ++version_;
        return static_cast<vertex_t>(adjacency_.size() - 1);
    }

    /// Inserts the undirected edge {u, v} (two arcs). No deduplication —
    /// streams may carry repeats; has_edge/degree see multiplicity.
    /// Throws std::out_of_range for bad ids.
    void add_edge(vertex_t u, vertex_t v) {
        check(u);
        check(v);
        append_arc(u, v);
        if (u != v) append_arc(v, u);
        num_arcs_ += (u == v) ? 1 : 2;
        ++version_;
    }

    /// Removes one occurrence of the undirected edge {u, v}; returns
    /// false when absent (and does not count as a mutation).
    bool remove_edge(vertex_t u, vertex_t v) {
        check(u);
        check(v);
        if (!erase_one(u, v)) return false;
        if (u != v) erase_one(v, u);
        num_arcs_ -= (u == v) ? 1 : 2;
        ++version_;
        return true;
    }

    /// Neighbour multiset of `v`. Order is unspecified: snapshot() may
    /// lazily sort lists in place.
    [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const {
        check(v);
        return adjacency_[v];
    }

    [[nodiscard]] std::uint64_t degree(vertex_t v) const {
        check(v);
        return adjacency_[v].size();
    }

    [[nodiscard]] bool has_edge(vertex_t u, vertex_t v) const {
        check(u);
        check(v);
        for (const vertex_t w : adjacency_[u])
            if (w == v) return true;
        return false;
    }

    /// Vertices whose adjacency list is not currently known-sorted —
    /// exactly the lists the next snapshot() must sort before copying
    /// out. Clean lists (untouched since the last snapshot, or built by
    /// ascending insertion) memcpy straight through.
    [[nodiscard]] std::size_t dirty_vertices() const noexcept {
        std::size_t dirty = 0;
        for (const std::uint8_t s : sorted_) dirty += (s == 0);
        return dirty;
    }

    /// Immutable CSR snapshot of the current state (sorted adjacency).
    /// Amortised cost: only lists dirtied since the previous snapshot
    /// are re-sorted (in place, clearing their dirty bit); clean lists
    /// are a straight copy.
    [[nodiscard]] CsrGraph snapshot() const;

  private:
    void check(vertex_t v) const {
        if (v >= adjacency_.size())
            throw std::out_of_range("DynamicGraph: vertex out of range");
    }

    void append_arc(vertex_t u, vertex_t v) {
        auto& adj = adjacency_[u];
        if (!adj.empty() && v < adj.back()) sorted_[u] = 0;
        adj.push_back(v);
    }

    bool erase_one(vertex_t u, vertex_t v) {
        auto& adj = adjacency_[u];
        for (std::size_t i = 0; i < adj.size(); ++i) {
            if (adj[i] == v) {
                // Swap-erase breaks order unless the victim was already
                // the last element.
                if (i + 1 != adj.size()) {
                    adj[i] = adj.back();
                    sorted_[u] = 0;
                }
                adj.pop_back();
                if (adj.size() <= 1) sorted_[u] = 1;
                return true;
            }
        }
        return false;
    }

    // `mutable`: snapshot() is logically const (the neighbour multiset
    // is unchanged) but lazily sorts dirty lists in place so repeated
    // snapshots of an untouched graph are pure copies.
    mutable std::vector<std::vector<vertex_t>> adjacency_;
    mutable std::vector<std::uint8_t> sorted_;
    std::uint64_t num_arcs_ = 0;
    std::uint64_t version_ = 0;
    bool symmetric_ = true;
};

}  // namespace sge
