#include "stream/incremental_bfs.hpp"

#include <stdexcept>

namespace sge {

IncrementalBfs::IncrementalBfs(const CsrGraph& g, vertex_t root) : root_(root) {
    rebuild(g);
}

void IncrementalBfs::rebuild(const CsrGraph& g) {
    if (root_ >= g.num_vertices())
        throw std::out_of_range("IncrementalBfs: root out of range");
    level_.assign(g.num_vertices(), kInvalidLevel);
    reached_ = 0;
    arcs_ = g.num_edges();
    // A wave seeded with the root alone is a plain BFS.
    relax(root_, 0);
    bfs_wave(g);
    stats_ = RepairStats{};
}

/// Lowers `to` to `candidate` and enqueues it there, if that is lower.
bool IncrementalBfs::relax(vertex_t to, level_t candidate) {
    if (level_[to] != kInvalidLevel && level_[to] <= candidate) return false;
    if (level_[to] == kInvalidLevel) ++reached_;
    level_[to] = candidate;
    queue_.push_back({to, candidate});
    ++stats_.enqueued;
    return true;
}

std::size_t IncrementalBfs::bfs_wave(const CsrGraph& g) {
    // Decrease-only relaxation wave: a vertex enters the queue when its
    // level just dropped; its neighbours re-check. An entry whose
    // vertex improved again after enqueue is stale — the better entry
    // is (or was) in the queue too, so the stale one is dropped without
    // rescanning the adjacency. With mixed-level seeds (batched
    // insertions) this is what keeps cascading repairs linear in edges
    // actually re-examined instead of quadratic in the repair region.
    ++stats_.waves;
    std::size_t changed = 0;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        const WaveEntry e = queue_[head];
        if (level_[e.v] != e.enqueue_level) {
            ++stats_.stale_skips;
            continue;
        }
        const auto neighbors = g.neighbors(e.v);
        stats_.edges_scanned += neighbors.size();
        for (const vertex_t w : neighbors)
            if (relax(w, e.enqueue_level + 1)) ++changed;
    }
    queue_.clear();
    return changed;
}

std::size_t IncrementalBfs::on_edges_added(
    const CsrGraph& next,
    std::span<const std::pair<vertex_t, vertex_t>> edges) {
    if (next.num_vertices() != level_.size())
        throw std::logic_error(
            "IncrementalBfs: next graph has a different vertex count");
    edge_offset_t arcs = arcs_;
    for (const auto& [u, v] : edges) {
        if (u >= level_.size() || v >= level_.size())
            throw std::out_of_range("IncrementalBfs: endpoint out of range");
        arcs += (u == v) ? 1 : 2;
    }
    if (next.num_edges() != arcs)
        throw std::logic_error(
            "IncrementalBfs: next graph is not the last one plus the "
            "notified edges (a missed insertion or an unannounced "
            "removal) — pass graphs with removals to rebuild()");
    arcs_ = arcs;

    // Seed every improvable endpoint, then run ONE wave over all of
    // them: overlapping repair regions coalesce, and the stale-entry
    // skip drops whichever seeds a better seed already superseded.
    std::size_t changed = 0;
    for (const auto& [u, v] : edges) {
        if (level_[u] != kInvalidLevel && relax(v, level_[u] + 1)) ++changed;
        if (level_[v] != kInvalidLevel && relax(u, level_[v] + 1)) ++changed;
    }
    if (!queue_.empty()) changed += bfs_wave(next);
    return changed;
}

}  // namespace sge
