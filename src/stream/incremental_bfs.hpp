#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace sge {

/// Work accounting of the repair waves (cumulative since construction /
/// last rebuild). `stale_skips` counts queue entries abandoned because
/// the vertex's level improved again after it was enqueued — without
/// the skip each such entry would rescan the vertex's full adjacency,
/// which is what made dense repair regions quadratic.
struct RepairStats {
    std::uint64_t waves = 0;        ///< repair waves run
    std::uint64_t enqueued = 0;     ///< queue entries pushed
    std::uint64_t stale_skips = 0;  ///< entries dropped without a rescan
    std::uint64_t edges_scanned = 0;///< adjacency entries examined
};

/// Incrementally-maintained BFS levels from a fixed root under edge
/// insertions — the streaming companion to the batch engines: after
/// each insertion batch the levels are repaired locally instead of
/// recomputed from scratch, so a stream of m edges costs O(total
/// repair) rather than O(m * (n + m)).
///
/// Repair rule for a new edge {u, v}: if one endpoint's level can drop
/// (level[u] + 1 < level[v] or vice versa), lower it and propagate the
/// improvement as a BFS wave that only touches vertices whose level
/// actually decreases — each vertex can decrease at most `levels`
/// times over the whole stream, bounding the total work. Queue entries
/// record the level at enqueue time; an entry whose vertex has since
/// improved further is skipped without rescanning its adjacency.
///
/// One snapshot per call: the object keeps no reference to a graph.
/// Levels are for the last graph passed in, and each call names the
/// graph it moves to. Deletions are out of scope (level *increases*
/// need the full decremental machinery): pass the graph after removals
/// to rebuild(). on_edges_added checks that `next` is the last graph
/// plus exactly the notified edges — same vertex count, and an arc
/// count grown by 2 per edge (1 per self-loop) — and throws
/// std::logic_error otherwise, so a missed insertion or an unannounced
/// removal is an attributable error rather than silently stale levels.
class IncrementalBfs {
  public:
    /// Computes levels from `root` on `g`. Throws std::out_of_range for
    /// a root outside `g`.
    IncrementalBfs(const CsrGraph& g, vertex_t root);

    /// Moves to `next`, which must be the last graph plus every edge in
    /// `edges`. All improved endpoints seed one repair wave, so a batch
    /// of shortcuts into the same region is repaired in one cascade
    /// instead of `edges.size()` overlapping ones. Returns the number of
    /// vertices whose level changed.
    std::size_t on_edges_added(
        const CsrGraph& next,
        std::span<const std::pair<vertex_t, vertex_t>> edges);

    /// Recomputes from scratch on `g` (after deletions or bulk edits).
    void rebuild(const CsrGraph& g);

    [[nodiscard]] vertex_t root() const noexcept { return root_; }
    [[nodiscard]] level_t level(vertex_t v) const { return level_.at(v); }
    [[nodiscard]] bool reached(vertex_t v) const {
        return level_.at(v) != kInvalidLevel;
    }
    [[nodiscard]] std::uint64_t reached_count() const noexcept {
        return reached_;
    }
    [[nodiscard]] const std::vector<level_t>& levels() const noexcept {
        return level_;
    }

    /// Cumulative repair-wave work counters (reset by rebuild()).
    [[nodiscard]] const RepairStats& repair_stats() const noexcept {
        return stats_;
    }

  private:
    /// A pending repair: `v` entered the queue when its level dropped
    /// to `enqueue_level`; if level_[v] has improved further since, the
    /// entry is stale and is skipped.
    struct WaveEntry {
        vertex_t v;
        level_t enqueue_level;
    };

    bool relax(vertex_t to, level_t candidate);
    /// Runs the queued entries to completion; returns the level changes.
    std::size_t bfs_wave(const CsrGraph& g);

    vertex_t root_;
    std::vector<level_t> level_;
    std::vector<WaveEntry> queue_;  // reused across waves
    std::uint64_t reached_ = 0;
    /// Arc count of the last graph passed: the base of the next call's
    /// check.
    edge_offset_t arcs_ = 0;
    RepairStats stats_;
};

}  // namespace sge
