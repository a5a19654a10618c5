#pragma once

// VersionedGraphStore — epoch-snapshot graph versioning for live
// graphs: one writer applies batched edge inserts/deletes and publishes
// immutable CsrGraph snapshots; any number of concurrent readers pin a
// snapshot and traverse it while the next version is being built. A
// published snapshot is immutable forever, its version number is the
// epoch, and "reset" is publishing the next epoch rather than touching
// the old one.
//
// One copy of the graph: the current snapshot is the store's only copy
// of it. apply() builds version v+1 from version v plus the batch —
// untouched rows are block-copied, touched rows are merged in sorted
// order — repairs the tracked roots against it, and only then swaps it
// in. Everything that can throw runs before that swap, so a failed
// apply() leaves the version, the snapshot, the counters and the
// tracked levels exactly as they were.
//
// Concurrency contract:
//   * writer side (apply / track / untrack) is serialized by an
//     internal mutex — one logical writer, but calls may come from any
//     thread (the service's workers all forward mutation requests
//     here);
//   * reader side (acquire / version / counters) is safe from any
//     thread at any time. acquire() pins the current snapshot under a
//     short lock; the pin itself is a lock-free refcount, so releasing
//     never blocks a publish;
//   * a retired snapshot (superseded by a newer version) is reclaimed
//     only when its last reader drops — the writer sweeps on each
//     publish, so memory is bounded by the snapshots still pinned.
//
// Consistency guarantee (the staleness contract, see
// docs/ROBUSTNESS.md): a reader never observes a half-applied batch.
// Every pinned snapshot is the exact graph after some prefix of the
// applied batches; queries are stale by at most the batches published
// after their pin, never torn.
//
// Level maintenance: roots registered with track() keep incremental
// BFS levels alongside the graph. Insert-only batches repair them
// through IncrementalBfs (one multi-seed wave per batch);
// delete-containing batches fall back to a rebuild against the new
// version — deletions need level increases, which the decrease-only
// repair cannot produce.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "stream/incremental_bfs.hpp"

namespace sge {

/// One edge mutation on the edge multiset. An insert of {u, v} adds the
/// arcs (u, v) and (v, u) (one arc for a self-loop); a remove succeeds
/// when row u holds v, erases that arc and one (v, u) if row v holds
/// one.
struct EdgeOp {
    enum class Kind : std::uint8_t { kInsert, kRemove };
    Kind kind = Kind::kInsert;
    vertex_t u = 0;
    vertex_t v = 0;
};

/// An ordered batch of edge mutations, applied atomically with respect
/// to readers: no snapshot ever shows part of a batch.
struct MutationBatch {
    std::vector<EdgeOp> ops;

    void insert(vertex_t u, vertex_t v) {
        ops.push_back({EdgeOp::Kind::kInsert, u, v});
    }
    void remove(vertex_t u, vertex_t v) {
        ops.push_back({EdgeOp::Kind::kRemove, u, v});
    }
    [[nodiscard]] bool empty() const noexcept { return ops.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
};

/// Always-on monotonic counters (the ServiceCounters pattern): ticked
/// by the writer, readable from any thread.
struct StoreCounters {
    std::atomic<std::uint64_t> batches_applied{0};
    std::atomic<std::uint64_t> snapshots_published{0};
    /// Edge ops that actually changed the graph (compacted inserts +
    /// successful removes) — the delta volume, as opposed to ops
    /// submitted.
    std::atomic<std::uint64_t> delta_edges{0};
    /// Removes of absent edges plus insert/remove pairs that cancelled
    /// within one batch — submitted work that produced no delta.
    std::atomic<std::uint64_t> noop_ops{0};
    /// Tracked-root level entries changed by insert-only repair waves.
    std::atomic<std::uint64_t> repair_touched{0};
    /// Tracked-root rebuilds forced by delete-containing batches.
    std::atomic<std::uint64_t> rebuilds{0};
    /// Snapshots superseded by a publish / freed after their last
    /// reader dropped. retired - reclaimed = retired snapshots still
    /// pinned by in-flight readers.
    std::atomic<std::uint64_t> snapshots_retired{0};
    std::atomic<std::uint64_t> snapshots_reclaimed{0};
};

namespace detail {

/// One published graph version. Immutable after publish; `pins` is the
/// reader refcount (lock-free release, mutex-guarded acquire).
struct GraphSnapshot {
    CsrGraph graph;
    std::uint64_t version = 0;
    mutable std::atomic<std::uint64_t> pins{0};
};

}  // namespace detail

class VersionedGraphStore;

/// RAII pin on one published snapshot: the graph it exposes is
/// immutable and outlives the ref, no matter how many versions the
/// writer publishes meanwhile. Move-only; the owning store must
/// outlive every ref. An empty (moved-from / default) ref has no
/// graph.
class SnapshotRef {
  public:
    SnapshotRef() = default;
    SnapshotRef(SnapshotRef&& other) noexcept : snap_(other.snap_) {
        other.snap_ = nullptr;
    }
    SnapshotRef& operator=(SnapshotRef&& other) noexcept {
        if (this != &other) {
            release();
            snap_ = other.snap_;
            other.snap_ = nullptr;
        }
        return *this;
    }
    SnapshotRef(const SnapshotRef&) = delete;
    SnapshotRef& operator=(const SnapshotRef&) = delete;
    ~SnapshotRef() { release(); }

    [[nodiscard]] const CsrGraph& graph() const noexcept {
        return snap_->graph;
    }
    [[nodiscard]] std::uint64_t version() const noexcept {
        return snap_->version;
    }
    [[nodiscard]] explicit operator bool() const noexcept {
        return snap_ != nullptr;
    }

    /// Drops the pin early (idempotent; the destructor does the same).
    void release() noexcept {
        if (snap_ != nullptr) {
            // Release ordering: every read of the graph happens-before
            // the unpin, so the writer's acquire-load of pins == 0
            // licenses reclamation.
            snap_->pins.fetch_sub(1, std::memory_order_release);
            snap_ = nullptr;
        }
    }

  private:
    friend class VersionedGraphStore;
    explicit SnapshotRef(const detail::GraphSnapshot* snap) noexcept
        : snap_(snap) {}

    const detail::GraphSnapshot* snap_ = nullptr;
};

class VersionedGraphStore {
  public:
    /// Seeds the store from a static graph (version 1 is its snapshot).
    /// Its rows are copied as they are, except that unsorted rows are
    /// sorted; the snapshots inherit `initial`'s symmetry stamp.
    explicit VersionedGraphStore(const CsrGraph& initial);

    /// Starts from `num_vertices` isolated vertices. The vertex set is
    /// fixed for the store's lifetime; mutations are edge ops. The
    /// snapshots are stamped symmetric.
    explicit VersionedGraphStore(vertex_t num_vertices);

    VersionedGraphStore(const VersionedGraphStore&) = delete;
    VersionedGraphStore& operator=(const VersionedGraphStore&) = delete;

    /// Destruction requires every SnapshotRef to have been released.
    ~VersionedGraphStore() = default;

    // ---- reader side (any thread) ----

    /// Pins and returns the latest published snapshot.
    [[nodiscard]] SnapshotRef acquire() const;

    /// Version of the latest published snapshot (>= the version of any
    /// snapshot already acquired — the reader's staleness window is
    /// `version() - ref.version()` batches).
    [[nodiscard]] std::uint64_t version() const noexcept {
        return published_version_.load(std::memory_order_acquire);
    }

    [[nodiscard]] vertex_t num_vertices() const noexcept {
        return num_vertices_;
    }

    [[nodiscard]] const StoreCounters& counters() const noexcept {
        return counters_;
    }

    /// Published snapshots currently alive: the current one plus any
    /// retired versions still pinned by readers.
    [[nodiscard]] std::size_t live_snapshots() const;

    // ---- writer side (serialized internally) ----

    /// Applies `batch` (compacted: in-batch insert/remove pairs cancel)
    /// and publishes the resulting snapshot. Returns the new version.
    /// An empty or fully-cancelled batch publishes nothing and returns
    /// the current version. Throws std::out_of_range on bad vertex ids,
    /// or whatever building the next version throws (std::bad_alloc);
    /// a throwing apply() changes nothing.
    std::uint64_t apply(const MutationBatch& batch);

    /// Frees retired snapshots whose last reader has dropped (also done
    /// automatically on every publish). Returns the number freed.
    std::size_t reclaim();

    // ---- tracked roots: incremental levels per published version ----

    /// Registers `root` for incremental level maintenance. Idempotent.
    void track(vertex_t root);
    void untrack(vertex_t root);

    /// Hop distances from a tracked root, consistent with the latest
    /// published version (insert-only batches repaired them, delete
    /// batches rebuilt them — they are never stale). Throws
    /// std::invalid_argument for an untracked root.
    [[nodiscard]] std::vector<level_t> tracked_levels(vertex_t root) const;

  private:
    /// Swaps `next` in as the current snapshot; needs writer_mutex_,
    /// takes pin_mutex_, and cannot throw once `retired_` has room for
    /// one more entry.
    void publish_locked(std::unique_ptr<detail::GraphSnapshot> next) noexcept;
    std::size_t reclaim_pins_locked();

    const vertex_t num_vertices_;

    /// Serializes the writer side: builds, publishes and the tracked
    /// levels.
    mutable std::mutex writer_mutex_;
    std::vector<IncrementalBfs> tracked_;

    /// Guards retired_ and pin acquisition (short critical sections
    /// only: pointer swap, refcount bump, sweep). current_ is replaced
    /// only under both mutexes, so holding either one makes reading it
    /// race-free.
    mutable std::mutex pin_mutex_;
    std::unique_ptr<detail::GraphSnapshot> current_;
    std::vector<std::unique_ptr<detail::GraphSnapshot>> retired_;

    std::atomic<std::uint64_t> published_version_{0};
    mutable StoreCounters counters_;
};

}  // namespace sge
