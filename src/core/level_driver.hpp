#pragma once

// The level-synchronous skeleton shared by the parallel engines
// (docs/ALGORITHMS.md "Memory model groundwork"). Internal: include only
// from src/core/*.cpp.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>

#include "concurrency/spin_barrier.hpp"
#include "concurrency/thread_team.hpp"
#include "concurrency/versioned_bitmap.hpp"
#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "graph/partition.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/timer.hpp"

namespace sge::detail {

/// One worker's view of the level in flight, built by the driver at the
/// top of every level and handed to the step's scan and convert hooks.
struct LevelCtx {
    int tid;
    level_t depth;
    LevelAccum& slot;  // this level's shared counters
    SpinBarrier& barrier;
    bool timed;        // time barrier waits into `slot` (collect_stats)
    vertex_t* parent;
    level_t* level;    // null when levels are not computed
    vertex_t* out;     // this worker's compactor buffer
    std::size_t staged = 0;  // discoveries written to `out` this level
    ThreadCounters counters;

    /// Barrier arrival (timed into the level's slot when stats are on).
    /// False when the run was aborted: the caller must return at once.
    bool wait() { return timed_wait(barrier, slot, timed); }

    /// Records a claim of `v` from parent `u` that this worker won.
    void settle(vertex_t v, vertex_t u) noexcept {
        counters.add<LevelCounter::atomic_wins>(1);
        parent[v] = u;  // winner-only plain store
        if (level != nullptr) level[v] = depth + 1;
    }

    /// settle(), then stage `v` for the next frontier (a plain store into
    /// the worker's private buffer; the driver compacts it into NQ).
    void discover(vertex_t v, vertex_t u) noexcept {
        settle(v, u);
        out[staged++] = v;
    }
};

/// Algorithm 2's double-checked claim: a plain load filters vertices that
/// are already visited before paying the `lock or` (Figure 4: in late
/// levels nearly all checks are filtered). The bit may flip between test
/// and test_and_set, so the atomic still arbitrates the winner;
/// correctness never depends on the plain load. True when this worker won.
inline bool double_checked_claim(VersionedBitmap& visited, vertex_t v,
                                 bool double_check,
                                 ThreadCounters& counters) noexcept {
    counters.add<LevelCounter::bitmap_checks>(1);
    if (double_check && visited.test(v)) {
        counters.add<LevelCounter::bitmap_skips>(1);
        return false;
    }
    counters.add<LevelCounter::atomic_ops>(1);
    return !visited.test_and_set(v);
}

/// Runs one BFS from `root` over `g` as levels separated by barriers, on
/// `team` and the workspace prepare()d for this engine. The driver owns
/// everything the parallel engines do identically: root check and result
/// reset, the barrier and progress block, level slots and timing, thread
/// spans, the watchdog, the once-per-level cancel poll, the compact
/// copy-out, the unreached-sentinel fill, the allocation-free check and
/// the epilogue. `step` supplies the rest, resolved at compile time:
///
///   void seed(vertex_t root)        claim `root` and plan level 0 (caller
///                                   thread, before the team starts)
///   bool compacts() const           this level's discoveries go through
///                                   the compactor (read by every worker
///                                   at the top of the level)
///   bool scan(LevelCtx&)            scan and claim this worker's share of
///                                   the frontier; false when a barrier
///                                   inside the step was aborted
///   vertex_t* next_slots(int tid)   the queue slots tid's segment lands in
///   std::uint64_t end_level()       thread 0, once the level is quiescent:
///                                   close it, return |next frontier|
///   void plan_next()                thread 0: schedule the next level
///   bool convert(LevelCtx&)         every worker, between levels: change
///                                   the frontier's representation
///   bool visited(std::size_t v)     the unreached-sentinel test
///   std::uint64_t edges_traversed(std::uint64_t scanned)
///                                   the run's `ma`, given Σ edges_scanned
///   std::string diagnose() const    watchdog snapshot (atomic reads only)
///
/// A level costs three barriers (scan, copy-out, bookkeeping) plus any the
/// step's scan or convert adds; a level that does not compact skips the
/// copy-out's.
template <class Graph, class Step>
void run_levels(const Graph& g, vertex_t root, const char* name,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result, Step& step) {
    check_root(g, root);
    const vertex_t n = g.num_vertices();
    const int threads = team.size();
    const SocketPartition partition(n, team.sockets_used());
    reset_result(result, n, options.compute_levels);
    vertex_t* const parent = result.parent.data();
    level_t* const level = options.compute_levels ? result.level.data() : nullptr;

    SpinBarrier barrier(threads);
    FrontierCompactor& fc = ws.compactor;
    LevelAccumLog& stats = ws.accum;
    const bool collect = options.collect_stats;
    SpanRecorder spans(threads, collect);

    // Written by thread 0 between barriers; the atomics let the watchdog
    // snapshot progress mid-run.
    struct Shared {
        std::atomic<std::uint64_t> visited{1};
        std::atomic<std::uint32_t> levels_run{0};
        std::uint64_t edges = 0;
        bool done = false;
        bool cancelled = false;
    } shared;

    // No init pass: the workspace's epoch bumps already cleared the
    // visited state, and unreached parent/level slots are filled after
    // the traversal. team.run publishes the seed to every worker.
    step.seed(root);
    parent[root] = root;
    if (level != nullptr) level[root] = 0;
    acquire_level_slot(stats, 0).set<LevelCounter::frontier_size>(1);

    LevelWatchdog watchdog(resolve_watchdog_seconds(options), barrier, [&] {
        return "level=" +
               std::to_string(shared.levels_run.load(std::memory_order_relaxed)) +
               " visited=" +
               std::to_string(shared.visited.load(std::memory_order_relaxed)) +
               step.diagnose();
    });

    WallTimer timer;
    team.run([&](int tid) {
        // Per-thread count: another runner's prepare on another thread
        // must not trip this worker's check.
        [[maybe_unused]] const std::uint64_t allocs_before =
            thread_aligned_alloc_count();
        vertex_t* const out = fc.buffer(tid);
        WallTimer level_timer;  // thread 0 stamps per-level wall time
        for (level_t depth = 0;; ++depth) {
            const std::uint64_t span_start = spans.now(timer);
            // Deque slots never relocate, so the reference stays valid
            // across thread 0's acquire of the next slot.
            LevelCtx lv{tid, depth, stats[depth], barrier, collect,
                        parent, level, out, 0, {}};
            const bool compacts = step.compacts();
            if (!step.scan(lv)) return;
            if (compacts) fc.publish(tid, lv.staged);
            lv.counters.flush_into(lv.slot);
            if (!lv.wait()) return;

            if (compacts) {
                // Every count is published and barrier-ordered: copy this
                // worker's segment to its exclusive prefix offset, then
                // one more barrier so thread 0 sees the complete queue.
                compact_copy_out(fc, tid, step.next_slots(tid), lv.slot);
                if (!lv.wait()) return;
            }

            if (tid == 0) {
                lv.slot.set<LevelCounter::seconds>(level_timer.seconds());
                level_timer.reset();
                shared.edges += lv.slot.get<LevelCounter::edges_scanned>();
                const std::uint64_t next = step.end_level();
                shared.visited.fetch_add(next, std::memory_order_relaxed);
                shared.levels_run.fetch_add(1, std::memory_order_relaxed);
                shared.done = next == 0;
                if (!shared.done && poll_cancel(options)) {
                    shared.cancelled = true;
                    shared.done = true;
                }
                if (!shared.done) {
                    acquire_level_slot(stats, depth + 1)
                        .set<LevelCounter::frontier_size>(next);
                    step.plan_next();
                }
            }
            if (!lv.wait()) return;
            spans.record(tid, depth, span_start, spans.now(timer));
            if (shared.done) break;
            if (!step.convert(lv)) return;
        }

        // Unreached sentinels for this worker's share of its socket's
        // slice (writes only the slots no winner claimed).
        const int my = team.socket_of(tid);
        const auto [lo, hi] = partition.range(my);
        const auto [b, e] = split_range(
            hi - lo, ws.socket_threads[static_cast<std::size_t>(my)],
            ws.rank_in_socket[static_cast<std::size_t>(tid)]);
        fill_unreached(lo + b, lo + e, parent, level,
                       [&](std::size_t v) { return step.visited(v); });

        // A prepared workspace makes the traversal allocation-free.
        assert(thread_aligned_alloc_count() == allocs_before);
    }, &barrier);

    const std::uint32_t levels = shared.levels_run.load(std::memory_order_relaxed);
    const std::uint64_t visited = shared.visited.load(std::memory_order_relaxed);
    finish_watchdog(watchdog, name, levels, visited);
    if (shared.cancelled) throw_cancelled(name, levels, visited);
    result.seconds = timer.seconds();
    spans.collect_into(result);
    result.vertices_visited = visited;
    result.edges_traversed = step.edges_traversed(shared.edges);
    result.num_levels = levels;
    if (collect) copy_level_stats(result.level_stats, stats, levels);
}

// The engines: each builds its step and hands it to run_levels. Defined
// (and instantiated for the three graph backends) in bfs_<engine>.cpp.

/// Algorithm 1 (bfs_naive.cpp).
template <class Graph>
void bfs_naive(const Graph& g, vertex_t root, const BfsOptions& options,
               ThreadTeam& team, BfsWorkspace& ws, BfsResult& result);

/// Algorithm 3 (bfs_multisocket.cpp).
template <class Graph>
void bfs_multisocket(const Graph& g, vertex_t root, const BfsOptions& options,
                     ThreadTeam& team, BfsWorkspace& ws, BfsResult& result);

/// kHybrid, and Algorithm 2 as kHybrid with direction flips off
/// (bfs_hybrid.cpp); `engine` is one of the two.
template <class Graph>
void bfs_hybrid(const Graph& g, vertex_t root, BfsEngine engine,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result);

}  // namespace sge::detail
