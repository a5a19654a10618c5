#pragma once

// The level-synchronous skeleton shared by the parallel engines and
// MS-BFS (docs/ALGORITHMS.md "Memory model groundwork"). Internal:
// include only from src/core/*.cpp and tests.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrency/spin_barrier.hpp"
#include "concurrency/thread_team.hpp"
#include "concurrency/atomic_bitmap.hpp"
#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "graph/partition.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/timer.hpp"

namespace sge::detail {

/// One worker's view of the level in flight, built by the driver at the
/// top of every level and handed to the step's scan hook.
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

    /// Barrier arrival, timed into the level's slot when stats are on
    /// (the load-imbalance signal: how long this worker idled for
    /// stragglers). False when the run was aborted: the caller must
    /// return at once.
    bool wait() {
        if (!timed) return barrier.arrive_and_wait();
        WallTimer timer;
        const bool ok = barrier.arrive_and_wait();
        slot.add<LevelCounter::barrier_wait_ns>(timer.nanoseconds());
        return ok;
    }

    /// Records a claim of `v` from parent `u` that this worker won, and
    /// stages `v` for the next frontier (a plain store into the worker's
    /// private buffer; the driver compacts it into NQ).
    void discover(vertex_t v, vertex_t u) noexcept {
        counters.add<LevelCounter::atomic_wins>(1);
        parent[v] = u;  // winner-only plain store
        if (level != nullptr) level[v] = depth + 1;
        out[staged++] = v;
    }
};

/// Algorithm 2's double-checked claim: a plain load filters vertices that
/// are already visited before paying the `lock or` (Figure 4: in late
/// levels nearly all checks are filtered). The bit may flip between test
/// and test_and_set, so the atomic still arbitrates the winner;
/// correctness never depends on the plain load. True when this worker won.
inline bool double_checked_claim(AtomicBitmap& visited, vertex_t v,
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

/// Where a level loop writes: the parent and level arrays discover()
/// writes (null when the step discovers no parents) and, with
/// collect_stats, the per-level counters (then required) and the
/// thread spans (null: none recorded).
struct LevelSinks {
    vertex_t* parent = nullptr;
    level_t* level = nullptr;
    std::vector<BfsLevelStats>* level_stats = nullptr;
    std::vector<BfsThreadSpan>* spans = nullptr;
};

/// What a finished level loop reports.
struct LevelRun {
    std::uint32_t levels = 0;   ///< levels run, the last one empty
    std::uint64_t visited = 0;  ///< the seed plus Σ end_level()
    std::uint64_t edges = 0;    ///< Σ edges_scanned
    double seconds = 0.0;       ///< the team's wall time
};

/// The level loop of every parallel traversal: runs `step` as levels
/// separated by barriers on `team` and the workspace prepared for it,
/// from a level 0 of `seeded` vertices the caller already claimed. The
/// loop owns what every traversal does identically: the barrier and
/// progress block, level slots and timing, thread spans, both checks of
/// the cancel token, the compact copy-out, the allocation-free check and
/// the epilogue. `finish(tid)` runs on every worker once the last level
/// is done. `step` supplies the rest in six hooks, resolved at compile
/// time:
///
///   bool compacts() const           this level's discoveries go through
///                                   the compactor (read by every worker
///                                   at the top of the level)
///   bool scan(LevelCtx&)            scan and claim this worker's share of
///                                   the frontier (a compacting level
///                                   stages each discovery with
///                                   LevelCtx::discover); false when a
///                                   barrier inside the step was aborted
///   vertex_t* next_slots(int tid)   the queue slots tid's segment lands in
///   std::uint64_t end_level()       thread 0, once the level is quiescent:
///                                   close it, return |next frontier|
///   void plan_next()                thread 0: schedule the next level
///   std::string diagnose() const    the state a stopped level left
///                                   behind, read after the workers joined
///
/// A level costs three barriers (scan, copy-out, bookkeeping) plus any the
/// step's scan adds; a level that does not compact skips the copy-out's.
/// The cancel token ends a run two ways, and both throw
/// BfsDeadlineError: thread 0's poll after a level stops the run at that
/// level's end, and the token's deadline, passed to team.run, aborts the
/// barrier under a level still running then. An aborted level reports the
/// last completed one as the progress, and its what() adds diagnose().
template <class Step, class Finish>
LevelRun run_levels(const char* name, const BfsOptions& options,
                    ThreadTeam& team, BfsWorkspace& ws, Step& step,
                    std::uint64_t seeded, const LevelSinks& sinks,
                    const Finish& finish) {
    const int threads = team.size();
    SpinBarrier barrier(threads);
    FrontierCompactor& fc = ws.compactor;
    LevelAccumLog& stats = ws.accum;
    const bool collect = options.collect_stats;
    SpanRecorder spans(threads, collect && sinks.spans != nullptr);

    // Written by thread 0 between barriers, read after the join.
    struct Shared {
        std::uint64_t visited;
        std::uint32_t levels_run = 0;
        std::uint64_t edges = 0;
        bool done = false;
        bool cancelled = false;
    } shared{seeded};
    // Set by a worker whose barrier wait failed, so it left the level
    // loop early (the deadline aborted the barrier). Not the barrier's
    // aborted(): an abort landing after the last barrier stops nobody.
    std::atomic<bool> stopped{false};
    acquire_level_slot(stats, 0).set<LevelCounter::frontier_size>(seeded);

    WallTimer timer;
    // One worker's levels: true when it ran them all, false when a
    // barrier was aborted under it.
    const auto levels = [&](int tid) {
        WallTimer level_timer;  // thread 0 stamps per-level wall time
        for (level_t depth = 0;; ++depth) {
            const std::uint64_t span_start = spans.now(timer);
            // Only a compacting level takes a compactor buffer: a
            // workspace prepared for MS-BFS alone has none.
            const bool compacts = step.compacts();
            // Deque slots never relocate, so the reference stays valid
            // across thread 0's acquire of the next slot.
            LevelCtx lv{tid, depth, stats[depth], barrier, collect,
                        sinks.parent, sinks.level,
                        compacts ? fc.buffer(tid) : nullptr, 0, {}};
            if (!step.scan(lv)) return false;
            if (compacts) fc.publish(tid, lv.staged);
            lv.counters.flush_into(lv.slot);
            if (!lv.wait()) return false;

            if (compacts) {
                // Every count is published and barrier-ordered: copy this
                // worker's segment to its exclusive prefix offset, then
                // one more barrier so thread 0 sees the complete queue.
                compact_copy_out(fc, tid, step.next_slots(tid), lv.slot);
                if (!lv.wait()) return false;
            }

            if (tid == 0) {
                lv.slot.set<LevelCounter::seconds>(level_timer.seconds());
                level_timer.reset();
                shared.edges += lv.slot.get<LevelCounter::edges_scanned>();
                const std::uint64_t next = step.end_level();
                shared.visited += next;
                ++shared.levels_run;
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
            if (!lv.wait()) return false;
            spans.record(tid, depth, span_start, spans.now(timer));
            if (shared.done) return true;
        }
    };

    team.run(
        [&](int tid) {
            // Per-thread count: another runner's prepare on another
            // thread must not trip this worker's check.
            [[maybe_unused]] const std::uint64_t allocs_before =
                thread_aligned_alloc_count();
            if (!levels(tid)) {
                stopped.store(true, std::memory_order_relaxed);
                return;
            }
            finish(tid);

            // A prepared workspace makes the traversal allocation-free.
            assert(thread_aligned_alloc_count() == allocs_before);
        },
        &barrier,
        options.cancel != nullptr ? options.cancel->deadline()
                                  : CancelToken::clock::time_point::max());

    const LevelRun run{shared.levels_run, shared.visited, shared.edges,
                       timer.seconds()};
    if (stopped.load(std::memory_order_relaxed))
        throw BfsDeadlineError(std::string(name) +
                                   ": CancelToken deadline passed mid-level; "
                                   "level=" + std::to_string(run.levels) +
                                   " visited=" + std::to_string(run.visited) +
                                   step.diagnose(),
                               run.levels, run.visited);
    if (shared.cancelled) throw_cancelled(name, run.levels, run.visited);
    if (sinks.spans != nullptr) spans.collect_into(*sinks.spans);
    if (collect) copy_level_stats(*sinks.level_stats, stats, run.levels);
    return run;
}

/// One BFS from `root` into `result`: the single-source layer over
/// run_levels. It checks the root, resets the result, seeds the root,
/// fills the unreached sentinels after the last level and reports the
/// run's `ma`. `step` adds three hooks to run_levels':
///
///   void seed(vertex_t root)        claim `root` and plan level 0 (caller
///                                   thread, before the team starts)
///   std::uint64_t unvisited(std::size_t wi)
///                                   the unclaimed vertices of 64-vertex
///                                   word wi, one bit each: what
///                                   fill_unreached writes sentinels to
///   std::uint64_t edges_traversed(std::uint64_t scanned)
///                                   the run's `ma`, given Σ edges_scanned
template <class Graph, class Step>
void run_single_source(const Graph& g, vertex_t root, const char* name,
                       const BfsOptions& options, ThreadTeam& team,
                       BfsWorkspace& ws, BfsResult& result, Step& step) {
    check_root(g, root);
    const vertex_t n = g.num_vertices();
    const SocketPartition partition(n, team.sockets_used());
    reset_result(result, n, options.compute_levels);
    vertex_t* const parent = result.parent.data();
    level_t* const level = options.compute_levels ? result.level.data() : nullptr;

    // No init pass: the workspace's prepare() already zeroed the
    // visited state, and unreached parent/level slots are filled after
    // the traversal. team.run publishes the seed to every worker.
    step.seed(root);
    parent[root] = root;
    if (level != nullptr) level[root] = 0;

    const LevelRun run = run_levels(
        name, options, team, ws, step, 1,
        {parent, level, &result.level_stats, &result.thread_spans},
        [&](int tid) {
            // Unreached sentinels for this worker's share of its
            // socket's slice (writes only the slots no winner claimed).
            const int my = team.socket_of(tid);
            const auto [lo, hi] = partition.range(my);
            const auto [b, e] = split_range(
                hi - lo, ws.socket_threads[static_cast<std::size_t>(my)],
                ws.rank_in_socket[static_cast<std::size_t>(tid)]);
            fill_unreached(lo + b, lo + e, parent, level,
                           [&](std::size_t wi) { return step.unvisited(wi); });
        });
    result.seconds = run.seconds;
    result.vertices_visited = run.visited;
    result.edges_traversed = step.edges_traversed(run.edges);
    result.num_levels = run.levels;
}

// The engines, defined (and instantiated for the three graph backends)
// in bfs_<engine>.cpp. Each parallel one builds its step and hands it to
// run_single_source.

/// The sequential reference: two queues, no team, no atomics
/// (bfs_serial.cpp).
template <class Graph>
void bfs_serial(const Graph& g, vertex_t root, const BfsOptions& options,
                BfsResult& result);

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
