#pragma once

// Internal shared machinery for the BFS engines. Not part of the public
// API surface; include only from src/core/*.cpp and tests.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/spin_barrier.hpp"
#include "concurrency/versioned_bitmap.hpp"
#include "concurrency/work_queue.hpp"
#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/frontier_compact.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/env.hpp"
#include "runtime/obs.hpp"
#include "runtime/stats.hpp"
#include "runtime/timer.hpp"

namespace sge::detail {

/// Effective watchdog deadline for a run: the per-run option wins;
/// otherwise the process-wide SGE_BFS_WATCHDOG_MS default applies
/// (0/unset = disabled).
inline double resolve_watchdog_seconds(const BfsOptions& options) {
    if (options.watchdog_seconds > 0.0) return options.watchdog_seconds;
    const std::int64_t ms = env_int("SGE_BFS_WATCHDOG_MS", 0);
    return ms > 0 ? static_cast<double>(ms) / 1000.0 : 0.0;
}

/// Per-run watchdog: converts a stalled level step into a diagnostic
/// error instead of a hang.
///
/// Armed with a deadline, it sleeps on a condition variable; if the run
/// finishes first, disarm() (or the destructor) stops it for free. If
/// the deadline passes, it snapshots the engine-supplied diagnostics
/// and aborts the run's barrier, which releases every worker with
/// `arrive_and_wait() == false`; the engine then observes fired() and
/// throws BfsDeadlineError. The diagnose callback runs concurrently
/// with the workers, so it must only read atomic state (queue cursors,
/// channel counters) — the snapshot is momentary by design.
class LevelWatchdog {
  public:
    LevelWatchdog(double deadline_seconds, SpinBarrier& barrier,
                  std::function<std::string()> diagnose)
        : deadline_seconds_(deadline_seconds),
          barrier_(&barrier),
          diagnose_(std::move(diagnose)) {
        if (deadline_seconds_ > 0.0)
            thread_ = std::thread([this] { watch(); });
    }

    LevelWatchdog(const LevelWatchdog&) = delete;
    LevelWatchdog& operator=(const LevelWatchdog&) = delete;

    ~LevelWatchdog() { disarm(); }

    /// Stops the watchdog and joins its thread. Idempotent. After
    /// disarm() returns, fired()/report() are stable.
    void disarm() noexcept {
        {
            std::lock_guard guard(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

    /// True when the deadline expired and the barrier was aborted.
    /// Reliable only after disarm().
    [[nodiscard]] bool fired() const noexcept { return fired_; }

    /// The diagnostic captured at expiry (empty unless fired()).
    [[nodiscard]] const std::string& report() const noexcept { return report_; }

  private:
    void watch() {
        std::unique_lock lock(mutex_);
        const auto deadline = std::chrono::duration<double>(deadline_seconds_);
        if (cv_.wait_for(lock, deadline, [this] { return stop_; })) return;
        fired_ = true;
        try {
            report_ = diagnose_ ? diagnose_() : std::string();
        } catch (...) {
            report_ = "(diagnostics unavailable)";
        }
        runtime_warnings().watchdog_fires.fetch_add(1,
                                                    std::memory_order_relaxed);
        barrier_->abort();
    }

    const double deadline_seconds_;
    SpinBarrier* const barrier_;
    const std::function<std::string()> diagnose_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
    bool stop_ = false;
    bool fired_ = false;      // written by the watchdog thread only;
    std::string report_;      // read after disarm() joins it
};

/// Shared epilogue: disarm the watchdog and convert a firing into the
/// documented error. Call immediately after team.run() returns.
/// `level_reached`/`vertices_settled` are the partial progress to carry
/// in the error (pass the run's shared counters when available).
inline void finish_watchdog(LevelWatchdog& watchdog, const char* engine,
                            std::uint32_t level_reached = 0,
                            std::uint64_t vertices_settled = 0) {
    watchdog.disarm();
    if (watchdog.fired())
        throw BfsDeadlineError(std::string(engine) +
                                   ": watchdog deadline exceeded; " +
                                   watchdog.report(),
                               level_reached, vertices_settled,
                               /*cancelled=*/false);
}

/// Thread 0's once-per-level cancellation check (free when no token is
/// threaded through the options). Engines call this in the end-of-level
/// bookkeeping window; a fired token makes them mark the run done so
/// every worker exits at the next barrier.
inline bool poll_cancel(const BfsOptions& options) noexcept {
    return options.cancel != nullptr && options.cancel->poll();
}

/// Shared epilogue for cooperative cancellation: call after team.run()
/// (and after finish_watchdog) when the run ended because a CancelToken
/// fired. Throws the documented error carrying the partial progress.
[[noreturn]] inline void throw_cancelled(const char* engine,
                                         std::uint32_t level_reached,
                                         std::uint64_t vertices_settled) {
    throw BfsDeadlineError(
        std::string(engine) + ": cancelled by CancelToken at level " +
            std::to_string(level_reached) + " (" +
            std::to_string(vertices_settled) + " vertices settled)",
        level_reached, vertices_settled, /*cancelled=*/true);
}

/// Shared per-level accumulation slot. Workers fetch_add their local
/// counters into it once per level; the engine copies the totals into
/// BfsResult::level_stats after the run.
///
/// Slots live in a std::deque (LevelAccumLog below): thread 0 grows the
/// log in its end-of-level bookkeeping window, and because deque growth
/// never relocates existing elements, workers may keep a reference to
/// the current level's slot across that window — which is how barrier
/// wait time lands in the *right* level (the wait happens after the
/// scan-counter flush).
struct LevelAccum {
    std::uint64_t frontier_size = 0;  // written by thread 0 only
    double seconds = 0.0;             // written by thread 0 only
    std::atomic<std::uint64_t> edges_scanned{0};
    std::atomic<std::uint64_t> bitmap_checks{0};
    std::atomic<std::uint64_t> atomic_ops{0};
    std::atomic<std::uint64_t> remote_tuples{0};
    // Extended counters (zero unless SGE_OBS builds collect them).
    std::atomic<std::uint64_t> bitmap_skips{0};
    std::atomic<std::uint64_t> atomic_wins{0};
    std::atomic<std::uint64_t> batches_pushed{0};
    std::atomic<std::uint64_t> batches_popped{0};
    std::atomic<std::uint64_t> batch_occupancy[kBatchOccupancyBuckets]{};
    std::atomic<std::uint64_t> barrier_wait_ns{0};
    std::atomic<std::uint64_t> chunks_claimed{0};
    std::atomic<std::uint64_t> chunks_stolen{0};
    std::atomic<std::uint64_t> max_thread_edges{0};  // max, not sum
    std::atomic<std::uint64_t> prefix_sum_ns{0};
    std::atomic<std::uint64_t> compact_writes{0};
    std::atomic<std::uint64_t> simd_words_scanned{0};
    std::atomic<std::uint64_t> bytes_decoded{0};
    std::atomic<std::uint64_t> decode_ns{0};

    LevelAccum() = default;
    LevelAccum(const LevelAccum&) = delete;
    LevelAccum& operator=(const LevelAccum&) = delete;

    /// Rewinds a slot for reuse across queries (workspace-owned logs
    /// keep their slots allocated; the values must not leak between
    /// runs). Relaxed: called between barriers / before the run.
    void reset() noexcept {
        frontier_size = 0;
        seconds = 0.0;
        edges_scanned.store(0, std::memory_order_relaxed);
        bitmap_checks.store(0, std::memory_order_relaxed);
        atomic_ops.store(0, std::memory_order_relaxed);
        remote_tuples.store(0, std::memory_order_relaxed);
        bitmap_skips.store(0, std::memory_order_relaxed);
        atomic_wins.store(0, std::memory_order_relaxed);
        batches_pushed.store(0, std::memory_order_relaxed);
        batches_popped.store(0, std::memory_order_relaxed);
        for (std::size_t b = 0; b < kBatchOccupancyBuckets; ++b)
            batch_occupancy[b].store(0, std::memory_order_relaxed);
        barrier_wait_ns.store(0, std::memory_order_relaxed);
        chunks_claimed.store(0, std::memory_order_relaxed);
        chunks_stolen.store(0, std::memory_order_relaxed);
        max_thread_edges.store(0, std::memory_order_relaxed);
        prefix_sum_ns.store(0, std::memory_order_relaxed);
        compact_writes.store(0, std::memory_order_relaxed);
        simd_words_scanned.store(0, std::memory_order_relaxed);
        bytes_decoded.store(0, std::memory_order_relaxed);
        decode_ns.store(0, std::memory_order_relaxed);
    }
};

/// The per-run log of LevelAccum slots. A deque, not a vector, so
/// emplace_back (thread 0, between barriers) never invalidates the slot
/// references other workers hold while timing their barrier waits.
using LevelAccumLog = std::deque<LevelAccum>;

/// Slot for level `depth`, reusing (and rewinding) a slot left behind by
/// a previous query on the same workspace-owned log, or growing the log
/// by one. Engines acquire slots sequentially (depth 0 in the prologue,
/// depth+1 in thread 0's end-of-level window), so `depth` is at most
/// log.size(). Stale slots beyond this run's depth are harmless —
/// copy_level_stats only copies the levels that actually ran.
inline LevelAccum& acquire_level_slot(LevelAccumLog& log, std::size_t depth) {
    if (depth < log.size()) {
        log[depth].reset();
        return log[depth];
    }
    log.emplace_back();
    return log.back();
}

/// Worker-local counters, flushed into a LevelAccum once per level so
/// the hot loop touches no shared cache lines. Cache-line aligned: the
/// engines keep one per worker stack frame, and alignment guarantees
/// two workers' blocks never share a line even if an engine ever moves
/// them into a shared array.
///
/// The first four fields are always counted (the engines' own
/// accounting — edges_traversed — depends on them, and they predate the
/// obs subsystem). The extended fields below cost one local increment
/// each and compile to nothing when SGE_OBS is off: every increment
/// funnels through the count_* helpers, which are `if constexpr` gated
/// on obs::compiled_in().
struct alignas(kCacheLineSize) ThreadCounters {
    std::uint64_t edges_scanned = 0;
    std::uint64_t bitmap_checks = 0;
    std::uint64_t atomic_ops = 0;
    std::uint64_t remote_tuples = 0;
    // Extended (SGE_OBS) counters.
    std::uint64_t bitmap_skips = 0;
    std::uint64_t atomic_wins = 0;
    std::uint64_t batches_pushed = 0;
    std::uint64_t batches_popped = 0;
    std::uint64_t batch_occupancy[kBatchOccupancyBuckets] = {};
    std::uint64_t chunks_claimed = 0;
    std::uint64_t chunks_stolen = 0;
    std::uint64_t simd_words_scanned = 0;
    std::uint64_t bytes_decoded = 0;
    std::uint64_t decode_ns = 0;
    std::uint64_t decode_calls = 0;  // sampling clock; never flushed

    /// A frontier chunk claimed from the scheduler (stolen when it came
    /// from a same-socket sibling's range).
    void count_chunk(bool stolen) noexcept {
        if constexpr (obs::compiled_in()) {
            ++chunks_claimed;
            if (stolen) ++chunks_stolen;
        }
    }

    /// A neighbour filtered by the plain (unlocked) visited test.
    void count_skip() noexcept {
        if constexpr (obs::compiled_in()) ++bitmap_skips;
    }

    /// A visited claim that succeeded (this worker became the parent).
    void count_win() noexcept {
        if constexpr (obs::compiled_in()) ++atomic_wins;
    }

    /// A channel batch of `size` items flushed from a staging buffer of
    /// `capacity`.
    void count_batch_push(std::size_t size, std::size_t capacity) noexcept {
        if constexpr (obs::compiled_in()) {
            ++batches_pushed;
            ++batch_occupancy[batch_occupancy_bucket(size, capacity)];
        }
    }

    /// `words` bitmap / lane-mask words examined by a word-at-a-time
    /// scan (simd_scan.hpp), vector-skipped or ctz-iterated alike.
    void count_simd_words(std::uint64_t words) noexcept {
        if constexpr (obs::compiled_in()) simd_words_scanned += words;
        (void)words;
    }

    /// A non-empty channel drain of `size` items (capacity = the drain
    /// buffer size). Pops do not feed the occupancy histogram — it
    /// characterises the producer-side batching the paper optimizes.
    void count_batch_pop(std::size_t size) noexcept {
        if constexpr (obs::compiled_in()) {
            ++batches_popped;
            (void)size;
        }
    }

    void flush_into(LevelAccum& slot) noexcept {
        slot.edges_scanned.fetch_add(edges_scanned, std::memory_order_relaxed);
        slot.bitmap_checks.fetch_add(bitmap_checks, std::memory_order_relaxed);
        slot.atomic_ops.fetch_add(atomic_ops, std::memory_order_relaxed);
        slot.remote_tuples.fetch_add(remote_tuples, std::memory_order_relaxed);
        if constexpr (obs::compiled_in()) {
            slot.bitmap_skips.fetch_add(bitmap_skips,
                                        std::memory_order_relaxed);
            slot.atomic_wins.fetch_add(atomic_wins, std::memory_order_relaxed);
            slot.batches_pushed.fetch_add(batches_pushed,
                                          std::memory_order_relaxed);
            slot.batches_popped.fetch_add(batches_popped,
                                          std::memory_order_relaxed);
            for (std::size_t b = 0; b < kBatchOccupancyBuckets; ++b)
                slot.batch_occupancy[b].fetch_add(batch_occupancy[b],
                                                  std::memory_order_relaxed);
            slot.chunks_claimed.fetch_add(chunks_claimed,
                                          std::memory_order_relaxed);
            slot.chunks_stolen.fetch_add(chunks_stolen,
                                         std::memory_order_relaxed);
            slot.simd_words_scanned.fetch_add(simd_words_scanned,
                                              std::memory_order_relaxed);
            slot.bytes_decoded.fetch_add(bytes_decoded,
                                         std::memory_order_relaxed);
            slot.decode_ns.fetch_add(decode_ns, std::memory_order_relaxed);
            atomic_accumulate_max(slot.max_thread_edges, edges_scanned);
        }
        *this = ThreadCounters{};
    }

  private:
    /// Relaxed atomic max — the edge-spread accumulator. Loops only
    /// while another thread is concurrently raising the same slot.
    static void atomic_accumulate_max(std::atomic<std::uint64_t>& slot,
                                      std::uint64_t value) noexcept {
        std::uint64_t seen = slot.load(std::memory_order_relaxed);
        while (seen < value &&
               !slot.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
        }
    }
};

/// Barrier arrival that optionally times the wait into `slot` (the
/// load-imbalance signal: how long this worker idled for stragglers).
/// `timed` is false when stats are off, so un-instrumented runs pay
/// only the branch.
inline bool timed_wait(SpinBarrier& barrier, LevelAccum& slot, bool timed) {
    if constexpr (obs::compiled_in()) {
        if (timed) {
            WallTimer wait;
            const bool ok = barrier.arrive_and_wait();
            slot.barrier_wait_ns.fetch_add(wait.nanoseconds(),
                                           std::memory_order_relaxed);
            return ok;
        }
    }
    (void)slot;
    (void)timed;
    return barrier.arrive_and_wait();
}

/// One worker's compaction copy-out step: exclusive prefix offset +
/// contiguous memcpy of its staged discoveries into `dst` (the target
/// queue's slots). Times the step into the level slot's prefix_sum_ns
/// and counts the vertices into compact_writes (SGE_OBS builds; the
/// slot is written directly because the worker's ThreadCounters were
/// already flushed before the level barrier). Call between the barrier
/// that follows publish() and the barrier that precedes set_size().
inline void compact_copy_out(const FrontierCompactor& fc, int tid,
                             vertex_t* dst, LevelAccum& slot) {
    if constexpr (obs::compiled_in()) {
        WallTimer timer;
        const std::size_t copied = fc.copy_out(tid, dst);
        slot.prefix_sum_ns.fetch_add(timer.nanoseconds(),
                                     std::memory_order_relaxed);
        slot.compact_writes.fetch_add(copied, std::memory_order_relaxed);
        return;
    }
    (void)slot;
    fc.copy_out(tid, dst);
}

/// Slot-direct variant of ThreadCounters::count_simd_words for sweeps
/// that run after the worker's counters were flushed (the hybrid
/// harvest's two passes).
inline void note_simd_words(LevelAccum& slot, std::uint64_t words) noexcept {
    if constexpr (obs::compiled_in())
        slot.simd_words_scanned.fetch_add(words, std::memory_order_relaxed);
    (void)slot;
    (void)words;
}

/// Slot-direct compact_writes/prefix_sum_ns accounting for harvest-style
/// compaction that writes queue slots directly instead of copy_out.
inline void note_compaction(LevelAccum& slot, std::uint64_t ns,
                            std::uint64_t writes) noexcept {
    if constexpr (obs::compiled_in()) {
        slot.prefix_sum_ns.fetch_add(ns, std::memory_order_relaxed);
        slot.compact_writes.fetch_add(writes, std::memory_order_relaxed);
    }
    (void)slot;
    (void)ns;
    (void)writes;
}

/// Per-thread level-span log for the Chrome trace export. Each worker
/// appends into its own cache-padded vector (no synchronisation in the
/// hot path beyond the two timer reads); collect_into() concatenates
/// after the team has joined. Construct with enabled=false (e.g. stats
/// off or SGE_OBS compiled out) to make record() free.
class SpanRecorder {
  public:
    SpanRecorder(int threads, bool enabled)
        : enabled_(enabled && obs::compiled_in()) {
        if (enabled_) logs_.resize(static_cast<std::size_t>(threads));
    }

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Timestamp against the traversal epoch — free when disabled, so
    /// engines can call it unconditionally at level boundaries.
    [[nodiscard]] std::uint64_t now(const WallTimer& epoch) const noexcept {
        return enabled_ ? epoch.nanoseconds() : 0;
    }

    void record(int tid, std::uint32_t level, std::uint64_t start_ns,
                std::uint64_t end_ns) {
        if (!enabled_) return;
        logs_[static_cast<std::size_t>(tid)].value.push_back(
            BfsThreadSpan{tid, level, start_ns, end_ns});
    }

    /// Moves every worker's spans into result.thread_spans (ordered by
    /// thread, then level). Call after the parallel region has joined.
    void collect_into(BfsResult& result) {
        if (!enabled_) return;
        std::size_t total = 0;
        for (const auto& log : logs_) total += log.value.size();
        result.thread_spans.reserve(total);
        for (auto& log : logs_)
            result.thread_spans.insert(result.thread_spans.end(),
                                       log.value.begin(), log.value.end());
    }

  private:
    bool enabled_;
    std::vector<CachePadded<std::vector<BfsThreadSpan>>> logs_;
};

/// Adjacency-scan lookahead distance (in neighbours) for the visited /
/// claim word prefetch — far enough to cover a demand miss, near enough
/// that the line is still resident when the scan catches up.
inline constexpr std::size_t kVisitedPrefetchDistance = 8;

template <class Graph>
inline void check_root(const Graph& g, vertex_t root) {
    if (root >= g.num_vertices())
        throw std::out_of_range("bfs: root vertex out of range");
}

// ---------------------------------------------------------------------
// Accessor-generic adjacency scans (docs/ALGORITHMS.md "Compressed
// adjacency"). One engine body serves both CSR backends: `if constexpr`
// on Graph::kCompressed picks the raw span walk (with the visited-word
// lookahead prefetch) or the sequential varint decode (where lookahead
// ids do not exist before they are decoded).
// ---------------------------------------------------------------------

/// Decode-cost sampling period. Timing every decode call would cost two
/// clock reads (~40 ns) against a ~30 ns decode of a degree-16 row, so
/// the scan helpers time every 64th call and scale by 64: decode_ns is
/// a statistical estimate with per-level error bounded by the sampling,
/// while bytes_decoded stays exact (a plain add on every call).
inline constexpr std::uint64_t kDecodeSampleEvery = 64;

/// Full adjacency scan of `u`: calls `fn(w)` per neighbour, counts the
/// scanned edges into `tc.edges_scanned`, and on the compressed backend
/// also accounts bytes_decoded (always) and sampled decode_ns (SGE_OBS
/// builds). `hint(w)` is the plain backend's lookahead prefetch —
/// called kVisitedPrefetchDistance neighbours ahead of `fn` so the
/// visited/claim word is resident by the time the scan reaches it; pass
/// a no-op lambda for engines that do not want it.
template <class Graph, class Hint, class Fn>
inline void scan_adjacency(const Graph& g, vertex_t u, ThreadCounters& tc,
                           Hint&& hint, Fn&& fn) {
    if constexpr (Graph::kCompressed) {
        (void)hint;  // decode order is sequential; no ids to look ahead to
        tc.edges_scanned += g.degree(u);
        if constexpr (obs::compiled_in()) {
            std::size_t bytes = 0;
            if (tc.decode_calls++ % kDecodeSampleEvery == 0) {
                WallTimer timer;
                bytes = g.neighbors_for_each(u, fn);
                tc.decode_ns += timer.nanoseconds() * kDecodeSampleEvery;
            } else {
                bytes = g.neighbors_for_each(u, fn);
            }
            tc.bytes_decoded += bytes;
        } else {
            g.neighbors_for_each(u, fn);
        }
    } else {
        const auto adj = g.neighbors(u);
        tc.edges_scanned += adj.size();
        for (std::size_t j = 0; j < adj.size(); ++j) {
            if (j + kVisitedPrefetchDistance < adj.size())
                hint(adj[j + kVisitedPrefetchDistance]);
            fn(adj[j]);
        }
    }
}

/// Early-exit adjacency scan for the bottom-up probe: `fn(w)` returns
/// true to continue, false to stop (a parent was found). Edges are
/// counted per neighbour actually examined — the early exit is the
/// point — and on the compressed backend the bytes consumed up to the
/// stop feed bytes_decoded.
template <class Graph, class Fn>
inline void scan_adjacency_until(const Graph& g, vertex_t v,
                                 ThreadCounters& tc, Fn&& fn) {
    if constexpr (Graph::kCompressed) {
        const auto counted = [&tc, &fn](vertex_t w) {
            ++tc.edges_scanned;
            return fn(w);
        };
        if constexpr (obs::compiled_in()) {
            std::size_t bytes = 0;
            if (tc.decode_calls++ % kDecodeSampleEvery == 0) {
                WallTimer timer;
                bytes = g.neighbors_for_each_until(v, counted);
                tc.decode_ns += timer.nanoseconds() * kDecodeSampleEvery;
            } else {
                bytes = g.neighbors_for_each_until(v, counted);
            }
            tc.bytes_decoded += bytes;
        } else {
            g.neighbors_for_each_until(v, counted);
        }
    } else {
        for (const vertex_t w : g.neighbors(v)) {
            ++tc.edges_scanned;
            if (!fn(w)) break;
        }
    }
}

/// Frontier-ahead prefetch hook: hands a freshly built next frontier to
/// the paged backend's async prefetcher, so the stripe I/O for level
/// d+1's rows overlaps the level-d barrier and bookkeeping (the FlashR
/// SAFS overlap). Detected by a requires-expression on the `kPaged`
/// backend's prefetch_frontier(); for the in-memory backends the call
/// compiles away entirely. One caller per engine — the thread that owns
/// the end-of-level window (tid 0 / the serial loop), right after the
/// next queue's contents are final.
template <class Graph>
inline void prefetch_next_frontier(const Graph& g, const vertex_t* items,
                                   std::size_t count) {
    if constexpr (requires { g.prefetch_frontier(items, count); }) {
        g.prefetch_frontier(items, count);
    }
}

/// Rewinds a (possibly reused) BfsResult for a fresh run: the dense
/// arrays are resized to `n` — a no-op on back-to-back queries over the
/// same graph, which is the whole point of run_into — and the scalars
/// and logs cleared. The arrays are NOT sentinel-filled here: the
/// parallel engines write every slot exactly once (claimed vertices by
/// their winner, unreached vertices by the post-traversal
/// fill_unreached sweep).
inline void reset_result(BfsResult& result, vertex_t n, bool levels) {
    result.parent.resize(n);
    if (levels)
        result.level.resize(n);
    else
        result.level.clear();
    result.vertices_visited = 0;
    result.edges_traversed = 0;
    result.num_levels = 0;
    result.seconds = 0.0;
    result.level_stats.clear();
    result.thread_spans.clear();
}

/// Post-traversal sweep writing the unreached sentinels into [lo, hi):
/// the replacement for the old O(n) pre-initialisation pass. Writes only
/// the slots `visited(v)` says no winner claimed, so on a fully-reached
/// graph it is a read-only scan of the (cache-resident) visited state.
template <class Visited>
inline void fill_unreached(std::size_t lo, std::size_t hi, vertex_t* parent,
                           level_t* level, const Visited& visited) noexcept {
    for (std::size_t v = lo; v < hi; ++v) {
        if (!visited(v)) {
            parent[v] = kInvalidVertex;
            if (level != nullptr) level[v] = kInvalidLevel;
        }
    }
}

/// Copies accumulated per-level slots into `out` (dropping the trailing
/// slot engines pre-create for a level that never ran).
inline void copy_level_stats(std::vector<BfsLevelStats>& out,
                             const LevelAccumLog& slots,
                             std::uint32_t levels_run) {
    out.clear();
    out.reserve(levels_run);
    for (std::uint32_t d = 0; d < levels_run && d < slots.size(); ++d) {
        const LevelAccum& a = slots[d];
        BfsLevelStats s;
        s.frontier_size = a.frontier_size;
        s.edges_scanned = a.edges_scanned.load(std::memory_order_relaxed);
        s.bitmap_checks = a.bitmap_checks.load(std::memory_order_relaxed);
        s.atomic_ops = a.atomic_ops.load(std::memory_order_relaxed);
        s.remote_tuples = a.remote_tuples.load(std::memory_order_relaxed);
        s.seconds = a.seconds;
        s.bitmap_skips = a.bitmap_skips.load(std::memory_order_relaxed);
        s.atomic_wins = a.atomic_wins.load(std::memory_order_relaxed);
        s.batches_pushed = a.batches_pushed.load(std::memory_order_relaxed);
        s.batches_popped = a.batches_popped.load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < kBatchOccupancyBuckets; ++b)
            s.batch_occupancy[b] =
                a.batch_occupancy[b].load(std::memory_order_relaxed);
        s.barrier_wait_ns = a.barrier_wait_ns.load(std::memory_order_relaxed);
        s.chunks_claimed = a.chunks_claimed.load(std::memory_order_relaxed);
        s.chunks_stolen = a.chunks_stolen.load(std::memory_order_relaxed);
        s.max_thread_edges =
            a.max_thread_edges.load(std::memory_order_relaxed);
        s.prefix_sum_ns = a.prefix_sum_ns.load(std::memory_order_relaxed);
        s.compact_writes = a.compact_writes.load(std::memory_order_relaxed);
        s.simd_words_scanned =
            a.simd_words_scanned.load(std::memory_order_relaxed);
        s.bytes_decoded = a.bytes_decoded.load(std::memory_order_relaxed);
        s.decode_ns = a.decode_ns.load(std::memory_order_relaxed);
        out.push_back(s);
    }
}

inline void copy_level_stats(BfsResult& result, const LevelAccumLog& slots,
                             std::uint32_t levels_run) {
    copy_level_stats(result.level_stats, slots, levels_run);
}

/// Splits [0, n) into `parts` near-equal chunks; returns chunk `index`.
inline std::pair<std::size_t, std::size_t> split_range(std::size_t n, int parts,
                                                       int index) noexcept {
    const std::size_t base = n / static_cast<std::size_t>(parts);
    const std::size_t extra = n % static_cast<std::size_t>(parts);
    const auto i = static_cast<std::size_t>(index);
    const std::size_t begin = i * base + (i < extra ? i : extra);
    const std::size_t size = base + (i < extra ? 1 : 0);
    return {begin, begin + size};
}

// ---------------------------------------------------------------------
// Edge-aware frontier scheduling (docs/PERF_MODEL.md "Load balance").
// ---------------------------------------------------------------------

/// Weighted plans target this many chunks per claimant: enough slack
/// that dynamic claiming (and stealing) can rebalance a ragged tail,
/// few enough that cursor traffic stays a rounding error next to the
/// per-chunk edge work.
inline constexpr std::size_t kChunksPerClaimant = 16;

/// Claim granularity of the whole-vertex-range sweeps (kHybrid's
/// bottom-up levels, MS-BFS's dense scan): n / (threads * 64) clamped to
/// [64, 4096] — coarse enough to amortise the cursor on big graphs, fine
/// enough that small graphs still yield several chunks per thread.
inline std::size_t resolve_range_chunk(std::size_t n, int threads) noexcept {
    const std::size_t derived = n / (static_cast<std::size_t>(threads) * 64);
    return derived < 64 ? 64 : (derived > 4096 ? 4096 : derived);
}

/// Logical socket of every worker, in team order — the WorkQueue's
/// steal-domain map.
inline std::vector<int> team_socket_map(const ThreadTeam& team) {
    std::vector<int> sockets(static_cast<std::size_t>(team.size()));
    for (int t = 0; t < team.size(); ++t)
        sockets[static_cast<std::size_t>(t)] = team.socket_of(t);
    return sockets;
}

/// Plans `wq` over the `count` vertices at `items` for `policy`:
/// fixed `chunk_size` vertex chunks (kStatic) or degree-balanced cuts
/// from the CSR offsets (kEdgeWeighted / kStealing, the latter dealt
/// into per-claimant ranges). Weight is out-degree + 1 so zero-degree
/// vertices still advance the cut. Single-threaded; publish via a
/// barrier before claiming.
template <class Graph>
inline void plan_frontier(WorkQueue& wq, const vertex_t* items,
                          std::size_t count, const Graph& g,
                          SchedulePolicy policy, std::size_t chunk_size) {
    if (policy == SchedulePolicy::kStatic) {
        wq.plan_static(count, chunk_size);
        return;
    }
    const std::size_t chunks =
        static_cast<std::size_t>(wq.claimants()) * kChunksPerClaimant;
    wq.plan_weighted(count, chunks, policy == SchedulePolicy::kStealing,
                     [items, &g](std::size_t i) {
                         return static_cast<std::uint64_t>(
                                    g.degree(items[i])) + 1;
                     });
}

/// Plans `wq` over the whole vertex range [0, n) — the hybrid engine's
/// bottom-up sweep and MS-BFS's dense scan, where the "frontier" is
/// every vertex and the chunk item IS the vertex id.
template <class Graph>
inline void plan_vertex_range(WorkQueue& wq, std::size_t n, const Graph& g,
                              SchedulePolicy policy, std::size_t chunk_size) {
    if (policy == SchedulePolicy::kStatic) {
        wq.plan_static(n, chunk_size);
        return;
    }
    const std::size_t chunks =
        static_cast<std::size_t>(wq.claimants()) * kChunksPerClaimant;
    wq.plan_weighted(n, chunks, policy == SchedulePolicy::kStealing,
                     [&g](std::size_t v) {
                         return static_cast<std::uint64_t>(
                                    g.degree(static_cast<vertex_t>(v))) + 1;
                     });
}

}  // namespace sge::detail
