#pragma once

// Internal shared machinery for the BFS engines. Not part of the public
// API surface; include only from src/core/*.cpp and tests.

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "concurrency/work_queue.hpp"
#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/frontier_compact.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/stats.hpp"
#include "runtime/timer.hpp"

namespace sge::detail {

/// Thread 0's once-per-level cancellation check (free when no token is
/// threaded through the options). Engines call this in the end-of-level
/// bookkeeping window; a fired token makes them mark the run done so
/// every worker exits at the next barrier.
inline bool poll_cancel(const BfsOptions& options) noexcept {
    return options.cancel != nullptr && options.cancel->poll();
}

/// The documented error for a run a fired CancelToken stopped at a
/// level boundary, carrying the partial progress.
[[noreturn]] inline void throw_cancelled(const char* engine,
                                         std::uint32_t level_reached,
                                         std::uint64_t vertices_settled) {
    throw BfsDeadlineError(
        std::string(engine) + ": cancelled by CancelToken at level " +
            std::to_string(level_reached) + " (" +
            std::to_string(vertices_settled) + " vertices settled)",
        level_reached, vertices_settled);
}

/// Row C of the counter list (core/level_counters.def).
template <LevelCounter C>
inline constexpr const LevelCounterRow& kRow =
    kLevelCounterRows[static_cast<std::size_t>(C)];

/// Values in a level's packed block (a BfsLevelStats, bit for bit).
inline constexpr std::size_t kLevelSlots =
    sizeof(BfsLevelStats) / sizeof(std::uint64_t);

/// Shared per-level accumulation slot. Workers merge their local
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
    std::atomic<std::uint64_t> values[kLevelSlots] = {};

    /// Rewinds a slot for reuse across queries (workspace-owned logs
    /// keep their slots allocated; the values must not leak between
    /// runs). Relaxed: called between barriers / before the run.
    void reset() noexcept {
        for (std::atomic<std::uint64_t>& v : values)
            v.store(0, std::memory_order_relaxed);
    }

    /// Adds to sum row C directly, for work a worker does after its
    /// ThreadCounters were flushed (barrier waits, copy-out, harvest).
    template <LevelCounter C>
    void add(std::uint64_t n) noexcept {
        static_assert(kRow<C>.merge == CounterMerge::kSum);
        values[kRow<C>.slot].fetch_add(n, std::memory_order_relaxed);
    }

    /// Stores set row C (thread 0, once per level).
    template <LevelCounter C>
    void set(std::conditional_t<kRow<C>.floating, double, std::uint64_t>
                 value) noexcept {
        static_assert(kRow<C>.merge == CounterMerge::kSet);
        values[kRow<C>.slot].store(std::bit_cast<std::uint64_t>(value),
                                   std::memory_order_relaxed);
    }

    template <LevelCounter C>
    [[nodiscard]] std::uint64_t get() const noexcept {
        return values[kRow<C>.slot].load(std::memory_order_relaxed);
    }

    [[nodiscard]] BfsLevelStats stats() const noexcept {
        std::uint64_t raw[kLevelSlots];
        for (std::size_t i = 0; i < kLevelSlots; ++i)
            raw[i] = values[i].load(std::memory_order_relaxed);
        BfsLevelStats s;
        std::memcpy(&s, raw, sizeof s);
        return s;
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
struct alignas(kCacheLineSize) ThreadCounters {
    std::uint64_t values[kLevelSlots] = {};
    std::uint64_t decode_calls = 0;  // sampling clock; never flushed

    /// Tallies `n` into sum row C (into `bucket` of a histogram): one
    /// local add.
    template <LevelCounter C>
    void add(std::uint64_t n, std::size_t bucket = 0) noexcept {
        static_assert(kRow<C>.merge == CounterMerge::kSum);
        values[kRow<C>.slot + bucket] += n;
    }

    /// Merges the tallies into `slot` by each row's rule — a sum adds, a
    /// max raises the slot to this worker's tally of its source — and
    /// rewinds them. Zero tallies skip the shared line.
    void flush_into(LevelAccum& slot) noexcept {
        for (const LevelCounterRow& row : kLevelCounterRows) {
            if (row.merge == CounterMerge::kMax) {
                const std::uint64_t mine = values[kLevelCounterRows[
                    static_cast<std::size_t>(row.source)].slot];
                std::atomic<std::uint64_t>& to = slot.values[row.slot];
                std::uint64_t seen = to.load(std::memory_order_relaxed);
                while (seen < mine &&
                       !to.compare_exchange_weak(seen, mine,
                                                 std::memory_order_relaxed)) {
                }
            } else if (row.merge == CounterMerge::kSum) {
                for (std::size_t i = row.slot; i < row.slot + row.extent; ++i)
                    if (values[i] != 0)
                        slot.values[i].fetch_add(values[i],
                                                 std::memory_order_relaxed);
            }
        }
        *this = ThreadCounters{};
    }

    /// The tallies as a level's stats, set and max rows zero: the serial
    /// engine's level, which merges no workers.
    [[nodiscard]] BfsLevelStats stats() const noexcept {
        BfsLevelStats s;
        std::memcpy(&s, values, sizeof s);
        return s;
    }
};

/// One worker's compaction copy-out step: exclusive prefix offset +
/// contiguous memcpy of its staged discoveries into `dst` (the target
/// queue's slots). Times the step into the level slot's prefix_sum_ns
/// and counts the vertices into compact_writes (slot-direct: the
/// worker's ThreadCounters were already flushed before the level
/// barrier). Call between the barrier that follows publish() and the
/// barrier that precedes set_size().
inline void compact_copy_out(const FrontierCompactor& fc, int tid,
                             vertex_t* dst, LevelAccum& slot) {
    WallTimer timer;
    const std::size_t copied = fc.copy_out(tid, dst);
    slot.add<LevelCounter::prefix_sum_ns>(timer.nanoseconds());
    slot.add<LevelCounter::compact_writes>(copied);
}

/// Per-thread level-span log for the Chrome trace export. Each worker
/// appends into its own cache-padded vector (no synchronisation in the
/// hot path beyond the two timer reads); collect_into() concatenates
/// after the team has joined. Construct with enabled=false (stats off)
/// to make record() free.
class SpanRecorder {
  public:
    SpanRecorder(int threads, bool enabled) : enabled_(enabled) {
        if (enabled_) logs_.resize(static_cast<std::size_t>(threads));
    }

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

    /// Moves every worker's spans into `out` (ordered by thread, then
    /// level). Call after the parallel region has joined.
    void collect_into(std::vector<BfsThreadSpan>& out) {
        if (!enabled_) return;
        std::size_t total = 0;
        for (const auto& log : logs_) total += log.value.size();
        out.reserve(total);
        for (auto& log : logs_)
            out.insert(out.end(), log.value.begin(), log.value.end());
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
/// counted_decode times every 64th call and scales by 64: decode_ns is
/// a statistical estimate with per-level error bounded by the sampling,
/// while bytes_decoded stays exact (a plain add on every call).
inline constexpr std::uint64_t kDecodeSampleEvery = 64;

/// One row decode on the compressed backend: `decode()` returns the
/// bytes it consumed, counted into bytes_decoded; every
/// kDecodeSampleEvery-th call is also timed into decode_ns, scaled.
template <class Decode>
inline void counted_decode(ThreadCounters& tc, Decode&& decode) {
    if (tc.decode_calls++ % kDecodeSampleEvery == 0) {
        WallTimer timer;
        tc.add<LevelCounter::bytes_decoded>(decode());
        tc.add<LevelCounter::decode_ns>(timer.nanoseconds() *
                                        kDecodeSampleEvery);
    } else {
        tc.add<LevelCounter::bytes_decoded>(decode());
    }
}

/// Full adjacency scan of `u`: calls `fn(w)` per neighbour, counts the
/// scanned edges into `tc`'s edges_scanned, and on the compressed backend
/// also accounts bytes_decoded and sampled decode_ns. `hint(w)` is the
/// plain backend's lookahead prefetch — called kVisitedPrefetchDistance
/// neighbours ahead of `fn` so the visited/claim word is resident by the
/// time the scan reaches it; pass a no-op lambda for engines that do not
/// want it.
template <class Graph, class Hint, class Fn>
inline void scan_adjacency(const Graph& g, vertex_t u, ThreadCounters& tc,
                           Hint&& hint, Fn&& fn) {
    if constexpr (Graph::kCompressed) {
        (void)hint;  // decode order is sequential; no ids to look ahead to
        tc.add<LevelCounter::edges_scanned>(g.degree(u));
        counted_decode(tc, [&] { return g.neighbors_for_each(u, fn); });
    } else {
        const auto adj = g.neighbors(u);
        tc.add<LevelCounter::edges_scanned>(adj.size());
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
            tc.add<LevelCounter::edges_scanned>(1);
            return fn(w);
        };
        counted_decode(tc, [&] { return g.neighbors_for_each(v, counted); });
    } else {
        for (const vertex_t w : g.neighbors(v)) {
            tc.add<LevelCounter::edges_scanned>(1);
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
    for (std::uint32_t d = 0; d < levels_run && d < slots.size(); ++d)
        out.push_back(slots[d].stats());
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

/// Plans target this many chunks per claimant: enough slack that
/// stealing can rebalance a ragged tail, few enough that cursor traffic
/// stays a rounding error next to the per-chunk edge work.
inline constexpr std::size_t kChunksPerClaimant = 16;

/// Logical socket of every worker, in team order — the WorkQueue's
/// steal-domain map.
inline std::vector<int> team_socket_map(const ThreadTeam& team) {
    std::vector<int> sockets(static_cast<std::size_t>(team.size()));
    for (int t = 0; t < team.size(); ++t)
        sockets[static_cast<std::size_t>(t)] = team.socket_of(t);
    return sockets;
}

/// Plans `wq` over the `count` vertices at `items`: degree-balanced cuts
/// from the CSR offsets, dealt into per-claimant ranges. Weight is
/// out-degree + 1 so zero-degree vertices still advance the cut.
/// Single-threaded; publish via a barrier before claiming.
template <class Graph>
inline void plan_frontier(WorkQueue& wq, const vertex_t* items,
                          std::size_t count, const Graph& g) {
    wq.plan(count, static_cast<std::size_t>(wq.claimants()) * kChunksPerClaimant,
            [items, &g](std::size_t i) {
                return static_cast<std::uint64_t>(g.degree(items[i])) + 1;
            });
}

/// Plans `wq` over the whole vertex range [0, n) — the hybrid engine's
/// bottom-up sweep and MS-BFS's dense scan, where the "frontier" is
/// every vertex and the chunk item IS the vertex id.
template <class Graph>
inline void plan_vertex_range(WorkQueue& wq, const Graph& g) {
    wq.plan(g.num_vertices(),
            static_cast<std::size_t>(wq.claimants()) * kChunksPerClaimant,
            [&g](std::size_t v) {
                return static_cast<std::uint64_t>(
                           g.degree(static_cast<vertex_t>(v))) + 1;
            });
}

/// Claims chunks of `wq` for `claimant` until it and its same-socket
/// siblings are drained, calling `fn(begin, end)` on each and tallying
/// chunks_claimed / chunks_stolen — the claim loop of every engine.
template <class Fn>
inline void for_each_claim(WorkQueue& wq, int claimant, ThreadCounters& tc,
                           Fn&& fn) {
    std::size_t begin = 0;
    std::size_t end = 0;
    WorkQueue::Claim cl;
    while ((cl = wq.claim(claimant, begin, end)) != WorkQueue::Claim::kNone) {
        tc.add<LevelCounter::chunks_claimed>(1);
        tc.add<LevelCounter::chunks_stolen>(cl == WorkQueue::Claim::kStolen);
        fn(begin, end);
    }
}

}  // namespace sge::detail
