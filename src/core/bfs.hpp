#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "concurrency/cancel_token.hpp"
#include "concurrency/thread_team.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/obs.hpp"
#include "runtime/topology.hpp"

namespace sge {

class CompressedCsrGraph;  // graph/csr_compressed.hpp
class PagedGraph;          // graph/paged_graph.hpp

/// Which BFS implementation to run.
enum class BfsEngine {
    kSerial,       ///< textbook two-queue BFS, the sequential reference
    kNaive,        ///< Algorithm 1: shared queues, CAS on the parent array
    kBitmap,       ///< Algorithm 2: visited bitmap + double-checked atomics
    kMultiSocket,  ///< Algorithm 3: per-socket queues + inter-socket channels
    kHybrid,       ///< extension: direction-optimizing (top-down/bottom-up)
    /// Pick by thread count / sockets engaged: kSerial for one thread,
    /// kHybrid when the team fits on one socket, kMultiSocket across
    /// sockets. kHybrid leaves top-down only on a graph stamped
    /// symmetric (CsrGraph::symmetric()), so on an unstamped graph it
    /// runs as Algorithm 2.
    kAuto,
};

[[nodiscard]] std::string to_string(BfsEngine engine);

/// The graph types a traversal runs on, one backend each: the plain
/// CSR, its delta+varint encoding (csr_compress) and a semi-external
/// spill of either payload (make_paged). The type of the graph a caller
/// passes is the only way a backend is chosen; see docs/ALGORITHMS.md
/// "Compressed adjacency". Every traversal entry point is one template
/// constrained by this concept and instantiated for the three types, so
/// another type is a compile error.
template <class G>
concept BackendGraph = std::same_as<G, CsrGraph> ||
                       std::same_as<G, CompressedCsrGraph> ||
                       std::same_as<G, PagedGraph>;

/// Tuning and instrumentation knobs. Defaults reproduce the paper's
/// most-optimized configuration.
struct BfsOptions {
    BfsEngine engine = BfsEngine::kAuto;

    /// Worker threads; 0 means "all threads of the topology".
    int threads = 0;

    /// Socket/core model; defaults to Topology::detect(). Use
    /// Topology::nehalem_ep()/nehalem_ex() to reproduce the paper's
    /// machines on any host (emulated placement, see DESIGN.md).
    std::optional<Topology> topology;

    /// Vertices per inter-socket channel batch (Algorithm 3's batching
    /// optimization: amortizes the ticket-lock acquisition).
    std::size_t batch_size = 64;

    /// FastForward ring capacity per inter-socket channel (entries).
    std::size_t channel_capacity = 1 << 15;

    /// Fill BfsResult::level (hop distance per vertex).
    bool compute_levels = true;

    /// Copy the per-level counters, which every run tallies, into
    /// BfsResult::level_stats; also time barrier waits into
    /// barrier_wait_ns and log per-thread level spans into
    /// BfsResult::thread_spans.
    bool collect_stats = false;

    /// Algorithm 2's cheap-test-before-atomic optimization. Disabling it
    /// makes every visited check a `lock or` — the Figure 4/5 ablation.
    bool bitmap_double_check = true;

    /// Algorithm 3 ablation: also consult the (possibly remote) bitmap
    /// before shipping a tuple through a channel. The paper does NOT do
    /// this — the bit lives on the owner socket and reading it remotely
    /// is exactly the coherence traffic the channels exist to avoid —
    /// but on low-latency hosts the filter can win by shrinking channel
    /// traffic. Measured in bench/ablation_tuning.
    bool remote_sender_filter = false;

    /// kHybrid: switch top-down -> bottom-up when the frontier's
    /// out-arcs exceed both (unexplored arcs)/alpha and (all arcs)/beta
    /// — the second, width guard keeps high-diameter graphs top-down —
    /// and back when the frontier shrinks below vertices/beta. Beamer et
    /// al.'s defaults. Bottom-up needs a graph stamped symmetric
    /// (CsrGraph::symmetric()); on any other graph hybrid never flips.
    double hybrid_alpha = 14.0;
    double hybrid_beta = 24.0;

    /// Optional cancellation (not owned; must outlive the run) — the one
    /// way a run ends early. Thread 0 polls it once per level: a fired
    /// token (cancel(), a passed deadline, fire_after_polls) ends the
    /// traversal at that level's end. Its deadline also bounds a level
    /// that stalls: the thread that started the run aborts the run's
    /// barrier once it passes, and the workers unwind at their next
    /// barrier (the serial engine has no barrier and stops at level
    /// boundaries only). Either way the engine throws BfsDeadlineError
    /// with the partial progress, and the runner's workspace serves the
    /// next query. Null: no cancellation and no deadline.
    CancelToken* cancel = nullptr;
};

/// Thrown by the engines when a BfsOptions::cancel (or
/// MsBfsOptions::cancel) token ends a run before the traversal
/// completes. The accessors carry the partial progress, so callers (and
/// the service's kCancelled answers) can report how far the run got
/// instead of a bare timeout. A stop at a level boundary reads
/// "cancelled by CancelToken at level N"; a level the deadline aborted
/// reads "deadline passed mid-level", with the level and visited
/// progress and the engine's diagnostics (queue depths, channel
/// counters) in what().
class BfsDeadlineError : public std::runtime_error {
  public:
    explicit BfsDeadlineError(const std::string& what_arg,
                              std::uint32_t level_reached = 0,
                              std::uint64_t vertices_settled = 0)
        : std::runtime_error(what_arg),
          level_reached_(level_reached),
          vertices_settled_(vertices_settled) {}

    /// Levels that fully completed before the run stopped.
    [[nodiscard]] std::uint32_t level_reached() const noexcept {
        return level_reached_;
    }

    /// Vertices those levels settled, the root (a wave's sources)
    /// included.
    [[nodiscard]] std::uint64_t vertices_settled() const noexcept {
        return vertices_settled_;
    }

  private:
    std::uint32_t level_reached_ = 0;
    std::uint64_t vertices_settled_ = 0;
};

/// Buckets of the per-level channel-batch occupancy histogram: bucket i
/// counts batches whose fill fraction lies in (i/8, (i+1)/8] of the
/// configured batch capacity — bucket 7 is "flushed full" (the batching
/// optimization working as designed), bucket 0 is "nearly empty"
/// (end-of-level stragglers paying a whole lock acquisition for a
/// handful of vertices).
inline constexpr std::size_t kBatchOccupancyBuckets = 8;

/// Histogram bucket for a batch of `size` items flushed from a staging
/// buffer of `capacity` (see kBatchOccupancyBuckets). `size` is clamped
/// to [1, capacity].
[[nodiscard]] constexpr std::size_t batch_occupancy_bucket(
    std::size_t size, std::size_t capacity) noexcept {
    if (capacity == 0 || size == 0) return 0;
    if (size > capacity) size = capacity;
    return (size - 1) * kBatchOccupancyBuckets / capacity;
}

/// One channel-batch occupancy histogram (see kBatchOccupancyBuckets).
using BatchOccupancy = std::uint64_t[kBatchOccupancyBuckets];

/// Per-level instrumentation (Figure 4 reproduces from this; see
/// docs/OBSERVABILITY.md for the full counter glossary and
/// docs/PERF_MODEL.md for which paper claim each field evidences). One
/// field per row of core/level_counters.def, which documents each.
/// Every field is 8-byte values, so the struct doubles as a level's
/// packed block of values in list order.
struct BfsLevelStats {
#define SGE_LEVEL_COUNTER(name, type, unit, merge) \
    type name = {};                                \
    static_assert(sizeof(type) % 8 == 0, #name " must be 8-byte values");
#include "core/level_counters.def"
#undef SGE_LEVEL_COUNTER
};

/// The per-level counters, in list order.
enum class LevelCounter : std::uint8_t {
#define SGE_LEVEL_COUNTER(name, type, unit, merge) name,
#include "core/level_counters.def"
#undef SGE_LEVEL_COUNTER
};

/// How the workers' values of a counter become the level's value.
enum class CounterMerge : std::uint8_t { kSum, kMax, kSet };

/// One row of core/level_counters.def, and where its values sit in the
/// packed block: [slot, slot + extent).
struct LevelCounterRow {
    LevelCounter id;
    std::string_view name;
    std::string_view unit;
    CounterMerge merge;
    LevelCounter source;  ///< the per-worker tally a kMax row merges
    bool floating;        ///< a double, else integer counts
    std::size_t slot;
    std::size_t extent;  ///< 1, or a histogram's buckets
};

/// The counter list, expanded once; its merge column names the locals
/// declared here.
inline constexpr auto kLevelCounterRows = [] {
    using enum LevelCounter;
    struct Merge {
        CounterMerge rule;
        LevelCounter source = {};
    };
    constexpr Merge sum{CounterMerge::kSum}, set{CounterMerge::kSet};
    constexpr auto max = [](LevelCounter tally) {
        return Merge{CounterMerge::kMax, tally};
    };
    return std::array{
#define SGE_LEVEL_COUNTER(name, type, unit, merge)                        \
    LevelCounterRow{LevelCounter::name, #name, unit, Merge(merge).rule,   \
                    Merge(merge).source, std::is_floating_point_v<type>, \
                    offsetof(BfsLevelStats, name) / 8, sizeof(type) / 8},
#include "core/level_counters.def"
#undef SGE_LEVEL_COUNTER
    };
}();
/// Value `element` of `row` in `s` (exact below 2^53).
[[nodiscard]] double level_value(const BfsLevelStats& s,
                                 const LevelCounterRow& row,
                                 std::size_t element);

/// The name that value is exported under: the row's name, or
/// name_<bucket> for a histogram.
[[nodiscard]] std::string level_value_key(const LevelCounterRow& row,
                                          std::size_t element);

/// The rows, indexed by LevelCounter, with a nonzero value at some level
/// of `levels` — the ones the trace and graph_explorer --stats show.
[[nodiscard]] std::array<bool, kLevelCounterRows.size()>
nonzero_level_counters(const std::vector<BfsLevelStats>& levels);

/// One thread's participation in one BFS level, stamped against the
/// traversal's start. Collected by the parallel engines when
/// BfsOptions::collect_stats is set; the raw material of the Chrome
/// trace export (make_bfs_trace).
struct BfsThreadSpan {
    int thread = 0;             ///< worker id within the team
    std::uint32_t level = 0;    ///< BFS depth this span covers
    std::uint64_t start_ns = 0; ///< level start, ns since traversal start
    std::uint64_t end_ns = 0;   ///< level end (after the closing barrier)
};

/// Output of one BFS run.
struct BfsResult {
    /// parent[v] is v's BFS-tree parent; the root is its own parent;
    /// kInvalidVertex marks unreached vertices.
    std::vector<vertex_t> parent;

    /// Hop distance from the root (kInvalidLevel when unreached);
    /// empty when !BfsOptions::compute_levels.
    std::vector<level_t> level;

    std::uint64_t vertices_visited = 0;

    /// ma in the paper: adjacency entries actually scanned. Processing
    /// rate = ma / seconds.
    std::uint64_t edges_traversed = 0;

    std::uint32_t num_levels = 0;
    double seconds = 0.0;

    /// Filled when BfsOptions::collect_stats.
    std::vector<BfsLevelStats> level_stats;

    /// Per-thread, per-level timeline (parallel engines with
    /// collect_stats only). Ordered by thread, then level.
    std::vector<BfsThreadSpan> thread_spans;

    [[nodiscard]] double edges_per_second() const noexcept {
        return seconds > 0 ? static_cast<double>(edges_traversed) / seconds : 0.0;
    }
};

class BfsWorkspace;

/// Lifetime counters of a runner's workspace (see docs/PERF_MODEL.md
/// "Query throughput & amortization" and docs/OBSERVABILITY.md).
struct BfsWorkspaceStats {
    /// Full (re)allocations + first-touch passes: 1 for a runner used on
    /// one graph size, +1 per graph-size/engine change.
    std::uint64_t prepares = 0;
    /// Queries that reused the prepared arena: no allocation or
    /// first touch, only the O(n/64) bitmap zeroing (O(n) for kNaive).
    std::uint64_t workspace_reuses = 0;
};

/// Reusable BFS executor: owns the worker team so repeated traversals
/// (benchmarks, connected components, multi-root analytics) do not pay
/// thread creation per run, and a NUMA-aware BfsWorkspace arena so they
/// do not pay allocation, zero-fill or first-touch placement per run
/// either (the query-throughput mode; see docs/PERF_MODEL.md).
class BfsRunner {
  public:
    explicit BfsRunner(BfsOptions options = {});
    ~BfsRunner();

    BfsRunner(BfsRunner&&) noexcept;
    BfsRunner& operator=(BfsRunner&&) noexcept;

    /// Runs a BFS from `root` over `g`, on the backend its type names:
    /// a CsrGraph scans the plain targets[] spans, a CompressedCsrGraph
    /// decodes each row on scan, a PagedGraph scans its memory-mapped
    /// payload. Throws std::out_of_range for an invalid root or
    /// std::invalid_argument for inconsistent options.
    template <BackendGraph Graph>
    BfsResult run(const Graph& g, vertex_t root);

    /// run() into caller-owned `result`, reusing its buffers (no
    /// allocation on back-to-back queries over one graph). The previous
    /// contents of `result` are discarded.
    template <BackendGraph Graph>
    void run_into(BfsResult& result, const Graph& g, vertex_t root);

    [[nodiscard]] const BfsOptions& options() const noexcept { return options_; }

    /// Engine actually selected (kAuto resolved) for `g`-independent
    /// options; what run() will dispatch to.
    [[nodiscard]] BfsEngine resolved_engine() const noexcept;

    [[nodiscard]] int threads() const noexcept;
    [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

    /// The runner's worker team (null for serial-only runners). Exposed
    /// so repeated-traversal analytics can share one team instead of
    /// spawning their own.
    [[nodiscard]] ThreadTeam* team() noexcept { return team_.get(); }

    /// The runner's reusable arena (null until the first parallel run,
    /// and always null for serial-only runners). Exposed for tests and
    /// for sharing with multi_source_bfs.
    [[nodiscard]] BfsWorkspace* workspace() noexcept { return workspace_.get(); }

    /// Lifetime workspace counters (zeroes for serial-only runners).
    [[nodiscard]] const BfsWorkspaceStats& workspace_stats() const noexcept;

  private:
    BfsOptions options_;
    Topology topology_;
    std::unique_ptr<ThreadTeam> team_;  // null for serial-only runners
    std::unique_ptr<BfsWorkspace> workspace_;  // lazily built on first run
};

/// One-shot convenience wrapper around BfsRunner.
template <BackendGraph Graph>
BfsResult bfs(const Graph& g, vertex_t root, const BfsOptions& options = {});

/// Builds a Chrome trace-event timeline from an instrumented run (run
/// with BfsOptions::collect_stats): one track per worker thread carrying
/// its level spans (falling back to a single synthesized track from
/// level_stats when thread_spans is empty, as for the serial engine),
/// plus one counter series per BfsLevelStats field that is nonzero in
/// the run, sampled at each level boundary. Write with
/// obs::ChromeTrace::write_file and load in chrome://tracing or Perfetto;
/// see docs/OBSERVABILITY.md.
[[nodiscard]] obs::ChromeTrace make_bfs_trace(const BfsResult& result,
                                              const std::string& name = "bfs");

}  // namespace sge
