#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "concurrency/cancel_token.hpp"
#include "concurrency/thread_team.hpp"
#include "concurrency/work_queue.hpp"
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

/// How the parallel engines build the next-level frontier queue (NQ);
/// see docs/ALGORITHMS.md "Frontier generation".
enum class FrontierGen {
    /// Legacy path: producers reserve NQ slots with fetch_add (per
    /// vertex in the naive engine, per 64-vertex batch elsewhere).
    /// Retained for the bench/ablation_frontier A/B.
    kAtomic,
    /// Count -> parallel exclusive prefix sum -> contiguous writes
    /// (FrontierCompactor): zero atomics in NQ construction, plus
    /// word-at-a-time (SIMD-assisted) bitmap and lane-mask scans in the
    /// bottom-up, harvest and MS-BFS sweeps. The default.
    kCompact,
};

[[nodiscard]] std::string to_string(FrontierGen gen);

/// Which adjacency representation a run traverses; see
/// docs/ALGORITHMS.md "Compressed adjacency".
enum class GraphBackend {
    /// The plain CSR targets[] array (4 B/edge, streamed raw).
    kPlain,
    /// Delta+varint CompressedCsrGraph, decoded on scan: 2-4x fewer
    /// adjacency bytes on skewed graphs at the cost of decode ALU — a
    /// net win when the scan is bandwidth-bound (docs/PERF_MODEL.md
    /// "Bytes vs ALU").
    kCompressed,
    /// Semi-external PagedGraph over the plain targets[] payload: the
    /// adjacency bytes live in striped memory-mapped spill files with a
    /// frontier-ahead async prefetcher; only byte offsets + degrees
    /// stay resident (docs/PERF_MODEL.md "Disk regime").
    kPaged,
    /// Semi-external PagedGraph over the delta+varint payload: the
    /// compressed blob on disk — the fewest bytes faulted per scan.
    kPagedCompressed,
};

[[nodiscard]] std::string to_string(GraphBackend backend);

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

    /// Vertices a worker claims from the current queue at a time
    /// (the chunk granularity of the kStatic schedule).
    std::size_t chunk_size = 128;

    /// How the parallel engines divide each level's frontier across
    /// workers (see SchedulePolicy in concurrency/work_queue.hpp and
    /// docs/PERF_MODEL.md "Load balance"): kStatic is the legacy
    /// vertex-count chunking, kEdgeWeighted (default) cuts chunks by
    /// out-edge count so hubs cannot stall the level barrier, kStealing
    /// adds per-thread ranges with intra-socket work stealing on top.
    SchedulePolicy schedule = SchedulePolicy::kEdgeWeighted;

    /// How the next-level frontier is materialized (see FrontierGen and
    /// docs/ALGORITHMS.md "Frontier generation"): kCompact (default)
    /// builds NQ with per-thread buffers + a prefix sum — no atomics in
    /// queue construction — and vectorizes the bottom-up/harvest bitmap
    /// sweeps; kAtomic keeps the legacy fetch_add appends and scalar
    /// sweeps for ablation (bench/ablation_frontier). The visited-claim
    /// atomics (test_and_set / parent CAS) are required for correctness
    /// and remain in both modes. Ignored by the serial engine.
    FrontierGen frontier_gen = FrontierGen::kCompact;

    /// Adjacency representation for BfsRunner::run(const CsrGraph&) /
    /// bfs(): kCompressed makes the runner delta+varint-encode the graph
    /// once (cached by graph identity, so back-to-back queries reuse the
    /// encoding) and traverse decode-on-scan. The
    /// run(const CompressedCsrGraph&) overloads ignore this — a graph
    /// that is already compressed is always traversed compressed.
    GraphBackend backend = GraphBackend::kPlain;

    /// kHybrid: vertices per bottom-up range claim (and per conversion
    /// sweep claim). 0 (default) derives n / (threads * 64) clamped to
    /// [64, 4096], so big graphs get coarse claims and small graphs
    /// still produce enough chunks to balance.
    std::size_t bottomup_chunk = 0;

    /// FastForward ring capacity per inter-socket channel (entries).
    std::size_t channel_capacity = 1 << 15;

    /// Fill BfsResult::level (hop distance per vertex).
    bool compute_levels = true;

    /// Collect per-level counters (frontier sizes, bitmap checks,
    /// atomic ops, remote tuples) into BfsResult::level_stats.
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

    /// Opt-in watchdog deadline for the whole traversal, in seconds.
    /// <= 0 disables (the default; SGE_BFS_WATCHDOG_MS then supplies a
    /// process-wide default). When the deadline passes before the run
    /// completes, the engine aborts its barrier — unwinding every
    /// worker in bounded time — and throws BfsDeadlineError carrying a
    /// diagnostic snapshot (level reached, queue depths, channel
    /// counters) instead of hanging.
    double watchdog_seconds = 0.0;

    /// Optional cooperative cancellation (not owned; must outlive the
    /// run). Thread 0 polls once per level; a fired token ends the
    /// traversal at the next level barrier and the engine throws
    /// BfsDeadlineError with cancelled() == true and the partial
    /// progress filled in. Unlike the watchdog this never aborts the
    /// barrier, so the workspace stays immediately reusable — it is the
    /// per-request deadline mechanism of the query service, which
    /// supersedes the global watchdog for service runs.
    CancelToken* cancel = nullptr;
};

/// Thrown by the engines when a run ends before the traversal completes:
/// either BfsOptions::watchdog_seconds (or SGE_BFS_WATCHDOG_MS) expired
/// — cancelled() == false — or a BfsOptions::cancel token fired —
/// cancelled() == true. what() carries the stall diagnostics; the
/// accessors carry the partial progress so callers (and the service's
/// degraded-retry path) can report how far the run got instead of a
/// bare timeout.
class BfsDeadlineError : public std::runtime_error {
  public:
    explicit BfsDeadlineError(const std::string& what_arg,
                              std::uint32_t level_reached = 0,
                              std::uint64_t vertices_settled = 0,
                              bool cancelled = false)
        : std::runtime_error(what_arg),
          level_reached_(level_reached),
          vertices_settled_(vertices_settled),
          cancelled_(cancelled) {}

    /// Deepest BFS level that fully completed before the run stopped.
    [[nodiscard]] std::uint32_t level_reached() const noexcept {
        return level_reached_;
    }

    /// Vertices whose parent was settled before the run stopped.
    [[nodiscard]] std::uint64_t vertices_settled() const noexcept {
        return vertices_settled_;
    }

    /// True for cooperative cancellation (a fired CancelToken), false
    /// for a watchdog abort.
    [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

  private:
    std::uint32_t level_reached_ = 0;
    std::uint64_t vertices_settled_ = 0;
    bool cancelled_ = false;
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

/// Per-level instrumentation (Figure 4 reproduces from this; see
/// docs/OBSERVABILITY.md for the full counter glossary and
/// docs/PERF_MODEL.md for which paper claim each field evidences).
///
/// The first five fields are collected by every build; the fields below
/// them require the extended counters (CMake option SGE_OBS, on by
/// default — `obs::compiled_in()`), and read zero when compiled out.
struct BfsLevelStats {
    std::uint64_t frontier_size = 0;   ///< vertices expanded this level
    std::uint64_t edges_scanned = 0;   ///< adjacency entries examined
    std::uint64_t bitmap_checks = 0;   ///< plain bitmap/parent queries
    std::uint64_t atomic_ops = 0;      ///< locked RMW instructions issued
    std::uint64_t remote_tuples = 0;   ///< (v,u) pairs shipped via channels
    double seconds = 0.0;              ///< wall time of this level

    // ---- extended counters (SGE_OBS builds) ----

    /// Neighbours filtered by the *plain* visited test before any locked
    /// instruction — the double-check optimization's savings (Figure 4:
    /// bitmap_checks - atomic_ops). Counted by the engines that carry a
    /// cheap pre-test (bitmap, multisocket, hybrid; the serial and
    /// distributed engines count their plain already-visited hits here
    /// so the ratio stays comparable).
    std::uint64_t bitmap_skips = 0;

    /// Visited claims that *succeeded* — the claimer became the BFS
    /// parent. Summed over all levels this is exactly n-1 on a connected
    /// graph (every non-root vertex is claimed once). For the atomic
    /// engines atomic_wins <= atomic_ops and the difference is wasted
    /// locked RMWs (lost races plus double-check misses); the serial and
    /// distributed engines have no atomics (atomic_ops == 0) but still
    /// count their plain claims here so the invariant "wins == n-1"
    /// holds for every engine.
    std::uint64_t atomic_wins = 0;

    /// Channel batches pushed into / popped out of the inter-socket
    /// (or inter-rank) channels this level. Zero for engines without
    /// channels. pushed counts Channel::push_batch calls, popped counts
    /// pop_batch calls that returned at least one item.
    std::uint64_t batches_pushed = 0;
    std::uint64_t batches_popped = 0;

    /// Occupancy histogram over the *pushed* channel batches (see
    /// kBatchOccupancyBuckets). Sums to batches_pushed.
    std::uint64_t batch_occupancy[kBatchOccupancyBuckets] = {};

    /// Nanoseconds workers spent waiting at the level's barriers, summed
    /// across threads — the load-imbalance signal. Zero for the serial
    /// engine.
    std::uint64_t barrier_wait_ns = 0;

    /// Frontier chunks claimed through the scheduler this level, summed
    /// across threads; chunks_stolen counts the subset taken from a
    /// same-socket sibling's range (kStealing only — zero under shared
    /// cursors). claimed == chunks planned for the level, every chunk
    /// claimed exactly once.
    std::uint64_t chunks_claimed = 0;
    std::uint64_t chunks_stolen = 0;

    /// Nanoseconds spent in the compact frontier-generation phase
    /// (exclusive prefix offsets + contiguous copy-out), summed across
    /// threads. Zero under FrontierGen::kAtomic. This is the cost the
    /// prefix-sum scheme pays to delete the queue atomics; compare
    /// against barrier_wait_ns in docs/PERF_MODEL.md's crossover model.
    std::uint64_t prefix_sum_ns = 0;

    /// Vertices written into next-level queues by compact copy-out this
    /// level. Invariant: compact_writes == the next level's
    /// frontier_size (exact cover — every discovery written exactly
    /// once), so summed over a run it equals vertices_visited - 1.
    /// Zero under FrontierGen::kAtomic.
    std::uint64_t compact_writes = 0;

    /// Bitmap / lane-mask words examined by the word-at-a-time scans
    /// (bottom-up unvisited sweep, bits->queue harvest, MS-BFS frontier
    /// scans), whether vector-skipped or iterated with ctz. Zero under
    /// FrontierGen::kAtomic (those paths test per vertex instead).
    std::uint64_t simd_words_scanned = 0;

    /// Largest per-thread edges_scanned this level — the numerator of
    /// the edge spread (max_thread_edges * threads / edges_scanned is
    /// 1.0 for a perfectly balanced level, ~threads when one worker
    /// scanned everything).
    std::uint64_t max_thread_edges = 0;

    /// Varint blob bytes decoded by adjacency scans this level, summed
    /// across threads (GraphBackend::kCompressed only — zero on the
    /// plain backend). Compare against 4 * edges_scanned, the bytes the
    /// plain targets[] stream would have moved: the ratio is the
    /// bandwidth saving the compressed backend buys.
    std::uint64_t bytes_decoded = 0;

    /// Estimated nanoseconds inside varint decode this level, summed
    /// across threads. Sampled: every 64th decode call is timed and
    /// scaled (a timer per call would dwarf a short row's decode), so
    /// treat as a statistical estimate, not an exact integral. Zero on
    /// the plain backend.
    std::uint64_t decode_ns = 0;
};

/// One thread's participation in one BFS level, stamped against the
/// traversal's start. Collected by the parallel engines when
/// BfsOptions::collect_stats is set (and SGE_OBS is compiled in); the
/// raw material of the Chrome trace export (make_bfs_trace).
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

    /// Per-thread, per-level timeline (parallel engines, collect_stats
    /// + SGE_OBS builds only). Ordered by thread, then level.
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
    /// Queries that reused the prepared arena (epoch-bump reset only).
    std::uint64_t workspace_reuses = 0;
    /// Bitmap/claim words physically rewritten by resets — 0 on the
    /// epoch fast path, the full word count on a wraparound sweep.
    std::uint64_t reset_words_touched = 0;
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

    /// Runs a BFS from `root`. Throws std::out_of_range for an invalid
    /// root or std::invalid_argument for inconsistent options. With
    /// BfsOptions::backend == kCompressed the graph is encoded once
    /// (cached by identity — offsets address + shape) and traversed
    /// decode-on-scan.
    BfsResult run(const CsrGraph& g, vertex_t root);

    /// Runs over an already-compressed graph (always decode-on-scan,
    /// whatever BfsOptions::backend says).
    BfsResult run(const CompressedCsrGraph& g, vertex_t root);

    /// Runs over an already-opened paged graph (semi-external scan,
    /// whatever BfsOptions::backend says).
    BfsResult run(const PagedGraph& g, vertex_t root);

    /// Runs a BFS from `root` into caller-owned `result`, reusing its
    /// buffers (no allocation on back-to-back queries over one graph).
    /// The previous contents of `result` are discarded.
    void run_into(BfsResult& result, const CsrGraph& g, vertex_t root);
    void run_into(BfsResult& result, const CompressedCsrGraph& g,
                  vertex_t root);
    void run_into(BfsResult& result, const PagedGraph& g, vertex_t root);

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
    template <class Graph>
    void run_into_impl(BfsResult& result, const Graph& g, vertex_t root);

    /// run(const CsrGraph&) with backend == kCompressed: returns the
    /// cached encoding of `g`, re-encoding only when the graph identity
    /// (offsets address + shape) changed since the last query.
    const CompressedCsrGraph& compressed_for(const CsrGraph& g);

    /// run(const CsrGraph&) with backend == kPaged / kPagedCompressed:
    /// returns the cached spill of `g` — written once to
    /// $SGE_PAGED_DIR (default: the system temp directory) and
    /// re-spilled only when the graph identity changed. The spill files
    /// are owned by the cached graph and unlinked with it.
    const PagedGraph& paged_for(const CsrGraph& g, bool compressed);

    BfsOptions options_;
    Topology topology_;
    std::unique_ptr<ThreadTeam> team_;  // null for serial-only runners
    std::unique_ptr<BfsWorkspace> workspace_;  // lazily built on first run

    // Cached encoding for the backend == kCompressed plain-graph path.
    std::unique_ptr<CompressedCsrGraph> compressed_;
    const void* compressed_tag_ = nullptr;  // source offsets address
    vertex_t compressed_n_ = 0;
    std::uint64_t compressed_m_ = 0;

    // Cached spill for the backend == kPaged* plain-graph paths.
    std::unique_ptr<PagedGraph> paged_;
    const void* paged_tag_ = nullptr;  // source offsets address
    bool paged_compressed_ = false;
    vertex_t paged_n_ = 0;
    std::uint64_t paged_m_ = 0;
};

/// One-shot convenience wrapper around BfsRunner.
BfsResult bfs(const CsrGraph& g, vertex_t root, const BfsOptions& options = {});
BfsResult bfs(const CompressedCsrGraph& g, vertex_t root,
              const BfsOptions& options = {});
BfsResult bfs(const PagedGraph& g, vertex_t root,
              const BfsOptions& options = {});

/// Builds a Chrome trace-event timeline from an instrumented run (run
/// with BfsOptions::collect_stats): one track per worker thread carrying
/// its level spans (falling back to a single synthesized track from
/// level_stats when thread_spans is empty, e.g. the serial engine or a
/// SGE_OBS=OFF build), plus counter series — frontier size, edges
/// scanned, atomic attempts vs wins, remote tuples, barrier wait — at
/// each level boundary. Write with obs::ChromeTrace::write_file and load
/// in chrome://tracing or Perfetto; see docs/OBSERVABILITY.md.
[[nodiscard]] obs::ChromeTrace make_bfs_trace(const BfsResult& result,
                                              const std::string& name = "bfs");

namespace detail {

// Engine entry points (exposed for tests; use BfsRunner in user code).
// The parallel engines require a workspace already prepare()d for
// (g, engine, options, team); they write into `result` after rewinding
// it (reset_result). Each engine is one template body instantiated for
// both CSR backends (docs/ALGORITHMS.md "Compressed adjacency") — the
// overload pairs are the two instantiations.
void bfs_serial(const CsrGraph& g, vertex_t root, const BfsOptions& options,
                BfsResult& result);
void bfs_serial(const CompressedCsrGraph& g, vertex_t root,
                const BfsOptions& options, BfsResult& result);
void bfs_serial(const PagedGraph& g, vertex_t root,
                const BfsOptions& options, BfsResult& result);
void bfs_naive(const CsrGraph& g, vertex_t root, const BfsOptions& options,
               ThreadTeam& team, BfsWorkspace& ws, BfsResult& result);
void bfs_naive(const CompressedCsrGraph& g, vertex_t root,
               const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
               BfsResult& result);
void bfs_naive(const PagedGraph& g, vertex_t root,
               const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
               BfsResult& result);
void bfs_bitmap(const CsrGraph& g, vertex_t root, const BfsOptions& options,
                ThreadTeam& team, BfsWorkspace& ws, BfsResult& result);
void bfs_bitmap(const CompressedCsrGraph& g, vertex_t root,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result);
void bfs_bitmap(const PagedGraph& g, vertex_t root,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result);
void bfs_multisocket(const CsrGraph& g, vertex_t root,
                     const BfsOptions& options, ThreadTeam& team,
                     BfsWorkspace& ws, BfsResult& result);
void bfs_multisocket(const CompressedCsrGraph& g, vertex_t root,
                     const BfsOptions& options, ThreadTeam& team,
                     BfsWorkspace& ws, BfsResult& result);
void bfs_multisocket(const PagedGraph& g, vertex_t root,
                     const BfsOptions& options, ThreadTeam& team,
                     BfsWorkspace& ws, BfsResult& result);
void bfs_hybrid(const CsrGraph& g, vertex_t root, const BfsOptions& options,
                ThreadTeam& team, BfsWorkspace& ws, BfsResult& result);
void bfs_hybrid(const CompressedCsrGraph& g, vertex_t root,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result);
void bfs_hybrid(const PagedGraph& g, vertex_t root,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result);

}  // namespace detail

}  // namespace sge
