#pragma once

// Internal header (like engine_common.hpp): include only from
// src/core/*.cpp, bench and tests.

#include <cstdint>
#include <memory>
#include <vector>

#include "concurrency/channel.hpp"
#include "concurrency/atomic_bitmap.hpp"
#include "concurrency/work_queue.hpp"
#include "core/bfs.hpp"
#include "core/engine_common.hpp"
#include "core/frontier.hpp"
#include "core/frontier_compact.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/cacheline.hpp"

namespace sge {

class ThreadTeam;

/// Reusable, NUMA-aware BFS arena — the query-throughput mode's core.
///
/// One workspace serves one (graph size, engine, team) combination at a
/// time, owned by a BfsRunner. prepare() allocates every buffer a
/// traversal needs — parent/visited state, CQ/NQ frontier queues,
/// inter-socket channels, scheduler plans, per-thread staging — exactly
/// once, with first-touch initialisation performed by each owning
/// socket's pinned workers (the paper's placement rule: "if graph node
/// v ∈ socket s then both P[v] and Bitmap[v] ∈ socket s"). Back-to-back
/// queries then skip allocation and placement: each query zeroes only
/// the state it will write, one bit per vertex for the bitmaps (O(n/64)
/// words) and Algorithm 1's 4-byte P[] for the naive engine.
///
/// All members are public engine-facing state, not a stable API: the
/// engine steps (bfs_naive/multisocket/hybrid, multi_source_bfs) are the
/// only intended readers/writers, and prepare()/prepare_ms() are the
/// only entry points callers use.
class BfsWorkspace {
  public:
    BfsWorkspace() = default;
    BfsWorkspace(const BfsWorkspace&) = delete;
    BfsWorkspace& operator=(const BfsWorkspace&) = delete;

    /// Readies the workspace for one query of `engine` over `g` on
    /// `team`: (re)allocates + first-touches when the graph size,
    /// engine or team changed (stats.prepares), otherwise reuses the
    /// arena (stats.workspace_reuses). Either way it then zeroes the
    /// state the query will write (`visited`, for kHybrid both
    /// `frontier_bits`, for kNaive the `claim` fill) and discards the
    /// queue and channel residue, so a run stopped by its token, a
    /// deadline or a fault never poisons the next.
    template <BackendGraph Graph>
    void prepare(const Graph& g, BfsEngine engine, const BfsOptions& options,
                 ThreadTeam& team);

    /// Readies the MS-BFS lane buffers (seen/frontier/next masks), the
    /// per-thread tallies and the [0, n) plan for one multi_source_bfs
    /// call on `team`; each worker zeroes its own slice of the lanes.
    template <BackendGraph Graph>
    void prepare_ms(const Graph& g, ThreadTeam& team);

    // ---- engine-facing state ------------------------------------------

    /// Visited set (bitmap/multisocket/hybrid engines).
    AtomicBitmap visited;

    /// Frontier-as-bitmap pair (kHybrid only; kBitmap never flips).
    AtomicBitmap frontier_bits[2];

    /// Naive engine's claim array, Algorithm 1's P[]: kInvalidVertex
    /// until one CAS writes the winning parent.
    AlignedBuffer<std::atomic<vertex_t>> claim;

    /// Global CQ/NQ pair (naive/bitmap/hybrid engines).
    FrontierQueue queues[2];

    /// Per-socket CQ/NQ pairs, socket_queues[phase][socket]
    /// (multisocket engine).
    std::vector<FrontierQueue> socket_queues[2];

    /// Inter-socket channels, one per owner socket (multisocket).
    std::vector<std::unique_ptr<Channel<std::uint64_t, kEmptyVisit>>> channels;

    /// Frontier scheduler (naive/bitmap/hybrid).
    std::unique_ptr<WorkQueue> wq;

    /// The degree-weighted [0, n) plan that kHybrid's bottom-up levels
    /// and MS-BFS claim from, with its cut-once flag (vertex_range_plan).
    std::unique_ptr<WorkQueue> range_wq;
    bool range_planned = false;

    /// Readies range_wq for a sweep over `g`'s vertices: cut once per
    /// graph id(), only rewound otherwise. Single-threaded.
    template <class Graph>
    void vertex_range_plan(const Graph& g) {
        if (range_planned)
            range_wq->reset_cursors();
        else
            detail::plan_vertex_range(*range_wq, g);
        range_planned = true;
    }

    /// Per-socket frontier schedulers (multisocket).
    std::vector<std::unique_ptr<WorkQueue>> socket_wqs;

    /// Socket-local worker ranks: rank_in_socket[tid] and
    /// socket_threads[socket] (first-touch splits + multisocket claims).
    std::vector<int> rank_in_socket;
    std::vector<int> socket_threads;

    /// One thread's discoveries in the level just scanned (hybrid and
    /// MS-BFS steps): written by its owner before the level barrier,
    /// summed by thread 0 after it. A line of its own, so the owner's
    /// store never invalidates a line another worker reads.
    struct alignas(kCacheLineSize) LevelTally {
        std::uint64_t discovered = 0;         ///< vertices claimed
        std::uint64_t discovered_degree = 0;  ///< their summed out-degrees
    };

    /// Per-thread staging hoisted out of the engines' level loops so a
    /// prepared traversal is allocation-free (asserted in debug builds
    /// via thread_aligned_alloc_count()).
    struct alignas(kCacheLineSize) ThreadScratch {
        std::vector<LocalBatch<std::uint64_t>> remote;  ///< per-socket tuples
        AlignedBuffer<std::uint64_t> drain;  ///< channel drain buffer
        LevelTally tally;                    ///< per-level sums
    };
    std::vector<ThreadScratch> scratch;

    /// Atomic-free frontier-generation arena: per-thread discovery
    /// buffers plus the published counts the exclusive prefix sum runs
    /// over, reused across levels and queries.
    FrontierCompactor compactor;

    /// Per-level stats slots, reused across queries (acquire_level_slot).
    detail::LevelAccumLog accum;

    // ---- MS-BFS lane state (multi_source_bfs) -------------------------

    AlignedBuffer<std::atomic<std::uint64_t>> ms_seen;
    AlignedBuffer<std::uint64_t> ms_frontier;
    AlignedBuffer<std::atomic<std::uint64_t>> ms_next;

    /// Lifetime counters (prepares / reuses).
    BfsWorkspaceStats stats;

  private:
    void allocate(vertex_t n, BfsEngine engine, const BfsOptions& options,
                  ThreadTeam& team);
    void ensure_range_wq(ThreadTeam& team);
    void first_touch(BfsEngine engine, ThreadTeam& team);
    void reset_for_query(BfsEngine engine);
    void note_graph(std::uint64_t graph_id);

    // Identity of the last-prepared configuration. prepared_n_ is
    // poisoned (kInvalidVertex) while allocate() is in flight so a
    // fault-injected partial allocation forces a clean retry.
    vertex_t prepared_n_ = kInvalidVertex;
    BfsEngine prepared_engine_ = BfsEngine::kAuto;
    int prepared_threads_ = 0;

    // id() of the last-seen graph: a swap at equal n keeps the buffers
    // but invalidates degree-derived plans.
    std::uint64_t graph_id_ = 0;

    // Length of the MS-BFS lane buffers.
    vertex_t ms_n_ = kInvalidVertex;
};

}  // namespace sge
