#pragma once

// Internal header (like engine_common.hpp): include only from
// src/core/*.cpp, bench and tests.

#include <cstdint>
#include <memory>
#include <vector>

#include "concurrency/channel.hpp"
#include "concurrency/versioned_bitmap.hpp"
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
/// queries then reset in O(touched): the visited/claim state is
/// epoch-versioned (VersionedBitmap), so a reset is an epoch bump, not
/// an O(n) memset.
///
/// All members are public engine-facing state, not a stable API: the
/// engines (bfs_naive/bitmap/multisocket/hybrid, multi_source_bfs) are
/// the only intended readers/writers, and prepare()/prepare_ms() are the
/// only entry points callers use.
class BfsWorkspace {
  public:
    BfsWorkspace() = default;
    BfsWorkspace(const BfsWorkspace&) = delete;
    BfsWorkspace& operator=(const BfsWorkspace&) = delete;

    /// Readies the workspace for one query of `engine` over `g` on
    /// `team`: (re)allocates + first-touches when the graph size,
    /// engine or team changed (stats.prepares), otherwise performs the
    /// cheap epoch-bump reset (stats.workspace_reuses). Also drains any
    /// residue an aborted previous run (watchdog, fault injection) left
    /// in queues or channels, so a failed query never poisons the next.
    void prepare(const CsrGraph& g, BfsEngine engine, const BfsOptions& options,
                 ThreadTeam& team);
    void prepare(const CompressedCsrGraph& g, BfsEngine engine,
                 const BfsOptions& options, ThreadTeam& team);
    void prepare(const PagedGraph& g, BfsEngine engine,
                 const BfsOptions& options, ThreadTeam& team);

    /// Readies the MS-BFS lane buffers (seen/frontier/next masks) and
    /// the dense-scan plan for one multi_source_bfs call on `team`.
    void prepare_ms(const CsrGraph& g, SchedulePolicy schedule,
                    ThreadTeam& team);
    void prepare_ms(const CompressedCsrGraph& g, SchedulePolicy schedule,
                    ThreadTeam& team);
    void prepare_ms(const PagedGraph& g, SchedulePolicy schedule,
                    ThreadTeam& team);

    // ---- engine-facing state ------------------------------------------

    /// Visited set (bitmap/multisocket/hybrid engines).
    VersionedBitmap visited;

    /// Frontier-as-bitmap pair (hybrid engine only).
    VersionedBitmap frontier_bits[2];

    /// Naive engine's claim array: word v packs `epoch (high 32) |
    /// parent (low 32)`; a stale stamp means unclaimed. Mirrors the
    /// bitmap's epoch trick at per-vertex granularity so Algorithm 1
    /// keeps its one-atomic-per-edge character without an O(n) reset.
    AlignedBuffer<std::atomic<std::uint64_t>> claim;
    std::uint32_t claim_epoch = 0;

    /// Global CQ/NQ pair (naive/bitmap/hybrid engines).
    FrontierQueue queues[2];

    /// Per-socket CQ/NQ pairs, socket_queues[phase][socket]
    /// (multisocket engine).
    std::vector<FrontierQueue> socket_queues[2];

    /// Inter-socket channels, one per owner socket (multisocket).
    std::vector<std::unique_ptr<Channel<std::uint64_t, kEmptyVisit>>> channels;

    /// Frontier scheduler (naive/bitmap/hybrid) and the hybrid's
    /// whole-vertex-range scheduler with its cut-once flag.
    std::unique_ptr<WorkQueue> wq;
    std::unique_ptr<WorkQueue> range_wq;
    bool range_planned = false;

    /// Per-socket frontier schedulers (multisocket).
    std::vector<std::unique_ptr<WorkQueue>> socket_wqs;

    /// Socket-local worker ranks: rank_in_socket[tid] and
    /// socket_threads[socket] (first-touch splits + multisocket claims).
    std::vector<int> rank_in_socket;
    std::vector<int> socket_threads;

    /// One thread's discoveries in the level just scanned (hybrid
    /// engine): written by its owner before the level barrier, summed by
    /// thread 0 after it. A line of its own, so the owner's store never
    /// invalidates a line another worker reads.
    struct alignas(kCacheLineSize) LevelTally {
        std::uint64_t discovered = 0;         ///< vertices claimed
        std::uint64_t discovered_degree = 0;  ///< their summed out-degrees
    };

    /// Per-thread staging hoisted out of the engines' level loops so a
    /// prepared traversal is allocation-free (asserted in debug builds
    /// via aligned_alloc_count()).
    struct alignas(kCacheLineSize) ThreadScratch {
        LocalBatch<vertex_t> staged{0};               ///< NQ staging
        std::vector<LocalBatch<std::uint64_t>> remote;  ///< per-socket tuples
        AlignedBuffer<std::uint64_t> drain;           ///< channel drain buffer
        LevelTally tally;                             ///< hybrid's per-level sums
    };
    std::vector<ThreadScratch> scratch;

    /// Atomic-free frontier-generation arena (FrontierGen::kCompact):
    /// per-thread discovery buffers plus the published counts the
    /// exclusive prefix sum runs over, reused across levels and queries.
    /// Unconfigured (empty) when the runner uses FrontierGen::kAtomic.
    FrontierCompactor compactor;

    /// Per-level stats slots, reused across queries (acquire_level_slot).
    detail::LevelAccumLog accum;

    // ---- MS-BFS lane state (multi_source_bfs) -------------------------

    AlignedBuffer<std::atomic<std::uint64_t>> ms_seen;
    AlignedBuffer<std::uint64_t> ms_frontier;
    AlignedBuffer<std::atomic<std::uint64_t>> ms_next;
    std::unique_ptr<WorkQueue> ms_wq;
    bool ms_planned = false;

    /// Lifetime counters (prepares / reuses / reset words).
    BfsWorkspaceStats stats;

  private:
    // Backend-generic bodies behind the prepare()/prepare_ms() overload
    // pairs (defined in bfs_workspace.cpp — legal because the overloads
    // there are the only instantiation points). Either backend's
    // offsets-array address serves as the graph identity tag.
    template <class Graph>
    void prepare_impl(const Graph& g, BfsEngine engine,
                      const BfsOptions& options, ThreadTeam& team);
    template <class Graph>
    void prepare_ms_impl(const Graph& g, SchedulePolicy schedule,
                         ThreadTeam& team);

    void allocate(vertex_t n, BfsEngine engine, const BfsOptions& options,
                  ThreadTeam& team);
    void first_touch(BfsEngine engine, ThreadTeam& team);
    void reset_for_query(BfsEngine engine);
    void note_graph(const void* offsets, vertex_t n, std::uint64_t m);

    // Identity of the last-prepared configuration. prepared_n_ is
    // poisoned (kInvalidVertex) while allocate() is in flight so a
    // fault-injected partial allocation forces a clean retry.
    vertex_t prepared_n_ = kInvalidVertex;
    BfsEngine prepared_engine_ = BfsEngine::kAuto;
    int prepared_threads_ = 0;
    FrontierGen prepared_gen_ = FrontierGen::kAtomic;

    // Identity of the last-seen graph (offsets pointer + sizes): a swap
    // at equal n keeps the buffers but invalidates degree-derived plans.
    const void* tag_offsets_ = nullptr;
    vertex_t tag_n_ = 0;
    std::uint64_t tag_m_ = 0;

    // MS-BFS plan identity.
    vertex_t ms_n_ = kInvalidVertex;
    int ms_threads_ = 0;
    SchedulePolicy ms_schedule_ = SchedulePolicy::kStatic;
};

}  // namespace sge
