#include "core/msbfs.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "concurrency/spin_barrier.hpp"
#include "concurrency/thread_team.hpp"
#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/simd_scan.hpp"
#include "runtime/timer.hpp"

namespace sge {

namespace {

template <class Graph>
std::uint32_t multi_source_bfs_impl(const Graph& g,
                                    std::span<const vertex_t> sources,
                                    const MsBfsVisitor& visit,
                                    const MsBfsOptions& options) {
    const vertex_t n = g.num_vertices();
    if (sources.empty() || sources.size() > 64)
        throw std::invalid_argument(
            "multi_source_bfs: need 1..64 sources per batch");
    for (const vertex_t s : sources)
        if (s >= n) throw std::out_of_range("multi_source_bfs: source out of range");
    // Validate before entering the parallel region: a worker throwing
    // between barriers would strand its teammates.
    for (std::size_t i = 0; i < sources.size(); ++i)
        for (std::size_t j = i + 1; j < sources.size(); ++j)
            if (sources[i] == sources[j])
                throw std::invalid_argument(
                    "multi_source_bfs: duplicate source vertex");

    if (options.workspace != nullptr && options.team == nullptr)
        throw std::invalid_argument(
            "multi_source_bfs: workspace reuse requires an external team");

    // External team (query-throughput mode) or a per-call one.
    std::unique_ptr<ThreadTeam> owned_team;
    if (options.team == nullptr)
        owned_team = std::make_unique<ThreadTeam>(
            std::max(1, options.threads),
            options.topology ? *options.topology : Topology::detect());
    ThreadTeam& team = options.team != nullptr ? *options.team : *owned_team;
    const int threads = team.size();
    SpinBarrier barrier(threads);

    // seen: union of lanes that reached each vertex; frontier/next: the
    // lanes that reached it exactly this level / next level. Either
    // per-call buffers or the workspace's reusable lane arenas.
    BfsWorkspace* const ws = options.workspace;
    AlignedBuffer<std::atomic<std::uint64_t>> local_seen;
    AlignedBuffer<std::uint64_t> local_frontier;
    AlignedBuffer<std::atomic<std::uint64_t>> local_next;
    std::unique_ptr<WorkQueue> local_wq;

    // Degree-weighted scan scheduling: one cut of [0, n) up front (the
    // weights never change), cursors rewound each level by tid 0.
    const simd::IsaLevel isa = simd::active_level();
    if (ws != nullptr) {
        // prepare_ms (re)allocates the lane buffers on shape change and
        // cuts/rewinds the dense-scan plan.
        ws->prepare_ms(g, team);
    } else {
        local_seen = AlignedBuffer<std::atomic<std::uint64_t>>(n);
        local_frontier = AlignedBuffer<std::uint64_t>(n);
        local_next = AlignedBuffer<std::atomic<std::uint64_t>>(n);
        local_wq =
            std::make_unique<WorkQueue>(threads, detail::team_socket_map(team));
        detail::plan_vertex_range(*local_wq, g);
    }
    std::atomic<std::uint64_t>* const seen =
        ws != nullptr ? ws->ms_seen.data() : local_seen.data();
    std::uint64_t* const frontier =
        ws != nullptr ? ws->ms_frontier.data() : local_frontier.data();
    std::atomic<std::uint64_t>* const next =
        ws != nullptr ? ws->ms_next.data() : local_next.data();
    WorkQueue& wq = ws != nullptr ? *ws->ms_wq : *local_wq;

    struct Shared {
        std::atomic<std::uint64_t> active{0};
        bool done = false;
        bool cancelled = false;  // written by tid 0 between barriers
        std::uint32_t levels = 0;
        std::atomic<std::uint64_t> settled{0};
    } shared;

    const bool collect =
        options.collect_stats && options.level_stats != nullptr;
    detail::LevelAccumLog local_stats;
    detail::LevelAccumLog& stats = ws != nullptr ? ws->accum : local_stats;
    detail::acquire_level_slot(stats, 0).set<LevelCounter::frontier_size>(
        sources.size());

    team.run([&](int tid) {
        // Parallel init.
        const std::size_t per = (n + threads - 1) / threads;
        const std::size_t begin = static_cast<std::size_t>(tid) * per;
        const std::size_t end = std::min<std::size_t>(begin + per, n);
        for (std::size_t v = begin; v < end; ++v) {
            seen[v].store(0, std::memory_order_relaxed);
            frontier[v] = 0;
            next[v].store(0, std::memory_order_relaxed);
        }
        if (!barrier.arrive_and_wait()) return;

        if (tid == 0) {
            for (std::size_t i = 0; i < sources.size(); ++i) {
                const std::uint64_t bit = 1ULL << i;
                const vertex_t s = sources[i];
                seen[s].store(bit, std::memory_order_relaxed);
                frontier[s] |= bit;
            }
        }
        if (!barrier.arrive_and_wait()) return;

        // Level-0 callbacks: each worker reports the sources in its slice.
        for (std::size_t v = begin; v < end; ++v)
            if (frontier[v] != 0)
                visit(tid, 0, static_cast<vertex_t>(v), frontier[v]);
        if (!barrier.arrive_and_wait()) return;

        level_t level = 0;
        WallTimer level_timer;  // tid 0 stamps per-level wall time
        for (;;) {
            detail::ThreadCounters counters;
            // Deque slots never relocate, so the reference stays valid
            // across tid 0's emplace_back between the barriers.
            detail::LevelAccum& slot = stats[level];

            // Scan: spread each frontier vertex's lanes to neighbours.
            std::uint64_t scan_words = 0;
            const auto scan_vertex = [&](std::size_t vi, std::uint64_t lanes) {
                detail::scan_adjacency(
                    g, static_cast<vertex_t>(vi), counters, [](vertex_t) {},
                    [&](vertex_t w) {
                        counters.add<LevelCounter::bitmap_checks>(1);
                        std::uint64_t propagate =
                            lanes & ~seen[w].load(std::memory_order_relaxed);
                        if (propagate == 0) {
                            // All lanes already reached w: the plain load
                            // filtered the fetch_or, same as the bitmap
                            // engine's double check.
                            counters.add<LevelCounter::bitmap_skips>(1);
                            return;
                        }
                        counters.add<LevelCounter::atomic_ops>(1);
                        const std::uint64_t prev = seen[w].fetch_or(
                            propagate, std::memory_order_acq_rel);
                        propagate &= ~prev;  // lanes we actually won
                        if (propagate != 0) {
                            counters.add<LevelCounter::atomic_wins>(1);
                            counters.add<LevelCounter::atomic_ops>(1);
                            next[w].fetch_or(propagate,
                                             std::memory_order_relaxed);
                        }
                    });
            };
            // frontier[] is read-only during the scan phase, so empty lane
            // masks are skipped a word block at a time instead of one
            // load+branch per vertex.
            detail::for_each_claim(
                wq, tid, counters, [&](std::size_t lo, std::size_t hi) {
                    simd::for_each_nonzero_u64(frontier, lo, hi, isa,
                                               scan_words, scan_vertex);
                });
            counters.add<LevelCounter::simd_words_scanned>(scan_words);
            counters.flush_into(slot);
            if (!detail::timed_wait(barrier, slot, collect)) return;

            // Swap + report: each worker publishes its slice of `next`.
            // The level barrier quiesced next[], so this worker's slice
            // block-copies into frontier[] and zeroes without per-word
            // atomics; the callbacks then ride the nonzero-word sweep.
            // (Counters were flushed above — swap-phase words go straight
            // to the level slot.)
            static_assert(sizeof(std::atomic<std::uint64_t>) ==
                              sizeof(std::uint64_t),
                          "lane swap relies on lock-free layout");
            if (end > begin) {
                std::memcpy(frontier + begin,
                            static_cast<const void*>(next + begin),
                            (end - begin) * sizeof(std::uint64_t));
                std::memset(static_cast<void*>(next + begin), 0,
                            (end - begin) * sizeof(std::uint64_t));
            }
            std::uint64_t local_active = 0;
            std::uint64_t swap_words = 0;
            simd::for_each_nonzero_u64(
                frontier, begin, end, isa, swap_words,
                [&](std::size_t v, std::uint64_t lanes) {
                    ++local_active;
                    visit(tid, level + 1, static_cast<vertex_t>(v), lanes);
                });
            slot.add<LevelCounter::simd_words_scanned>(swap_words);
            shared.active.fetch_add(local_active, std::memory_order_relaxed);
            if (!detail::timed_wait(barrier, slot, collect)) return;

            if (tid == 0) {
                slot.set<LevelCounter::seconds>(level_timer.seconds());
                level_timer.reset();
                const std::uint64_t active =
                    shared.active.load(std::memory_order_relaxed);
                shared.done = active == 0;
                shared.active.store(0, std::memory_order_relaxed);
                shared.settled.fetch_add(active, std::memory_order_relaxed);
                ++shared.levels;
                if (!shared.done && options.cancel != nullptr &&
                    options.cancel->poll()) {
                    shared.cancelled = true;
                    shared.done = true;
                }
                if (!shared.done) {
                    detail::acquire_level_slot(stats, level + 1)
                        .set<LevelCounter::frontier_size>(active);
                    wq.reset_cursors();
                }
            }
            if (!detail::timed_wait(barrier, slot, collect)) return;
            if (shared.done) break;
            ++level;
        }
    }, &barrier);

    if (shared.cancelled)
        detail::throw_cancelled(
            "multi_source_bfs", shared.levels,
            shared.settled.load(std::memory_order_relaxed));
    if (collect)
        detail::copy_level_stats(*options.level_stats, stats, shared.levels);
    return shared.levels;
}

}  // namespace

std::uint32_t multi_source_bfs(const CsrGraph& g,
                               std::span<const vertex_t> sources,
                               const MsBfsVisitor& visit,
                               const MsBfsOptions& options) {
    return multi_source_bfs_impl(g, sources, visit, options);
}

std::uint32_t multi_source_bfs(const CompressedCsrGraph& g,
                               std::span<const vertex_t> sources,
                               const MsBfsVisitor& visit,
                               const MsBfsOptions& options) {
    return multi_source_bfs_impl(g, sources, visit, options);
}

std::uint32_t multi_source_bfs(const PagedGraph& g,
                               std::span<const vertex_t> sources,
                               const MsBfsVisitor& visit,
                               const MsBfsOptions& options) {
    return multi_source_bfs_impl(g, sources, visit, options);
}

}  // namespace sge
