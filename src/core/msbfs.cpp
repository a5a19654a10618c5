#include "core/msbfs.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/level_driver.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/simd_scan.hpp"

namespace sge {

namespace {

/// One MS-BFS level as a run_levels step. Lane masks live in the
/// workspace: `seen` is the union of lanes that reached each vertex,
/// `frontier`/`next` the lanes that reached it this level / next level.
/// The scan claims the degree-weighted [0, n) plan and spreads each
/// frontier vertex's lanes to its neighbours; after a phase barrier each
/// worker swaps its slice of `next` into `frontier`, reports it to the
/// visitor and tallies the active vertices, which end_level() sums.
/// Levels never compact: the next frontier is the lane array itself.
template <class Graph>
class MsBfsStep {
  public:
    MsBfsStep(const Graph& g, const MsBfsVisitor& visit, BfsWorkspace& ws,
              int threads)
        : g_(g), visit_(visit), ws_(ws), threads_(threads) {}

    /// Lane i starts at sources[i] (distinct), reported as level 0 on
    /// the calling thread, before the team starts.
    void seed(std::span<const vertex_t> sources) {
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const std::uint64_t bit = 1ULL << i;
            ws_.ms_seen[sources[i]].store(bit, std::memory_order_relaxed);
            ws_.ms_frontier[sources[i]] = bit;
            visit_(0, 0, sources[i], bit);
        }
    }

    bool compacts() const noexcept { return false; }

    bool scan(detail::LevelCtx& lv) {
        detail::ThreadCounters& counters = lv.counters;
        std::atomic<std::uint64_t>* const seen = ws_.ms_seen.data();
        std::uint64_t* const frontier = ws_.ms_frontier.data();
        std::atomic<std::uint64_t>* const next = ws_.ms_next.data();
        const simd::IsaLevel isa = simd::active_level();
        std::uint64_t words = 0;
        const auto spread = [&](std::size_t vi, std::uint64_t lanes) {
            detail::scan_adjacency(
                g_, static_cast<vertex_t>(vi), counters, [](vertex_t) {},
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
                    const std::uint64_t prev =
                        seen[w].fetch_or(propagate, std::memory_order_acq_rel);
                    propagate &= ~prev;  // lanes we actually won
                    if (propagate != 0) {
                        counters.add<LevelCounter::atomic_wins>(1);
                        counters.add<LevelCounter::atomic_ops>(1);
                        next[w].fetch_or(propagate, std::memory_order_relaxed);
                    }
                });
        };
        // frontier[] is read-only during the scan phase, so empty lane
        // masks are skipped a word block at a time instead of one
        // load+branch per vertex.
        detail::for_each_claim(
            *ws_.range_wq, lv.tid, counters,
            [&](std::size_t lo, std::size_t hi) {
                simd::for_each_nonzero_u64(frontier, lo, hi, isa, words,
                                           spread);
            });
        if (!lv.wait()) return false;

        // Swap + report: the phase barrier quiesced next[], so this
        // worker's slice block-copies into frontier[] and zeroes without
        // per-word atomics; the callbacks then ride the nonzero-word
        // sweep.
        static_assert(sizeof(*next) == sizeof(std::uint64_t),
                      "lane swap relies on lock-free layout");
        const auto [begin, end] =
            detail::split_range(g_.num_vertices(), threads_, lv.tid);
        std::memcpy(frontier + begin, static_cast<const void*>(next + begin),
                    (end - begin) * sizeof(std::uint64_t));
        std::memset(static_cast<void*>(next + begin), 0,
                    (end - begin) * sizeof(std::uint64_t));
        std::uint64_t active = 0;
        simd::for_each_nonzero_u64(
            frontier, begin, end, isa, words,
            [&](std::size_t v, std::uint64_t lanes) {
                ++active;
                visit_(lv.tid, lv.depth + 1, static_cast<vertex_t>(v), lanes);
            });
        counters.add<LevelCounter::simd_words_scanned>(words);
        ws_.scratch[static_cast<std::size_t>(lv.tid)].tally.discovered = active;
        return true;
    }

    vertex_t* next_slots(int) noexcept { return nullptr; }  // never compacts

    std::uint64_t end_level() {
        std::uint64_t active = 0;
        for (int t = 0; t < threads_; ++t)
            active += ws_.scratch[static_cast<std::size_t>(t)].tally.discovered;
        return active;
    }

    void plan_next() { ws_.vertex_range_plan(g_); }

    bool convert(detail::LevelCtx&) noexcept { return true; }

    std::string diagnose() const { return {}; }

  private:
    const Graph& g_;
    const MsBfsVisitor& visit_;
    BfsWorkspace& ws_;
    const int threads_;
};

}  // namespace

template <BackendGraph Graph>
std::uint32_t multi_source_bfs(const Graph& g,
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

    // External team and workspace (query-throughput mode) or per-call
    // ones.
    std::unique_ptr<ThreadTeam> owned_team;
    if (options.team == nullptr)
        owned_team = std::make_unique<ThreadTeam>(
            std::max(1, options.threads),
            options.topology ? *options.topology : Topology::detect());
    ThreadTeam& team = options.team != nullptr ? *options.team : *owned_team;
    BfsWorkspace owned_ws;
    BfsWorkspace& ws =
        options.workspace != nullptr ? *options.workspace : owned_ws;
    ws.prepare_ms(g, team);

    MsBfsStep<Graph> step(g, visit, ws, team.size());
    step.seed(sources);
    // The driver reads only the cancel token and the stats flag.
    BfsOptions driver;
    driver.cancel = options.cancel;
    driver.collect_stats =
        options.collect_stats && options.level_stats != nullptr;
    return detail::run_levels("multi_source_bfs", driver, team, ws, step,
                              sources.size(),
                              {nullptr, nullptr, options.level_stats, nullptr},
                              [](int) {})
        .levels;
}

template std::uint32_t multi_source_bfs(const CsrGraph&,
                                        std::span<const vertex_t>,
                                        const MsBfsVisitor&,
                                        const MsBfsOptions&);
template std::uint32_t multi_source_bfs(const CompressedCsrGraph&,
                                        std::span<const vertex_t>,
                                        const MsBfsVisitor&,
                                        const MsBfsOptions&);
template std::uint32_t multi_source_bfs(const PagedGraph&,
                                        std::span<const vertex_t>,
                                        const MsBfsVisitor&,
                                        const MsBfsOptions&);

}  // namespace sge
