#include <bit>

#include "core/level_driver.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/simd_scan.hpp"

namespace sge::detail {

namespace {

/// Direction of one BFS level.
enum class Direction { kTopDown, kBottomUp };

/// Sum of the out-degrees of `count` discovered vertices — the
/// direction heuristic's pending arcs. Top-down levels take it once per
/// level, after their claims, and out of line: the reads are
/// independent, so they overlap instead of each waiting behind its
/// locked claim. With the degree read (or this loop inlined) in the edge
/// callback, top-down levels ran ~3% slower than Algorithm 2's on a
/// 1024x1024 grid (2 threads, 4-vCPU Xeon guest); out here they match
/// it.
template <class Graph>
[[gnu::noinline]] std::uint64_t degree_sum(const Graph& g,
                                           const vertex_t* items,
                                           std::size_t count) noexcept {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < count; ++i) sum += g.degree(items[i]);
    return sum;
}

/// Direction-optimizing BFS (Beamer, Asanović, Patterson, SC'12)
/// layered on the paper's substrates — and, with flips off, the paper's
/// Algorithm 2.
///
/// Top-down levels are Algorithm 2: the visited set lives in a bitmap,
/// one bit per vertex, shrinking the randomly-accessed working set
/// versus the parent array (Figure 2 shows this buys >=4x in raw
/// random-read rate), and every claim is double-checked
/// (double_checked_claim). Frontier chunks are claimed from the
/// scheduler, so its cursors are touched once per chunk instead of once
/// per vertex.
///
/// With flips on, when the frontier's pending out-arcs exceed 1/alpha
/// of the still-unexplored arcs and 1/beta of all arcs, the traversal
/// goes *bottom-up*: every unvisited vertex scans its own adjacency for
/// any parent in the current frontier and stops at the first hit. On
/// low-diameter power-law graphs (the paper's R-MAT workload) the two or
/// three explosive middle levels touch a small fraction of their edges
/// this way. The width guard counts arcs, not vertices, so a level-2
/// frontier of a few hubs next to the root — few vertices, most of the
/// arcs — flips too, while a high-diameter graph's thin frontiers never
/// do. The traversal flips back once the frontier shrinks below n/beta
/// vertices.
///
/// Bottom-up reads out-arcs as in-arcs, so flips are on only for kHybrid
/// on a graph stamped symmetric (g.symmetric()). With flips off every
/// level is top-down and no degrees are tallied: the claims and
/// counters are exactly Algorithm 2's, which is how kBitmap runs.
/// BfsResult::edges_traversed keeps the library convention (sum of
/// degrees over visited vertices) so rates stay comparable across
/// engines; BfsLevelStats::edges_scanned records the work actually
/// done, which is the point of the optimization.
///
/// Workspace reuse: prepare() zeroes the visited set and both frontier
/// bitmaps, and within a query end_level() zeroes a frontier bitmap once
/// a level has read it, so a flip always finds its target clear. The
/// [0, n) range plan, shared with MS-BFS, survives across queries on the
/// same graph — only its cursors rewind.
template <class Graph>
class HybridStep {
  public:
    HybridStep(const Graph& g, const BfsOptions& options, BfsWorkspace& ws,
               int threads, bool flips)
        : g_(g),
          options_(options),
          ws_(ws),
          threads_(threads),
          flips_(flips && g.symmetric()),
          isa_(simd::active_level()) {}

    void seed(vertex_t root) {
        ws_.visited.test_and_set(root);
        ws_.queues[0].push_one(root);
        explored_degree_ = g_.degree(root);
        plan_frontier(*ws_.wq, ws_.queues[0].data(), 1, g_);
    }

    /// Top-down levels compact their discoveries into NQ; bottom-up
    /// levels produce the next frontier as bits instead.
    bool compacts() const noexcept { return direction_ == Direction::kTopDown; }

    bool scan(LevelCtx& lv) {
        BfsWorkspace::LevelTally& tally =
            ws_.scratch[static_cast<std::size_t>(lv.tid)].tally;
        if (direction_ == Direction::kTopDown) {
            scan_top_down(lv);
            tally.discovered = lv.staged;
            if (flips_)
                tally.discovered_degree = degree_sum(g_, lv.out, lv.staged);
        } else {
            scan_bottom_up(lv, tally);
        }
        return true;
    }

    vertex_t* next_slots(int) noexcept {
        return ws_.queues[1 - current_].slots_mut();
    }

    std::uint64_t end_level() {
        const int cur = current_;
        std::uint64_t next_size = 0;
        std::uint64_t next_degree = 0;
        // This team's tallies only: a wave on a larger team grows scratch.
        for (int t = 0; t < threads_; ++t) {
            const BfsWorkspace::LevelTally& tally =
                ws_.scratch[static_cast<std::size_t>(t)].tally;
            next_size += tally.discovered;
            next_degree += tally.discovered_degree;
        }
        Direction next = direction_;
        if (flips_) {
            explored_degree_ += next_degree;
            const std::uint64_t total_arcs = g_.num_edges();
            const std::uint64_t unexplored = total_arcs - explored_degree_;
            if (direction_ == Direction::kTopDown) {
                // Flip when the frontier's pending arcs dwarf the
                // unexplored pool AND are a large enough share of all arcs
                // that an O(n) bottom-up sweep can pay off — the width
                // guard prevents tail oscillation on high-diameter graphs
                // once the pool runs dry.
                if (static_cast<double>(next_degree) >
                        static_cast<double>(unexplored) / options_.hybrid_alpha &&
                    static_cast<double>(next_degree) >
                        static_cast<double>(total_arcs) / options_.hybrid_beta)
                    next = Direction::kBottomUp;
            } else if (static_cast<double>(next_size) <
                       static_cast<double>(g_.num_vertices()) /
                           options_.hybrid_beta) {
                next = Direction::kTopDown;
            }
        }
        // The level just run read frontier_bits[cur] if it went
        // bottom-up or began with the harvest. Zero it now: it is the
        // next level's write target, or a later flip's. Top-down levels
        // never touch the bits, so they skip this.
        if (direction_ == Direction::kBottomUp || convert_to_queue_)
            ws_.frontier_bits[cur].clear();
        convert_to_bits_ =
            next == Direction::kBottomUp && direction_ == Direction::kTopDown;
        convert_to_queue_ =
            next == Direction::kTopDown && direction_ == Direction::kBottomUp;

        ws_.queues[cur].reset();
        if (direction_ == Direction::kTopDown)
            ws_.queues[1 - cur].set_size(ws_.compactor.total());
        current_ = 1 - cur;
        direction_ = next;
        return next_size;
    }

    /// Schedules the next level. A queue-borne frontier is re-cut per
    /// level; the [0, n) range plan is cut once per graph and merely
    /// rewound. After a bottom-up level the queue does not exist yet:
    /// convert() harvests and plans it.
    void plan_next() {
        if (direction_ == Direction::kBottomUp)
            ws_.vertex_range_plan(g_);
        else if (!convert_to_queue_)
            plan_queue(ws_.queues[current_]);
    }

    /// Representation conversions on a direction flip, threads-parallel.
    /// Their barrier waits land in the level just completed; the work
    /// itself shows up as the inter-span gap in the trace.
    bool convert(LevelCtx& lv) {
        FrontierQueue& cq = ws_.queues[current_];
        AtomicBitmap& fb = ws_.frontier_bits[current_];
        if (convert_to_bits_) {
            // Mirror the new current queue into the current frontier
            // bitmap, one fixed slice of the queue per worker.
            const auto [begin, end] = split_range(cq.size(), threads_, lv.tid);
            for (std::size_t i = begin; i < end; ++i) fb.test_and_set(cq[i]);
            return lv.wait();
        }
        if (!convert_to_queue_) return true;

        // The bottom-up level filled the frontier bitmap but no queue:
        // harvest its set bits over fixed word slices, two passes. Pass 1
        // popcounts this thread's slice of the (now quiescent) bitmap;
        // the barrier orders the counts, so pass 2 can write vertex ids
        // straight into a disjoint queue segment — the queue comes out in
        // ascending vertex order with zero atomics, deterministically.
        constexpr std::size_t W = AtomicBitmap::kBitsPerWord;
        FrontierCompactor& fc = ws_.compactor;
        // Plain reads of the atomic words: the bottom-up level's writes
        // finished behind a barrier, and nothing writes them until the
        // next level's.
        const auto* const words =
            reinterpret_cast<const std::uint64_t*>(fb.words());
        const auto [wlo, whi] = split_range(fb.num_words(), threads_, lv.tid);
        std::uint64_t words_scanned = 0;
        std::size_t found = 0;
        simd::for_each_nonzero_u64(words, wlo, whi, isa_, words_scanned,
                                   [&](std::size_t, std::uint64_t mask) {
                                       found += static_cast<unsigned>(
                                           std::popcount(mask));
                                   });
        fc.publish(lv.tid, found);
        if (!lv.wait()) return false;
        WallTimer harvest_timer;
        vertex_t* out = cq.slots_mut() + fc.offset_of(lv.tid);
        simd::for_each_nonzero_u64(
            words, wlo, whi, isa_, words_scanned,
            [&](std::size_t wi, std::uint64_t mask) {
                simd::for_each_bit(mask, [&](unsigned b) {
                    *out++ = static_cast<vertex_t>(wi * W + b);
                });
            });
        lv.slot.add<LevelCounter::prefix_sum_ns>(harvest_timer.nanoseconds());
        lv.slot.add<LevelCounter::compact_writes>(found);
        lv.slot.add<LevelCounter::simd_words_scanned>(words_scanned);
        if (!lv.wait()) return false;
        // The harvested queue only exists now: size it and cut its plan
        // for the top-down level about to start.
        if (lv.tid == 0) {
            cq.set_size(fc.total());
            plan_queue(cq);
        }
        return lv.wait();
    }

    std::uint64_t unvisited(std::size_t wi) const noexcept {
        return ~ws_.visited.words()[wi].load(std::memory_order_relaxed);
    }

    /// Library convention: ma = sum of degrees over visited vertices, so
    /// rates are comparable across engines regardless of how much work
    /// the bottom-up levels skipped. Without flips every level scans its
    /// whole frontier, and Σ edges_scanned is that sum.
    std::uint64_t edges_traversed(std::uint64_t scanned) const noexcept {
        return flips_ ? explored_degree_ : scanned;
    }

    std::string diagnose() const {
        return " q0=" + std::to_string(ws_.queues[0].size()) +
               " q1=" + std::to_string(ws_.queues[1].size());
    }

  private:
    void scan_top_down(LevelCtx& lv) {
        // Locals, not members: the hot lambdas capture them directly.
        const Graph& g = g_;
        ThreadCounters& counters = lv.counters;
        const FrontierQueue& cq = ws_.queues[current_];
        AtomicBitmap& visited = ws_.visited;
        const bool double_check = options_.bitmap_double_check;
        for_each_claim(*ws_.wq, lv.tid, counters, [&](std::size_t begin,
                                                      std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const vertex_t u = cq[i];
                // Keep the next vertex's adjacency metadata in flight
                // while scanning this one (Section III's decoupling of
                // computation and memory requests).
                if (i + 1 < end) g.prefetch_adjacency(cq[i + 1]);
                scan_adjacency(
                    g, u, counters,
                    [&](vertex_t w) { prefetch_read(visited.word_addr(w)); },
                    [&](vertex_t v) {
                        if (double_checked_claim(visited, v, double_check,
                                                 counters))
                            lv.discover(v, u);
                    });
            }
        });
    }

    /// Claims vertex ranges; each unvisited vertex hunts for a frontier
    /// parent in its own adjacency and stops at the first hit. The sweep
    /// tests 64 visited slots per word (whole full words cost one
    /// compare — or a quarter of one under AVX2) and ctz-iterates only
    /// the surviving unvisited bits. Visited vertices skipped wholesale
    /// are accounted in simd_words_scanned, not bitmap_skips; each
    /// emitted vertex counts one bitmap_check.
    ///
    /// The range plan cuts at cache lines, so every visited and
    /// next-frontier word a claim touches is this worker's alone for the
    /// level: it gathers a word's discoveries and publishes them with one
    /// plain store per bitmap (or_word_owned), and the level issues no
    /// locked RMW. The barrier ending the level orders those stores
    /// before the next level's reads.
    void scan_bottom_up(LevelCtx& lv, BfsWorkspace::LevelTally& tally) {
        constexpr std::size_t W = AtomicBitmap::kBitsPerWord;
        const Graph& g = g_;
        ThreadCounters& counters = lv.counters;
        AtomicBitmap& visited = ws_.visited;
        const AtomicBitmap& fb_cur = ws_.frontier_bits[current_];
        AtomicBitmap& fb_next = ws_.frontier_bits[1 - current_];
        std::uint64_t discovered = 0;
        std::uint64_t discovered_degree = 0;
        // The early-exit probe: scan_adjacency_until accounts
        // edges_scanned per examined neighbour; the callback returns false
        // to stop at the first frontier parent, which v settles on. True
        // when v found one.
        const auto hunt = [&](vertex_t v) {
            bool hit = false;
            scan_adjacency_until(g, v, counters, [&](vertex_t w) {
                counters.add<LevelCounter::bitmap_checks>(1);
                hit = fb_cur.test(w);
                if (hit) lv.settle(v, w);
                return !hit;
            });
            return hit;
        };
        const std::atomic<std::uint64_t>* const words = visited.words();
        std::uint64_t words_scanned = 0;
        for_each_claim(*ws_.range_wq, lv.tid, counters, [&](std::size_t base,
                                                            std::size_t stop) {
            const std::size_t whi = (stop + W - 1) / W;
            simd::for_each_unvisited_word(
                words, base / W, whi, isa_, words_scanned,
                [&](std::size_t wi, std::uint64_t mask) {
                    // Only the claim ending at n can end inside a word.
                    if (wi + 1 == whi && stop % W != 0)
                        mask &= (std::uint64_t{1} << (stop % W)) - 1;
                    std::uint64_t found = 0;
                    simd::for_each_bit(mask, [&](unsigned b) {
                        counters.add<LevelCounter::bitmap_checks>(1);
                        const auto v = static_cast<vertex_t>(wi * W + b);
                        if (!hunt(v)) return;
                        found |= std::uint64_t{1} << b;
                        ++discovered;
                        discovered_degree += g.degree(v);
                    });
                    if (found != 0) {
                        visited.or_word_owned(wi, found);
                        fb_next.or_word_owned(wi, found);
                    }
                });
        });
        counters.add<LevelCounter::simd_words_scanned>(words_scanned);
        tally.discovered = discovered;
        tally.discovered_degree = discovered_degree;
    }

    void plan_queue(const FrontierQueue& q) {
        plan_frontier(*ws_.wq, q.data(), q.size(), g_);
        // Bottom-up levels sweep the whole vertex range, so only
        // queue-borne (top-down) frontiers are worth handing to the paged
        // prefetcher.
        prefetch_next_frontier(g_, q.data(), q.size());
    }

    const Graph& g_;
    const BfsOptions& options_;
    BfsWorkspace& ws_;
    const int threads_;
    const bool flips_;
    const simd::IsaLevel isa_;
    // Written by thread 0 between barriers.
    std::uint64_t explored_degree_ = 0;  // arcs of the visited vertices
    int current_ = 0;
    Direction direction_ = Direction::kTopDown;
    bool convert_to_bits_ = false;
    bool convert_to_queue_ = false;
};

}  // namespace

template <class Graph>
void bfs_hybrid(const Graph& g, vertex_t root, BfsEngine engine,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result) {
    const bool flips = engine == BfsEngine::kHybrid;
    HybridStep<Graph> step(g, options, ws, team.size(), flips);
    run_single_source(g, root, flips ? "bfs_hybrid" : "bfs_bitmap", options,
                      team, ws, result, step);
}

template void bfs_hybrid(const CsrGraph&, vertex_t, BfsEngine,
                         const BfsOptions&, ThreadTeam&, BfsWorkspace&,
                         BfsResult&);
template void bfs_hybrid(const CompressedCsrGraph&, vertex_t, BfsEngine,
                         const BfsOptions&, ThreadTeam&, BfsWorkspace&,
                         BfsResult&);
template void bfs_hybrid(const PagedGraph&, vertex_t, BfsEngine,
                         const BfsOptions&, ThreadTeam&, BfsWorkspace&,
                         BfsResult&);

}  // namespace sge::detail
