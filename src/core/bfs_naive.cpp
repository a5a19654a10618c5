#include <algorithm>
#include <atomic>

#include "core/level_driver.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/prefetch.hpp"

namespace sge::detail {

namespace {

/// Algorithm 1: the high-level parallel BFS before any of the paper's
/// optimizations. One shared current/next queue pair; the visited check
/// is an unconditional atomic per neighbour (the listing's lines 10-12
/// "must be executed atomically"). This is the baseline curve of
/// Figure 5.
///
/// The claim array is the listing's P[]: the workspace fills it with
/// kInvalidVertex before each query, and one CAS per neighbour claims.
template <class Graph>
class NaiveStep {
  public:
    NaiveStep(const Graph& g, BfsWorkspace& ws)
        : g_(g), ws_(ws), claim_(ws.claim.data()) {}

    void seed(vertex_t root) {
        claim_[root].store(root, std::memory_order_relaxed);
        ws_.queues[0].push_one(root);
        plan_frontier(*ws_.wq, ws_.queues[0].data(), 1, g_);
    }

    bool compacts() const noexcept { return true; }

    bool scan(LevelCtx& lv) {
        // Locals, not members: the hot lambdas capture them directly.
        const Graph& g = g_;
        ThreadCounters& counters = lv.counters;
        std::atomic<vertex_t>* const claim = claim_;
        const FrontierQueue& cq = ws_.queues[current_];
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
                    [&](vertex_t w) { prefetch_read(&claim[w]); },
                    [&](vertex_t v) {
                        // Unconditional atomic claim (Algorithm 1's
                        // atomic P[v] == INF -> u).
                        counters.add<LevelCounter::bitmap_checks>(1);
                        counters.add<LevelCounter::atomic_ops>(1);
                        vertex_t unclaimed = kInvalidVertex;
                        if (claim[v].compare_exchange_strong(
                                unclaimed, u, std::memory_order_acq_rel,
                                std::memory_order_relaxed))
                            lv.discover(v, u);
                    });
            }
        });
        return true;
    }

    vertex_t* next_slots(int) noexcept {
        return ws_.queues[1 - current_].slots_mut();
    }

    std::uint64_t end_level() {
        ws_.queues[current_].reset();
        current_ = 1 - current_;
        ws_.queues[current_].set_size(ws_.compactor.total());
        return ws_.queues[current_].size();
    }

    void plan_next() {
        const FrontierQueue& cq = ws_.queues[current_];
        plan_frontier(*ws_.wq, cq.data(), cq.size(), g_);
        prefetch_next_frontier(g_, cq.data(), cq.size());
    }

    bool convert(LevelCtx&) noexcept { return true; }

    /// Word wi of the unclaimed set, gathered from P[].
    std::uint64_t unvisited(std::size_t wi) const noexcept {
        constexpr std::size_t W = AtomicBitmap::kBitsPerWord;
        const std::size_t base = wi * W;
        const std::size_t end =
            std::min<std::size_t>(base + W, g_.num_vertices());
        std::uint64_t mask = 0;
        for (std::size_t v = base; v < end; ++v)
            if (claim_[v].load(std::memory_order_relaxed) == kInvalidVertex)
                mask |= std::uint64_t{1} << (v - base);
        return mask;
    }

    std::uint64_t edges_traversed(std::uint64_t scanned) const noexcept {
        return scanned;
    }

    std::string diagnose() const {
        return " q0=" + std::to_string(ws_.queues[0].size()) +
               " q1=" + std::to_string(ws_.queues[1].size());
    }

  private:
    const Graph& g_;
    BfsWorkspace& ws_;
    std::atomic<vertex_t>* const claim_;
    int current_ = 0;  // CQ index; written by thread 0 between barriers
};

}  // namespace

template <class Graph>
void bfs_naive(const Graph& g, vertex_t root, const BfsOptions& options,
               ThreadTeam& team, BfsWorkspace& ws, BfsResult& result) {
    NaiveStep<Graph> step(g, ws);
    run_single_source(g, root, "bfs_naive", options, team, ws, result, step);
}

template void bfs_naive(const CsrGraph&, vertex_t, const BfsOptions&,
                        ThreadTeam&, BfsWorkspace&, BfsResult&);
template void bfs_naive(const CompressedCsrGraph&, vertex_t, const BfsOptions&,
                        ThreadTeam&, BfsWorkspace&, BfsResult&);
template void bfs_naive(const PagedGraph&, vertex_t, const BfsOptions&,
                        ThreadTeam&, BfsWorkspace&, BfsResult&);

}  // namespace sge::detail
