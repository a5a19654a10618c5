#include <cassert>

#include "concurrency/channel.hpp"
#include "core/level_driver.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"

namespace sge::detail {

namespace {

/// Algorithm 3: the paper's full multi-socket BFS.
///
/// Vertices are block-partitioned across sockets; each socket owns the
/// slice of the parent array and bitmap for its vertices plus a private
/// current/next queue pair, so the random-access hot data never crosses
/// the coherence boundary. A level runs in two phases:
///
///   Phase 1 — each socket's workers scan their CQ. A neighbour owned
///   locally goes through the bitmap double-check straight into the
///   local NQ; a remote neighbour is *not* touched (its bitmap bit lives
///   on another socket) — the (child, parent) tuple is batched into the
///   owner's channel instead.
///
///   Phase 2 — after a barrier, each socket drains its own channel,
///   applying the same double-checked visit to tuples other sockets
///   sent. Duplicates (multiple senders discovering one vertex) resolve
///   at the single atomic on the owner's bitmap.
///
/// Channels are FastForward rings ticket-locked per side with batched
/// access (Section III: ~30 ns normalized cost per remote vertex). All
/// arenas — queues, channels, schedulers, per-thread staging — live in
/// the workspace and were first-touched by each socket's own pinned
/// workers, so back-to-back queries pay no allocation or page-placement
/// cost. Both phases' local discoveries compact into the socket's NQ at
/// a per-socket prefix offset (the compactor groups claimants by socket).
template <class Graph>
class MultiSocketStep {
  public:
    MultiSocketStep(const Graph& g, const BfsOptions& options,
                    const ThreadTeam& team, BfsWorkspace& ws)
        : g_(g),
          options_(options),
          team_(team),
          ws_(ws),
          partition_(g.num_vertices(), team.sockets_used()) {}

    void seed(vertex_t root) {
        ws_.visited.test_and_set(root);
        ws_.socket_queues[0][partition_.socket_of(root)].push_one(root);
        plan(0);
    }

    bool compacts() const noexcept { return true; }

    bool scan(LevelCtx& lv) {
        // Locals, not members: the hot lambdas capture them directly.
        const Graph& g = g_;
        ThreadCounters& counters = lv.counters;
        const int my = team_.socket_of(lv.tid);
        const FrontierQueue& cq = ws_.socket_queues[current_][my];
        BfsWorkspace::ThreadScratch& scratch =
            ws_.scratch[static_cast<std::size_t>(lv.tid)];
        std::vector<LocalBatch<std::uint64_t>>& remote = scratch.remote;
        AtomicBitmap& visited = ws_.visited;
        const bool double_check = options_.bitmap_double_check;
        // Visit `v` (owned by this socket) with parent `u`; stage it for
        // the socket's NQ on first visit. Shared by both phases.
        const auto visit_local = [&](vertex_t v, vertex_t u) {
            if (double_checked_claim(visited, v, double_check, counters))
                lv.discover(v, u);
        };
        const auto ship = [&](int s) {
            counters.add<LevelCounter::batches_pushed>(1);
            counters.add<LevelCounter::batch_occupancy>(
                1, batch_occupancy_bucket(remote[s].size(),
                                          remote[s].capacity()));
            ws_.channels[s]->push_batch(remote[s].data(), remote[s].size());
            remote[s].clear();
        };

        // ---- Phase 1: scan this socket's frontier. ----
        const int rank = ws_.rank_in_socket[static_cast<std::size_t>(lv.tid)];
        for_each_claim(*ws_.socket_wqs[my], rank, counters, [&](std::size_t begin,
                                                               std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const vertex_t u = cq[i];
                if (i + 1 < end) g.prefetch_adjacency(cq[i + 1]);
                scan_adjacency(
                    g, u, counters, [](vertex_t) {},
                    [&](vertex_t v) {
                        const int s = partition_.socket_of(v);
                        if (s == my) {
                            visit_local(v, u);
                            return;
                        }
                        // Optional ablation: peek at the owner's bit
                        // before shipping. Costs remote coherence traffic
                        // (why the paper doesn't), saves channel volume
                        // for already-visited hubs.
                        if (options_.remote_sender_filter) {
                            counters.add<LevelCounter::bitmap_checks>(1);
                            if (visited.test(v)) {
                                counters.add<LevelCounter::bitmap_skips>(1);
                                return;
                            }
                        }
                        counters.add<LevelCounter::remote_tuples>(1);
                        if (remote[s].push(pack_visit(v, u))) ship(s);
                    });
            }
        });
        for (int s = 0; s < static_cast<int>(remote.size()); ++s)
            if (!remote[s].empty()) ship(s);
        if (!lv.wait()) return false;

        // ---- Phase 2: drain tuples other sockets sent us. ----
        Channel<std::uint64_t, kEmptyVisit>& my_channel = *ws_.channels[my];
        AlignedBuffer<std::uint64_t>& drain = scratch.drain;
        for (;;) {
            const std::size_t k = my_channel.pop_batch(drain.data(), drain.size());
            if (k == 0) break;
            counters.add<LevelCounter::batches_popped>(1);
            for (std::size_t j = 0; j < k; ++j)
                visit_local(visit_child(drain[j]), visit_parent(drain[j]));
        }
        // Producers went quiescent at the phase-1 barrier, so an empty
        // pop here means every push this level — including each sender's
        // final partial batch — has been consumed. A leftover tuple would
        // be dropped silently (a missing tree edge), so fail loudly in
        // debug builds.
        assert(my_channel.drained());
        return true;
    }

    vertex_t* next_slots(int tid) noexcept {
        return ws_.socket_queues[1 - current_][team_.socket_of(tid)].slots_mut();
    }

    std::uint64_t end_level() {
        std::uint64_t next = 0;
        for (int s = 0; s < partition_.sockets(); ++s) {
            ws_.socket_queues[current_][s].reset();
            FrontierQueue& nq = ws_.socket_queues[1 - current_][s];
            nq.set_size(ws_.compactor.group_total(s));
            next += nq.size();
        }
        current_ = 1 - current_;
        return next;
    }

    void plan_next() {
        plan(current_);
        // Per-socket queues are handed over one by one; the prefetcher
        // appends unprocessed same-level parts.
        for (const FrontierQueue& q : ws_.socket_queues[current_])
            prefetch_next_frontier(g_, q.data(), q.size());
    }

    bool convert(LevelCtx&) noexcept { return true; }

    std::uint64_t unvisited(std::size_t wi) const noexcept {
        return ~ws_.visited.words()[wi].load(std::memory_order_relaxed);
    }

    std::uint64_t edges_traversed(std::uint64_t scanned) const noexcept {
        return scanned;
    }

    /// Per socket: both queue depths and the channel's pushed/popped
    /// totals (a momentary view, not a quiescent one).
    std::string diagnose() const {
        std::string diag;
        for (int s = 0; s < partition_.sockets(); ++s) {
            diag += "; socket " + std::to_string(s) +
                    ": q0=" + std::to_string(ws_.socket_queues[0][s].size()) +
                    " q1=" + std::to_string(ws_.socket_queues[1][s].size()) +
                    " channel pushed=" +
                    std::to_string(ws_.channels[s]->pushed()) +
                    " popped=" + std::to_string(ws_.channels[s]->popped());
        }
        return diag;
    }

  private:
    void plan(int phase) {
        for (int s = 0; s < partition_.sockets(); ++s) {
            const FrontierQueue& q = ws_.socket_queues[phase][s];
            plan_frontier(*ws_.socket_wqs[s], q.data(), q.size(), g_);
        }
    }

    const Graph& g_;
    const BfsOptions& options_;
    const ThreadTeam& team_;
    BfsWorkspace& ws_;
    const SocketPartition partition_;
    int current_ = 0;  // CQ phase; written by thread 0 between barriers
};

}  // namespace

template <class Graph>
void bfs_multisocket(const Graph& g, vertex_t root, const BfsOptions& options,
                     ThreadTeam& team, BfsWorkspace& ws, BfsResult& result) {
    MultiSocketStep<Graph> step(g, options, team, ws);
    run_single_source(g, root, "bfs_multisocket", options, team, ws, result,
                      step);
}

template void bfs_multisocket(const CsrGraph&, vertex_t, const BfsOptions&,
                              ThreadTeam&, BfsWorkspace&, BfsResult&);
template void bfs_multisocket(const CompressedCsrGraph&, vertex_t,
                              const BfsOptions&, ThreadTeam&, BfsWorkspace&,
                              BfsResult&);
template void bfs_multisocket(const PagedGraph&, vertex_t, const BfsOptions&,
                              ThreadTeam&, BfsWorkspace&, BfsResult&);

}  // namespace sge::detail
