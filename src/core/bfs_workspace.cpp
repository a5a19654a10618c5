#include "core/bfs_workspace.hpp"

#include <atomic>
#include <cstring>

#include "concurrency/thread_team.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "graph/partition.hpp"

namespace sge {

namespace {

/// Word range of the vertex slice [vlo, vhi) — boundary words shared
/// with a neighbouring slice are covered by both sides; the zero stores
/// are idempotent, so the overlap is harmless.
std::pair<std::size_t, std::size_t> word_range(std::size_t vlo,
                                               std::size_t vhi) noexcept {
    constexpr std::size_t w = AtomicBitmap::kBitsPerWord;
    return {vlo / w, (vhi + w - 1) / w};
}

static_assert(sizeof(std::atomic<vertex_t>) == sizeof(vertex_t));
static_assert(std::atomic<vertex_t>::is_always_lock_free);
static_assert(kInvalidVertex == static_cast<vertex_t>(~vertex_t{0}));

/// Sets the naive claim words [lo, hi) to kInvalidVertex in one bulk
/// fill of all-ones bytes.
void fill_unclaimed(AlignedBuffer<std::atomic<vertex_t>>& claim,
                    std::size_t lo, std::size_t hi) noexcept {
    // Plain stores to the atomic words: a lock-free atomic<vertex_t> is
    // the bare 4-byte word (asserted above), and no traversal runs while
    // they are filled; the team's next region start publishes them.
    std::memset(static_cast<void*>(claim.data() + lo), 0xFF,
                (hi - lo) * sizeof(vertex_t));
}

}  // namespace

template <BackendGraph Graph>
void BfsWorkspace::prepare(const Graph& g, BfsEngine engine,
                           const BfsOptions& options, ThreadTeam& team) {
    if (g.num_vertices() != prepared_n_ || engine != prepared_engine_ ||
        team.size() != prepared_threads_) {
        allocate(g.num_vertices(), engine, options, team);
        ++stats.prepares;
    } else {
        ++stats.workspace_reuses;
    }
    note_graph(g.id());
    if (engine == BfsEngine::kHybrid) ensure_range_wq(team);
    reset_for_query(engine);
}

template void BfsWorkspace::prepare(const CsrGraph&, BfsEngine,
                                    const BfsOptions&, ThreadTeam&);
template void BfsWorkspace::prepare(const CompressedCsrGraph&, BfsEngine,
                                    const BfsOptions&, ThreadTeam&);
template void BfsWorkspace::prepare(const PagedGraph&, BfsEngine,
                                    const BfsOptions&, ThreadTeam&);

void BfsWorkspace::note_graph(std::uint64_t graph_id) {
    if (graph_id == graph_id_) return;
    // Different graph (even at equal n): degree-derived plans are stale.
    range_planned = false;
    graph_id_ = graph_id;
}

void BfsWorkspace::ensure_range_wq(ThreadTeam& team) {
    // MS-BFS may share this workspace on a team of another size.
    if (range_wq && range_wq->claimants() == team.size()) return;
    range_wq =
        std::make_unique<WorkQueue>(team.size(), detail::team_socket_map(team));
    range_planned = false;
}

void BfsWorkspace::allocate(vertex_t n, BfsEngine engine,
                            const BfsOptions& options, ThreadTeam& team) {
    const int threads = team.size();
    const int sockets = team.sockets_used();
    const std::size_t batch = options.batch_size < 1 ? 1 : options.batch_size;

    // Poison until every allocation lands: a fault-injected bad_alloc
    // mid-way must force a full clean retry on the next prepare.
    prepared_n_ = kInvalidVertex;

    rank_in_socket.assign(static_cast<std::size_t>(threads), 0);
    socket_threads.assign(static_cast<std::size_t>(sockets), 0);
    for (int t = 0; t < threads; ++t) {
        const int s = team.socket_of(t);
        rank_in_socket[static_cast<std::size_t>(t)] = socket_threads[s]++;
    }

    // Release every engine-specific arena, then build the selected
    // engine's. A runner only dispatches one engine, so the workspace
    // only ever pays for one.
    visited = AtomicBitmap();
    claim = AlignedBuffer<std::atomic<vertex_t>>();
    queues[0] = FrontierQueue();
    queues[1] = FrontierQueue();
    socket_queues[0].clear();
    socket_queues[1].clear();
    channels.clear();
    wq.reset();
    range_wq.reset();
    range_planned = false;
    socket_wqs.clear();
    scratch.clear();
    compactor.clear();

    switch (engine) {
        case BfsEngine::kNaive:
            claim = AlignedBuffer<std::atomic<vertex_t>>(n);
            queues[0] = FrontierQueue(n);
            queues[1] = FrontierQueue(n);
            wq = std::make_unique<WorkQueue>(threads,
                                             detail::team_socket_map(team));
            break;
        case BfsEngine::kMultiSocket: {
            const SocketPartition partition(n, sockets);
            visited = AtomicBitmap(n, /*zeroed=*/false);
            for (int s = 0; s < sockets; ++s) {
                socket_queues[0].emplace_back(partition.size(s));
                socket_queues[1].emplace_back(partition.size(s));
                channels.push_back(
                    std::make_unique<Channel<std::uint64_t, kEmptyVisit>>(
                        options.channel_capacity));
                const int peers = socket_threads[static_cast<std::size_t>(s)];
                socket_wqs.push_back(std::make_unique<WorkQueue>(
                    peers < 1 ? 1 : peers,
                    std::vector<int>(
                        static_cast<std::size_t>(peers < 1 ? 1 : peers), 0)));
            }
            scratch.resize(static_cast<std::size_t>(threads));
            for (ThreadScratch& s : scratch) {
                s.remote.clear();
                s.remote.reserve(static_cast<std::size_t>(sockets));
                for (int k = 0; k < sockets; ++k) s.remote.emplace_back(batch);
                s.drain = AlignedBuffer<std::uint64_t>(batch);
            }
            break;
        }
        case BfsEngine::kBitmap:  // the hybrid step with flips off
        case BfsEngine::kHybrid:
            visited = AtomicBitmap(n, /*zeroed=*/false);
            queues[0] = FrontierQueue(n);
            queues[1] = FrontierQueue(n);
            wq = std::make_unique<WorkQueue>(threads,
                                             detail::team_socket_map(team));
            scratch.resize(static_cast<std::size_t>(threads));
            break;
        case BfsEngine::kSerial:
        case BfsEngine::kAuto:
            break;  // no parallel arena
    }

    // Compact frontier generation: one private discovery buffer per
    // worker (capped by what that worker can discover in a level — n,
    // or its socket's partition for the per-socket queues) plus the
    // published counts.
    switch (engine) {
        case BfsEngine::kNaive:
        case BfsEngine::kBitmap:
        case BfsEngine::kHybrid:
            compactor.configure(threads, static_cast<std::size_t>(n));
            break;
        case BfsEngine::kMultiSocket: {
            const SocketPartition partition(n, sockets);
            std::vector<std::size_t> caps(static_cast<std::size_t>(threads));
            std::vector<int> groups(static_cast<std::size_t>(threads));
            for (int t = 0; t < threads; ++t) {
                const int s = team.socket_of(t);
                caps[static_cast<std::size_t>(t)] = partition.size(s);
                groups[static_cast<std::size_t>(t)] = s;
            }
            compactor.configure(threads, caps, std::move(groups));
            break;
        }
        default:
            break;
    }

    first_touch(engine, team);

    prepared_n_ = n;
    prepared_engine_ = engine;
    prepared_threads_ = threads;
}

void BfsWorkspace::first_touch(BfsEngine engine, ThreadTeam& team) {
    const vertex_t vertices = [&] {
        switch (engine) {
            case BfsEngine::kNaive:
                return static_cast<vertex_t>(claim.size());
            case BfsEngine::kBitmap:
            case BfsEngine::kMultiSocket:
            case BfsEngine::kHybrid:
                return static_cast<vertex_t>(visited.size_bits());
            default:
                return vertex_t{0};
        }
    }();
    if (vertices == 0) return;

    const int sockets = team.sockets_used();
    const SocketPartition partition(vertices, sockets);

    // Each socket's pinned workers fault in that socket's slice of every
    // vertex-indexed array — the paper's placement rule, applied once at
    // allocation instead of every traversal.
    team.run([&](int tid) {
        // Each worker faults in its own compact discovery buffer: the
        // pages land on the node of the thread that will fill them.
        if (tid < compactor.claimants()) compactor.first_touch(tid);

        const int my = team.socket_of(tid);
        const auto [lo, hi] = partition.range(my);
        const int peers = socket_threads[static_cast<std::size_t>(my)];
        const auto [b, e] = detail::split_range(
            hi - lo, peers, rank_in_socket[static_cast<std::size_t>(tid)]);
        const std::size_t vlo = lo + b;
        const std::size_t vhi = lo + e;
        if (vlo >= vhi) return;
        const auto [wlo, whi] = word_range(vlo, vhi);

        switch (engine) {
            case BfsEngine::kNaive:
                fill_unclaimed(claim, vlo, vhi);
                for (FrontierQueue& q : queues)
                    std::memset(q.slots_mut() + vlo, 0,
                                (vhi - vlo) * sizeof(vertex_t));
                break;
            case BfsEngine::kMultiSocket:
                visited.clear_words(wlo, whi);
                // The socket's queues are indexed by socket-local
                // position; this worker's share is [b, e).
                for (auto* phase : {&socket_queues[0], &socket_queues[1]}) {
                    FrontierQueue& q = (*phase)[static_cast<std::size_t>(my)];
                    std::memset(q.slots_mut() + b, 0,
                                (e - b) * sizeof(vertex_t));
                }
                break;
            case BfsEngine::kBitmap:
            case BfsEngine::kHybrid:
                visited.clear_words(wlo, whi);
                for (FrontierQueue& q : queues)
                    std::memset(q.slots_mut() + vlo, 0,
                                (vhi - vlo) * sizeof(vertex_t));
                break;
            default:
                break;
        }
    });
}

void BfsWorkspace::reset_for_query(BfsEngine engine) {
    // Zero the claim state the query will write, on the calling thread:
    // a run stopped mid-level leaves bits behind, and the pages already
    // sit where first_touch placed them.
    switch (engine) {
        case BfsEngine::kNaive:
            fill_unclaimed(claim, 0, claim.size());
            queues[0].reset();
            queues[1].reset();
            break;
        case BfsEngine::kMultiSocket: {
            visited.clear();
            for (FrontierQueue& q : socket_queues[0]) q.reset();
            for (FrontierQueue& q : socket_queues[1]) q.reset();
            // An aborted run (a deadline mid-level, fault injection) can
            // leave undrained tuples behind; drop them so they cannot
            // leak into the next query as phantom visits, and rewind the
            // counters so diagnostics report this query's traffic only.
            for (auto& ch : channels) ch->reset();
            break;
        }
        case BfsEngine::kBitmap:
        case BfsEngine::kHybrid:
            visited.clear();
            queues[0].reset();
            queues[1].reset();
            break;
        default:
            break;
    }
    for (ThreadScratch& s : scratch)
        for (LocalBatch<std::uint64_t>& r : s.remote) r.clear();
    compactor.reset();
}

template <BackendGraph Graph>
void BfsWorkspace::prepare_ms(const Graph& g, ThreadTeam& team) {
    const vertex_t n = g.num_vertices();
    const int threads = team.size();
    if (n != ms_n_) {
        ms_n_ = kInvalidVertex;  // poison until all three land
        ms_seen = AlignedBuffer<std::atomic<std::uint64_t>>(n);
        ms_frontier = AlignedBuffer<std::uint64_t>(n);
        ms_next = AlignedBuffer<std::atomic<std::uint64_t>>(n);
        ms_n_ = n;
        ++stats.prepares;
    } else {
        ++stats.workspace_reuses;
    }
    // The tallies and the [0, n) plan, which only some engines keep.
    if (scratch.size() < static_cast<std::size_t>(threads))
        scratch.resize(static_cast<std::size_t>(threads));
    ensure_range_wq(team);
    note_graph(g.id());
    vertex_range_plan(g);
    // Each worker zeroes (on the first call, first-touches) the slice
    // of the lanes it swaps: a full clear is inherent to the 64-lane
    // masks.
    team.run([&](int tid) {
        const auto [lo, hi] = detail::split_range(n, threads, tid);
        for (std::size_t v = lo; v < hi; ++v) {
            ms_seen[v].store(0, std::memory_order_relaxed);
            ms_frontier[v] = 0;
            ms_next[v].store(0, std::memory_order_relaxed);
        }
    });
}

template void BfsWorkspace::prepare_ms(const CsrGraph&, ThreadTeam&);
template void BfsWorkspace::prepare_ms(const CompressedCsrGraph&, ThreadTeam&);
template void BfsWorkspace::prepare_ms(const PagedGraph&, ThreadTeam&);

}  // namespace sge
