#include "core/level_driver.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/timer.hpp"

namespace sge::detail {

/// Sequential reference BFS: two std::vector queues, no atomics. This is
/// the "best sequential implementation" every parallel-BFS paper must
/// beat (Section I cites Bader/Cong/Feo [3] on how rarely that happens),
/// and the oracle the validator compares reachability against.
///
/// Writes into caller-owned `result` (run_into's reuse path): assign()
/// keeps the capacity of a previous query's arrays. The serial engine
/// has no visited bitmap — parent[v] == kInvalidVertex IS the visited
/// test — so the sentinel fill stays, unlike the parallel engines.
///
/// One body for every backend (scan_adjacency); the per-level
/// ThreadCounters instance carries all of the level's tallies.
template <class Graph>
void bfs_serial(const Graph& g, vertex_t root, const BfsOptions& options,
                BfsResult& result) {
    check_root(g, root);
    const vertex_t n = g.num_vertices();

    reset_result(result, n, options.compute_levels);
    WallTimer timer;

    result.parent.assign(n, kInvalidVertex);
    if (options.compute_levels) result.level.assign(n, kInvalidLevel);

    std::vector<vertex_t> current;
    std::vector<vertex_t> next;
    current.push_back(root);
    result.parent[root] = root;
    if (options.compute_levels) result.level[root] = 0;
    result.vertices_visited = 1;

    level_t depth = 0;
    WallTimer level_timer;
    while (!current.empty()) {
        ThreadCounters counters;
        level_timer.reset();
        for (const vertex_t u : current) {
            scan_adjacency(
                g, u, counters, [](vertex_t) {},
                [&](vertex_t v) {
                    counters.add<LevelCounter::bitmap_checks>(1);
                    if (result.parent[v] == kInvalidVertex) {
                        // Plain claim (no atomics here): counted as a
                        // "win" so sum(atomic_wins) == n-1 holds for
                        // every engine.
                        counters.add<LevelCounter::atomic_wins>(1);
                        result.parent[v] = u;
                        if (options.compute_levels)
                            result.level[v] = depth + 1;
                        next.push_back(v);
                        ++result.vertices_visited;
                    } else {
                        counters.add<LevelCounter::bitmap_skips>(1);
                    }
                });
        }
        BfsLevelStats stats = counters.stats();
        stats.seconds = level_timer.seconds();
        stats.frontier_size = current.size();
        result.edges_traversed += stats.edges_scanned;
        if (options.collect_stats) result.level_stats.push_back(stats);
        ++depth;
        current.swap(next);
        next.clear();
        prefetch_next_frontier(g, current.data(), current.size());
        // Same once-per-level cadence as the parallel engines' tid-0
        // window, so fire_after_polls(k) means "cancel at level k" here
        // too. Polled after the swap so a finished traversal is never
        // reported cancelled.
        if (!current.empty() && poll_cancel(options))
            throw_cancelled("bfs_serial", depth, result.vertices_visited);
    }

    result.num_levels = depth;
    result.seconds = timer.seconds();
}

template void bfs_serial(const CsrGraph&, vertex_t, const BfsOptions&,
                         BfsResult&);
template void bfs_serial(const CompressedCsrGraph&, vertex_t,
                         const BfsOptions&, BfsResult&);
template void bfs_serial(const PagedGraph&, vertex_t, const BfsOptions&,
                         BfsResult&);

}  // namespace sge::detail
