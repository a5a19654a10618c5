// Query-throughput mode: many BFS queries over one resident graph.
//
// The figure benches measure one traversal; real deployments (the
// paper's Section I semantic-graph services, the SSCA#2 kernel-3 loop
// of Figure 10) issue *streams* of queries against a graph that stays
// in memory. This bench measures queries/second over N random roots in
// two regimes:
//
//   one-shot — every query pays the full setup: spawn+pin a team,
//              allocate the visited/queue/channel arenas, first-touch
//              them, O(n)-initialise the parent array;
//   reused   — one BfsRunner serves all queries: the team persists and
//              the NUMA-placed BfsWorkspace is reset per query by
//              zeroing its one-bit-per-vertex bitmaps (O(n/64) words).
//
// Each cell runs both regimes over the same roots in paired rounds that
// alternate which regime goes first, and reports each regime's median
// round. The gap between the two rows is the amortization the workspace
// buys; see docs/PERF_MODEL.md "Query throughput & amortization". CI
// guards reused >= one-shot on the small cells via check_bench_json.py.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/bfs.hpp"
#include "report.hpp"
#include "runtime/prng.hpp"
#include "runtime/timer.hpp"

namespace {

using namespace sge;
using namespace sge::bench;

constexpr int kQueries = 64;
/// Paired rounds per cell: the regimes alternate which runs first, so
/// host drift over a cell lands on both alike.
constexpr int kRounds = 5;

std::vector<vertex_t> pick_roots(const CsrGraph& g, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<vertex_t> roots;
    roots.reserve(kQueries);
    while (roots.size() < kQueries) {
        const auto root = static_cast<vertex_t>(rng.next_below(g.num_vertices()));
        if (g.degree(root) > 0) roots.push_back(root);
    }
    return roots;
}

struct CellResult {
    double seconds = 0.0;
    std::uint64_t edges = 0;
    std::uint64_t reuses = 0;  ///< workspace reuses during the round

    [[nodiscard]] double qps() const {
        return seconds > 0 ? kQueries / seconds : 0.0;
    }
    [[nodiscard]] double eps() const {
        return seconds > 0 ? static_cast<double>(edges) / seconds : 0.0;
    }
};

/// One timed round of a regime over every root; `query(root)` answers
/// one query and returns its traversed edges.
template <class Query>
CellResult time_round(const std::vector<vertex_t>& roots, const Query& query) {
    CellResult cell;
    WallTimer timer;
    for (const vertex_t root : roots) cell.edges += query(root);
    cell.seconds = timer.seconds();
    return cell;
}

/// The round with the median time.
CellResult median_round(std::vector<CellResult> rounds) {
    std::sort(rounds.begin(), rounds.end(),
              [](const CellResult& a, const CellResult& b) {
                  return a.seconds < b.seconds;
              });
    return rounds[rounds.size() / 2];
}

struct EngineConfig {
    const char* name;
    BfsEngine engine;
    Topology topology;
    int threads;
};

}  // namespace

int main() {
    banner("Query throughput: one-shot bfs() vs reused runner + workspace",
           "Section I query streams / Figure 10 throughput mode");

    BenchReport report("bench_throughput", "query throughput");
    report.set_topology("emulated 1x4 (bitmap/hybrid), 2x2 (multisocket)");
    report.set_workload("uniform+rmat", scaled(1 << 12));

    struct Workload {
        std::string name;
        CsrGraph graph;
        std::uint32_t arity;
    };
    std::vector<Workload> workloads;
    {
        const std::uint64_t small_n = scaled(1 << 12);
        const std::uint64_t medium_n = scaled(1 << 14);
        workloads.push_back(
            {"uniform-small", uniform_graph(small_n, 8 * small_n, 11), 8});
        workloads.push_back(
            {"uniform-medium", uniform_graph(medium_n, 16 * medium_n, 12), 16});
        workloads.push_back(
            {"rmat-small", rmat_graph(small_n, 8 * small_n, 13), 8});
        workloads.push_back(
            {"rmat-medium", rmat_graph(medium_n, 16 * medium_n, 14), 16});
    }

    const EngineConfig engines[] = {
        {"bitmap", BfsEngine::kBitmap, Topology::emulate(1, 4, 1), 4},
        {"multisocket", BfsEngine::kMultiSocket, Topology::emulate(2, 2, 1), 4},
        {"hybrid", BfsEngine::kHybrid, Topology::emulate(1, 4, 1), 4},
    };

    Table table({"workload", "engine", "mode", "queries/s", "Medges/s",
                 "speedup"});

    for (const Workload& w : workloads) {
        const std::vector<vertex_t> roots = pick_roots(w.graph, 1234567);
        for (const EngineConfig& e : engines) {
            BfsOptions opts;
            opts.engine = e.engine;
            opts.threads = e.threads;
            opts.topology = e.topology;

            // One-shot: a fresh runner (team + workspace) per query.
            // Reused: one runner, one result buffer, bitmap-zeroing resets.
            BfsRunner runner(opts);
            BfsResult result;
            const auto oneshot_query = [&](vertex_t root) {
                return bfs(w.graph, root, opts).edges_traversed;
            };
            const auto reused_query = [&](vertex_t root) {
                runner.run_into(result, w.graph, root);
                return result.edges_traversed;
            };
            (void)oneshot_query(roots[0]);  // warmup: page in the graph
            (void)reused_query(roots[0]);   // warmup: allocate + first-touch

            std::vector<CellResult> oneshot_rounds;
            std::vector<CellResult> reused_rounds;
            const auto reused_round = [&] {
                const std::uint64_t before =
                    runner.workspace_stats().workspace_reuses;
                CellResult cell = time_round(roots, reused_query);
                cell.reuses = runner.workspace_stats().workspace_reuses - before;
                reused_rounds.push_back(cell);
            };
            for (int round = 0; round < kRounds; ++round) {
                if (round % 2 == 0) {
                    oneshot_rounds.push_back(time_round(roots, oneshot_query));
                    reused_round();
                } else {
                    reused_round();
                    oneshot_rounds.push_back(time_round(roots, oneshot_query));
                }
            }
            const CellResult oneshot = median_round(oneshot_rounds);
            const CellResult reused = median_round(reused_rounds);

            table.add_row({w.name, e.name, "one-shot",
                           fmt("%.0f", oneshot.qps()),
                           fmt("%.1f", oneshot.eps() / 1e6), ""});
            table.add_row({w.name, e.name, "reused", fmt("%.0f", reused.qps()),
                           fmt("%.1f", reused.eps() / 1e6),
                           fmt("%.2fx", oneshot.seconds > 0
                                            ? oneshot.seconds / reused.seconds
                                            : 0.0)});

            const auto vertices =
                static_cast<std::int64_t>(w.graph.num_vertices());
            for (int reuse = 0; reuse < 2; ++reuse) {
                const CellResult& cell = reuse ? reused : oneshot;
                report.add(
                    w.name + "/" + e.name,
                    {{"vertices", vertices},
                     {"arity", static_cast<std::int64_t>(w.arity)},
                     {"threads", e.threads},
                     {"reuse", reuse}},
                    {{"queries_per_second", cell.qps()},
                     {"edges_per_second", cell.eps()},
                     {"seconds_total", cell.seconds},
                     {"workspace_reuses", static_cast<double>(cell.reuses)}});
            }
        }
    }

    table.print();
    std::printf("\n%d queries per round; each cell reports its median of %d "
                "paired rounds.\n'reused' amortizes team spawn, arena "
                "allocation,\nfirst-touch placement and O(n) init across the "
                "stream.\n",
                kQueries, kRounds);
    report.write();
    return 0;
}
