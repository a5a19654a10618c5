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
// The gap between the two rows is the amortization the workspace buys;
// see docs/PERF_MODEL.md "Query throughput & amortization". CI guards
// reused >= one-shot on the small cells via check_bench_json.py.

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

    [[nodiscard]] double qps() const {
        return seconds > 0 ? kQueries / seconds : 0.0;
    }
    [[nodiscard]] double eps() const {
        return seconds > 0 ? static_cast<double>(edges) / seconds : 0.0;
    }
};

/// One-shot regime: a fresh runner (team + workspace) per query.
CellResult run_oneshot(const CsrGraph& g, const BfsOptions& opts,
                       const std::vector<vertex_t>& roots) {
    (void)bfs(g, roots[0], opts);  // warmup: page in the graph
    CellResult cell;
    WallTimer timer;
    for (const vertex_t root : roots) {
        const BfsResult r = bfs(g, root, opts);
        cell.edges += r.edges_traversed;
    }
    cell.seconds = timer.seconds();
    return cell;
}

/// Reused regime: one runner, one result buffer, bitmap-zeroing resets.
CellResult run_reused(const CsrGraph& g, const std::vector<vertex_t>& roots,
                      BfsRunner& runner) {
    BfsResult r;
    runner.run_into(r, g, roots[0]);  // warmup: allocate + first-touch
    CellResult cell;
    WallTimer timer;
    for (const vertex_t root : roots) {
        runner.run_into(r, g, root);
        cell.edges += r.edges_traversed;
    }
    cell.seconds = timer.seconds();
    return cell;
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

            const CellResult oneshot = run_oneshot(w.graph, opts, roots);

            BfsRunner runner(opts);
            const CellResult reused = run_reused(w.graph, roots, runner);
            const BfsWorkspaceStats& ws = runner.workspace_stats();

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
                     {"workspace_reuses",
                      reuse ? static_cast<double>(ws.workspace_reuses)
                            : 0.0}});
            }
        }
    }

    table.print();
    std::printf("\n%d queries per cell; 'reused' amortizes team spawn, arena "
                "allocation,\nfirst-touch placement and O(n) init across the "
                "stream.\n",
                kQueries);
    report.write();
    return 0;
}
