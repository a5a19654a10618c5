// Ablation bench: the direction-optimizing engine — kAuto's choice on
// one socket — vs the paper's Algorithm 2 across workload families.
//
// The hybrid engine's win is algorithmic, not architectural — it
// *examines fewer edges* on low-diameter graphs — so unlike the
// thread-scaling figures it reproduces faithfully even on one CPU. The
// 2-D grid is the opposite case: ~2*side levels whose frontiers never
// carry m/beta arcs, so hybrid stays top-down and must simply hold
// Algorithm 2's rate.
//
// Each cell runs the two engines paired over the same roots: one
// untimed warmup each, then kRounds rounds of one query per engine,
// the order flipping every round, so drift of a shared host lands on
// both sides alike. Rates are per-engine medians over the rounds, and
// every round's level arrays must agree (the bench exits non-zero
// otherwise). Two threads, not one per CPU: a team on every vCPU is
// the noisiest setting on a shared host (bench/e2e/README.md "Host");
// on a 4-vCPU Xeon guest it swung the grid cell's median ratio by up to
// 45%. The grid has 4n vertices so each query spans enough levels.
//
// With SGE_BENCH_JSON set the cells land in BENCH_ablation_direction.json
// with an `engine` param (the BfsEngine value: 2=bitmap, 4=hybrid);
// check_bench_json.py --compare guards hybrid >= bitmap on every cell
// (within the tolerance, 2x on the grid).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/grid.hpp"
#include "report.hpp"
#include "runtime/prng.hpp"

namespace {

using namespace sge;
using namespace sge::bench;

constexpr int kThreads = 2;
constexpr int kRounds = 21;
constexpr BfsEngine kEngines[] = {BfsEngine::kBitmap, BfsEngine::kHybrid};

struct Side {
    std::vector<double> rates;
    double scanned = 0.0;  // summed edges_scanned over the timed rounds
    double levels = 0.0;   // summed num_levels
};

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

bool measure(const char* label, const char* slug, const CsrGraph& g,
             BenchReport& report, Table& table) {
    const auto runner_for = [](BfsEngine engine) {
        BfsOptions options;
        options.engine = engine;
        options.threads = kThreads;
        options.topology = Topology::emulate(1, kThreads, 1);
        options.collect_stats = true;  // edges_scanned per level
        return BfsRunner(options);
    };
    BfsRunner runners[] = {runner_for(kEngines[0]), runner_for(kEngines[1])};
    BfsResult results[2];
    Side sides[2];

    Xoshiro256 rng(99);
    const auto pick_root = [&] {
        vertex_t root;
        do {
            root = static_cast<vertex_t>(rng.next_below(g.num_vertices()));
        } while (g.degree(root) == 0);
        return root;
    };
    const vertex_t warm = pick_root();
    for (int e = 0; e < 2; ++e) runners[e].run_into(results[e], g, warm);

    bool ok = true;
    for (int round = 0; round < kRounds; ++round) {
        const vertex_t root = pick_root();
        for (int k = 0; k < 2; ++k) {
            const int e = (round + k) % 2;  // alternate which side goes first
            runners[e].run_into(results[e], g, root);
            sides[e].rates.push_back(results[e].edges_per_second());
            for (const BfsLevelStats& s : results[e].level_stats)
                sides[e].scanned += static_cast<double>(s.edges_scanned);
            sides[e].levels += results[e].num_levels;
        }
        if (results[0].level != results[1].level) {
            std::fprintf(stderr, "FAIL: %s root %u: hybrid levels differ from bitmap\n",
                         label, root);
            ok = false;
        }
    }

    double rate[2];
    for (int e = 0; e < 2; ++e) {
        rate[e] = median(sides[e].rates);
        report.add(std::string("direction_") + slug,
                   {{"threads", kThreads},
                    {"engine", static_cast<std::int64_t>(kEngines[e])}},
                   {{"edges_per_second", rate[e]},
                    {"edges_scanned", sides[e].scanned / kRounds},
                    {"levels", sides[e].levels / kRounds}});
    }
    table.add_row({label, fmt("%.1f ME/s", rate[0] / 1e6),
                   fmt("%.1f ME/s", rate[1] / 1e6),
                   fmt("%.2fx", rate[0] > 0 ? rate[1] / rate[0] : 0.0),
                   fmt("%.0f", sides[0].scanned / kRounds),
                   fmt("%.0f", sides[1].scanned / kRounds),
                   fmt("%.0f", sides[0].levels / kRounds)});
    return ok;
}

}  // namespace

int main() {
    banner("Ablation: direction-optimizing BFS vs the paper's Algorithm 2",
           "extension (Beamer et al. SC'12 heuristics)");

    const std::uint64_t n = scaled(1 << 16);
    GridParams grid;
    grid.width = 1;
    while (static_cast<std::uint64_t>(grid.width) * grid.width < 4 * n) grid.width *= 2;
    grid.height = grid.width;

    BenchReport report("ablation_direction", "direction-optimization ablation");
    report.set_topology(Topology::emulate(1, kThreads, 1).describe());
    report.set_workload("uniform+rmat+grid", 1 << 16);

    Table table({"workload", "bitmap rate", "hybrid rate", "speedup",
                 "edges examined (bitmap)", "edges examined (hybrid)", "levels"});
    bool ok = true;
    ok &= measure("uniform arity 8", "uniform8", uniform_graph(n, 8 * n), report, table);
    ok &= measure("uniform arity 32", "uniform32", uniform_graph(n, 32 * n), report, table);
    ok &= measure("rmat arity 16", "rmat16", rmat_graph(n, 16 * n), report, table);
    ok &= measure("2-D grid", "grid", csr_from_edges(generate_grid(grid)), report, table);
    table.print();

    std::printf(
        "\nexpected shape: on low-diameter graphs the hybrid engine examines "
        "a fraction\nof the edges and its rate (computed on the comparable "
        "sum-of-degrees\nconvention) rises accordingly; on the grid it never "
        "leaves top-down and\nholds parity with bitmap.\n");
    report.write();
    return ok ? 0 : 1;
}
