// Table III: comparison against published parallel-BFS results.
//
// Reruns the paper's headline match-ups on (scaled-down) versions of the
// exact workloads and prints our measured ME/s next to the published
// numbers. The paper's three claims, checked here in shape:
//   1. 2.4x a 128-proc Cray XMT on uniform 64M vertices / 512M edges;
//   2. ~550 ME/s on R-MAT 200M/1B, matching a 40-proc Cray MTA-2;
//   3. 5x 256 BlueGene/L processors at average degree 50.

#include <cstdio>

#include "bench_util.hpp"

int main() {
    using namespace sge;
    using namespace sge::bench;

    banner("Table III: comparison with published BFS results", "Table III");

    struct Row {
        const char* reference;
        const char* system;
        const char* type;        // workload family
        std::uint64_t paper_n;   // the published instance
        std::uint64_t paper_m;
        double published_meps;   // their number
        int arity;               // m/n, reused for our scaled instance
        bool rmat;
    };
    // Published rows from Table III of the paper.
    const Row rows[] = {
        {"Mizell, Maschhoff [15]", "Cray XMT, 128 proc", "uniform", 64000000,
         512000000, 210, 8, false},
        {"Bader, Madduri [16]", "Cray MTA-2, 40 proc", "R-MAT", 200000000,
         1000000000, 500, 5, true},
        {"Yoo et al. [20]", "BlueGene/L, 256 proc", "uniform d=50", 1000000,
         50000000, 232, 50, false},
        {"Scarpazza et al. [14]", "Cell/BE, 1 chip", "uniform", 5000000,
         256000000, 305, 51, false},
        {"Xia, Prasanna [19]", "2x Xeon X5580", "uniform", 1000000, 16000000,
         220, 16, false},
    };

    // Our instances: same arity, vertex count scaled to the CI budget.
    const std::uint64_t our_n = scaled(1 << 15);

    Table table({"reference", "system", "workload", "published ME/s",
                 "ours ME/s (EX model)", "ratio"});
    for (const Row& row : rows) {
        const std::uint64_t m = static_cast<std::uint64_t>(row.arity) * our_n;
        const CsrGraph g = row.rmat ? rmat_graph(our_n, m, 3)
                                    : uniform_graph(our_n, m, 3);

        BfsOptions options;
        options.topology = Topology::nehalem_ex();
        options.threads = 0;  // all 64 model threads
        options.engine = paper_engine(*options.topology, options.threads);
        const double ours = bfs_rate(g, options) / 1e6;

        table.add_row({row.reference, row.system,
                       std::string(row.type) + " n=" + fmt_u64(our_n) +
                           " m=" + fmt_u64(m),
                       fmt("%.0f", row.published_meps), fmt("%.1f", ours),
                       fmt("%.2fx", ours / row.published_meps)});
    }
    table.print();

    std::printf(
        "\npaper's numbers on real hardware (4-socket EX): ~500 ME/s on the "
        "XMT workload\n(2.4x), ~550 ME/s on the MTA-2 R-MAT workload "
        "(parity), ~1160 ME/s on the\nBG/L d=50 workload (5x). Absolute "
        "ratios here reflect this container's single\nCPU; the per-workload "
        "ordering (R-MAT >= uniform, dense > sparse) is the\nreproducible "
        "shape.\n");
    return 0;
}
