// Ablation bench: CSR backend, a CsrGraph against its csr_compress
// encoding.
//
// The experiment behind docs/PERF_MODEL.md "Bytes vs ALU": on an
// emulated 2-socket machine, sweep plain / compressed over the bitmap
// and hybrid engines on the paper's uniform and R-MAT workloads, and
// report
//
//   * the processing rate (the paper's metric),
//   * the representation cost: memory bytes, bits per edge, and the
//     compression ratio against the plain 4 B/edge targets array,
//   * the decode counters: bytes_decoded (exact) and decode_ns (a
//     sampled estimate; see docs/OBSERVABILITY.md),
//   * a correctness gate: both backends must produce identical level
//     arrays on every cell (the bench exits non-zero otherwise).
//
// A deterministic micro-measurement section prices the codec — decode
// cost per edge and the effective decode throughput — and derives the
// modeled crossover bandwidth quoted in docs/PERF_MODEL.md: the DRAM
// bandwidth above which trading varint ALU for stream bytes wins.
//
// With SGE_BENCH_JSON set the same cells land in
// BENCH_ablation_compress.json (backend encoded 0=plain, 1=compressed);
// CI feeds that to check_bench_json.py --compare to keep the compressed
// backend from regressing against plain.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "graph/csr_compressed.hpp"
#include "report.hpp"
#include "runtime/timer.hpp"

namespace {

using namespace sge;
using namespace sge::bench;

constexpr int kThreads = 8;
constexpr int kRuns = 3;

struct Cell {
    double rate = 0.0;            // best edges/second over timed runs
    double bytes_decoded = 0.0;   // summed over levels, from the best run
    double decode_ns = 0.0;       // sampled estimate, same run
    std::vector<level_t> levels;  // for the cross-backend identity gate
};

vertex_t fixed_root(const CsrGraph& g) {
    // Fixed root: the identity gate compares level arrays across
    // backends, so every cell must traverse from the same source.
    vertex_t root = 0;
    while (root + 1 < g.num_vertices() && g.degree(root) == 0) ++root;
    return root;
}

template <class Graph>
Cell measure(const Graph& g, vertex_t root, BfsEngine engine,
             const Topology& topo) {
    BfsOptions options;
    options.engine = engine;
    options.threads = kThreads;
    options.topology = topo;
    options.collect_stats = obs::enabled();
    BfsRunner runner(options);

    (void)runner.run(g, root);  // warmup: page in the arrays
    Cell cell;
    for (int i = 0; i < kRuns; ++i) {
        const BfsResult r = runner.run(g, root);
        if (r.edges_per_second() > cell.rate) {
            cell.rate = r.edges_per_second();
            double bytes = 0.0;
            double ns = 0.0;
            for (const BfsLevelStats& s : r.level_stats) {
                bytes += static_cast<double>(s.bytes_decoded);
                ns += static_cast<double>(s.decode_ns);
            }
            cell.bytes_decoded = bytes;
            cell.decode_ns = ns;
        }
        if (i == 0) cell.levels = r.level;
    }
    return cell;
}

bool sweep(const char* workload, const CsrGraph& g,
           const CompressedCsrGraph& zg, const Topology& topo,
           BenchReport& report) {
    const double plain_bpe =
        8.0 * static_cast<double>(g.memory_bytes()) /
        static_cast<double>(g.num_edges());
    std::printf("\nworkload: %s (%u vertices, %llu arcs; %.1f -> %.1f "
                "bits/edge, %.2fx)\n",
                workload, g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()), plain_bpe,
                zg.bits_per_edge(),
                static_cast<double>(g.memory_bytes()) /
                    static_cast<double>(zg.memory_bytes()));

    const std::pair<BfsEngine, const char*> engines[] = {
        {BfsEngine::kBitmap, "bitmap"},
        {BfsEngine::kHybrid, "hybrid"},
    };
    const vertex_t root = fixed_root(g);

    bool ok = true;
    for (const auto& [engine, engine_name] : engines) {
        Table table({"backend", "rate", "vs plain", "bits/edge",
                     "decoded MB", "decode ms"});
        const Cell plain = measure(g, root, engine, topo);
        const Cell comp = measure(zg, root, engine, topo);
        if (comp.levels != plain.levels) {
            // The backend must be invisible in the output: identical
            // level arrays (parents may differ — any BFS tree wins
            // races differently — but distances never do).
            std::fprintf(stderr,
                         "FAIL: %s/%s level arrays differ between plain "
                         "and compressed backends\n",
                         engine_name, workload);
            ok = false;
        }
        table.add_row({"plain", fmt("%.1f ME/s", plain.rate / 1e6), "-",
                       fmt("%.1f", plain_bpe), "-", "-"});
        table.add_row(
            {"compressed", fmt("%.1f ME/s", comp.rate / 1e6),
             fmt("%+.0f%%", 100.0 * (comp.rate / plain.rate - 1.0)),
             fmt("%.1f", zg.bits_per_edge()),
             fmt("%.1f", comp.bytes_decoded / 1e6),
             fmt("%.2f", comp.decode_ns / 1e6)});

        report.add(std::string(engine_name) + "_" + workload,
                   {{"threads", kThreads}, {"backend", 0}},
                   {{"edges_per_second", plain.rate},
                    {"bits_per_edge", plain_bpe},
                    {"bytes_decoded", plain.bytes_decoded},
                    {"decode_ns", plain.decode_ns}});
        report.add(std::string(engine_name) + "_" + workload,
                   {{"threads", kThreads}, {"backend", 1}},
                   {{"edges_per_second", comp.rate},
                    {"bits_per_edge", zg.bits_per_edge()},
                    {"bytes_decoded", comp.bytes_decoded},
                    {"decode_ns", comp.decode_ns}});
        std::printf("engine: %s\n", engine_name);
        table.print();
    }
    return ok;
}

// ---------------------------------------------------------------------
// Codec costs and the modeled crossover (docs/PERF_MODEL.md).
//
//   T_plain(e)      ~= bytes_plain / B        stream 4 B per edge
//   T_compressed(e) ~= bytes_comp / B + c_dec stream fewer bytes + decode
//
// Crossover: B* = (bytes_plain - bytes_comp) / c_dec. Above B* the
// adjacency stream outruns the varint ALU, and decoding fewer bytes is
// a net win; below it the decoder is the bottleneck. Measured here so
// the numbers in the docs regenerate with the bench.
// ---------------------------------------------------------------------

void cost_model(const CsrGraph& g, const CompressedCsrGraph& zg,
                BenchReport& report) {
    // c_dec: single-thread full-graph decode, neighbours consumed into a
    // checksum so the loop cannot be elided.
    const vertex_t n = zg.num_vertices();
    std::uint64_t checksum = 0;
    std::size_t bytes = 0;
    WallTimer timer;
    for (vertex_t v = 0; v < n; ++v)
        bytes += zg.neighbors_for_each(v, [&](vertex_t w) { checksum += w; });
    const double seconds = timer.seconds() + (checksum == 1 ? 1e-12 : 0.0);
    const double edges = static_cast<double>(zg.num_edges());
    const double c_dec_ns = seconds * 1e9 / edges;
    const double decode_gbps =
        static_cast<double>(bytes) / seconds / 1e9;

    const double blob_bytes_per_edge = static_cast<double>(bytes) / edges;
    const double plain_bytes_per_edge = static_cast<double>(sizeof(vertex_t));
    const double saved = plain_bytes_per_edge - blob_bytes_per_edge;
    // Crossover bandwidth in GB/s; 0 encodes "never wins" (the encoding
    // saved nothing — schema forbids negative metrics).
    const double crossover_gbps =
        saved > 0.0 ? saved / c_dec_ns : 0.0;

    std::printf("\ncodec costs (single thread, R-MAT workload):\n");
    Table table({"quantity", "value"});
    table.add_row({"decode cost per edge (c_dec)", fmt("%.2f ns", c_dec_ns)});
    table.add_row({"decode throughput", fmt("%.2f GB/s of blob", decode_gbps)});
    table.add_row({"adjacency bytes/edge, plain", fmt("%.1f", plain_bytes_per_edge)});
    table.add_row({"adjacency bytes/edge, compressed", fmt("%.2f", blob_bytes_per_edge)});
    table.add_row({"crossover bandwidth B*",
                   crossover_gbps > 0.0
                       ? fmt("%.1f GB/s", crossover_gbps)
                       : "none (no bytes saved)"});
    table.print();
    std::printf("above B* the varint decode is cheaper than streaming the "
                "extra plain bytes\n");

    report.add("cost_model", {{"threads", 1}},
               {{"decode_ns_per_edge", c_dec_ns},
                {"decode_gbps", decode_gbps},
                {"blob_bytes_per_edge", blob_bytes_per_edge},
                {"plain_bytes_per_edge", plain_bytes_per_edge},
                {"crossover_gbps", crossover_gbps}});
    (void)g;
}

}  // namespace

int main() {
    banner("Ablation: CSR backend (plain / compressed)",
           "delta+varint adjacency, docs/PERF_MODEL.md");

    // Two emulated sockets, 8 workers: the same shape as the other
    // ablations, so rates are comparable across reports.
    const Topology topo = Topology::emulate(2, 2, 2);
    std::printf("topology: %s, %d threads, %d timed runs per cell\n",
                topo.describe().c_str(), kThreads, kRuns);
    if (!obs::enabled() || !obs::compiled_in())
        std::printf("note: decoded-bytes/decode-ms columns need an SGE_OBS "
                    "build with SGE_OBS != 0\n");

    BenchReport report("ablation_compress", "compressed-backend ablation");
    report.set_topology(topo.describe());

    const std::uint64_t n = scaled(1 << 14);
    // Uniform: incompressible-ish gaps (mean gap n/d). R-MAT at arity
    // 16: the heavy tail clusters low vertex ids, so sorted gaps are
    // short and the varint blob shrinks hardest — label-shuffled here,
    // matching the other benches' workload.
    const CsrGraph uniform = uniform_graph(n, 8 * n);
    const CsrGraph rmat = rmat_graph(n, 16 * n);
    const CompressedCsrGraph zuniform = csr_compress(uniform);
    const CompressedCsrGraph zrmat = csr_compress(rmat);
    report.set_workload("uniform+rmat", n);

    // Natural-order R-MAT (no label shuffle): the generator's id
    // locality survives, the best case for delta coding — the <= 16
    // bits/edge configuration quoted in docs/ALGORITHMS.md.
    RmatParams natural;
    natural.scale = 0;
    while ((1ULL << natural.scale) < n) ++natural.scale;
    natural.num_edges = 16 * n;
    natural.seed = 1;
    const CsrGraph rmat_nat = csr_from_edges(generate_rmat(natural));
    const CompressedCsrGraph zrmat_nat = csr_compress(rmat_nat);

    std::printf("\ncompression (plain counts offsets+targets, compressed "
                "counts offsets+degrees+blob):\n");
    Table sizes({"workload", "plain", "compressed", "ratio", "bits/edge"});
    const std::pair<const char*, std::pair<const CsrGraph*,
                                           const CompressedCsrGraph*>>
        rows[] = {{"uniform", {&uniform, &zuniform}},
                  {"rmat (shuffled)", {&rmat, &zrmat}},
                  {"rmat (natural)", {&rmat_nat, &zrmat_nat}}};
    for (const auto& [name, pair] : rows) {
        const auto& [pg, zg] = pair;
        sizes.add_row({name, fmt_bytes(pg->memory_bytes()),
                       fmt_bytes(zg->memory_bytes()),
                       fmt("%.2fx", static_cast<double>(pg->memory_bytes()) /
                                        static_cast<double>(zg->memory_bytes())),
                       fmt("%.1f", zg->bits_per_edge())});
        report.add(std::string("compression_") +
                       (zg == &zrmat_nat ? "rmat_natural"
                        : zg == &zrmat   ? "rmat"
                                         : "uniform"),
                   {{"backend", 1}},
                   {{"memory_bytes",
                     static_cast<double>(zg->memory_bytes())},
                    {"bits_per_edge", zg->bits_per_edge()}});
    }
    sizes.print();

    bool ok = sweep("uniform", uniform, zuniform, topo, report);
    ok = sweep("rmat", rmat, zrmat, topo, report) && ok;
    cost_model(rmat, zrmat, report);

    report.write();
    return ok ? 0 : 1;
}
