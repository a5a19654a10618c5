// graph_explorer — a miniature of the paper's experimental harness as a
// CLI. Generate (or load) a graph, pick an engine / thread count /
// topology, run timed BFS traversals from random roots, and report the
// processing rate in million edges per second — the paper's metric.
//
// Usage examples:
//   graph_explorer --gen rmat --scale 18 --edges 2097152 --threads 16
//                  --topology ex --engine multisocket --runs 4
//   graph_explorer --gen uniform --vertices 1000000 --degree 8
//   graph_explorer --load mygraph.csr --engine bitmap --threads 4
//   graph_explorer --gen grid --width 1024 --height 1024 --save grid.csr

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/grid.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/small_world.hpp"
#include "gen/ssca2.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "graph/io.hpp"
#include "graph/paged_graph.hpp"
#include "graph/reorder.hpp"
#include "runtime/prng.hpp"
#include "runtime/timer.hpp"
#include "service/graph_service.hpp"

namespace {

struct Cli {
    std::string gen = "rmat";
    std::string load;
    std::string save;
    std::string engine = "auto";
    std::string topology = "detect";
    std::string reorder = "none";
    double alpha = 0.0;  // 0: keep BfsOptions default
    double beta = 0.0;
    std::uint32_t scale = 16;
    std::uint64_t edges = 0;  // 0: 8x vertices
    std::uint64_t vertices = 0;
    std::uint32_t degree = 8;
    std::uint32_t width = 512;
    std::uint32_t height = 512;
    int threads = 0;
    int runs = 3;
    std::uint64_t seed = 1;
    bool compress = false;           // delta+varint adjacency backend
    bool paged = false;              // semi-external mmap backend (SGEPGR01)
    std::string save_compressed;     // write the encoded graph (SGEZSR01)
    bool validate = false;
    bool stats = false;       // per-level counter table after the last run
    std::string trace;        // Chrome trace JSON path (implies stats)

    // --serve: query-service mode (service/graph_service.hpp) instead of
    // the timed-runs loop. N requests stream through a GraphService.
    int serve = 0;                  // request count; 0 = mode off
    int serve_workers = 1;          // dispatcher threads
    std::size_t serve_queue = 256;  // admission queue depth (backpressure)
    double serve_window_ms = 0.5;   // wave-coalescing flush window
    double serve_deadline_ms = 0;   // per-request deadline; 0 = none
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--gen rmat|uniform|grid|ssca2|smallworld] [--load FILE]\n"
        "          [--save FILE]\n"
        "          [--engine auto|serial|naive|bitmap|multisocket|hybrid]\n"
        "          [--topology detect|ep|ex|SxCxT] [--threads N] [--runs N]\n"
        "          [--reorder none|shuffle|degree|bfs]\n"
        "          [--alpha X] [--beta X]\n"
        "          [--scale N] [--edges N] [--vertices N] [--degree N]\n"
        "          [--width N] [--height N] [--seed N] [--validate]\n"
        "          [--compress] [--save-compressed FILE] [--paged]\n"
        "          [--stats] [--trace FILE.json]\n"
        "          [--serve N] [--serve-workers N] [--serve-queue N]\n"
        "          [--serve-window MS] [--serve-deadline MS]\n"
        "\n"
        "engine knobs (BfsOptions; see docs/PERF_MODEL.md for tuning):\n"
        "  --alpha, --beta   hybrid direction-switch thresholds\n"
        "                    (defaults 14, 24; Beamer et al.)\n"
        "  --compress        run on the delta+varint compressed CSR\n"
        "                    backend (decode-on-scan; trades varint ALU\n"
        "                    for DRAM bytes — wins when bandwidth-bound)\n"
        "  --paged           run on the semi-external paged backend: the\n"
        "                    adjacency payload is spilled to striped\n"
        "                    files in the system temp dir ($TMPDIR),\n"
        "                    mmap'd back, and prefetched one frontier\n"
        "                    ahead — for graphs whose payload exceeds\n"
        "                    RAM. Combine with --compress to page the\n"
        "                    varint blob instead of plain targets\n",
        argv0);
    std::exit(2);
}

Cli parse(int argc, char** argv) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--gen") cli.gen = next();
        else if (arg == "--load") cli.load = next();
        else if (arg == "--save") cli.save = next();
        else if (arg == "--engine") cli.engine = next();
        else if (arg == "--topology") cli.topology = next();
        else if (arg == "--reorder") cli.reorder = next();
        else if (arg == "--alpha") cli.alpha = std::atof(next());
        else if (arg == "--beta") cli.beta = std::atof(next());
        else if (arg == "--scale") cli.scale = std::strtoul(next(), nullptr, 10);
        else if (arg == "--edges") cli.edges = std::strtoull(next(), nullptr, 10);
        else if (arg == "--vertices") cli.vertices = std::strtoull(next(), nullptr, 10);
        else if (arg == "--degree") cli.degree = std::strtoul(next(), nullptr, 10);
        else if (arg == "--width") cli.width = std::strtoul(next(), nullptr, 10);
        else if (arg == "--height") cli.height = std::strtoul(next(), nullptr, 10);
        else if (arg == "--threads") cli.threads = std::atoi(next());
        else if (arg == "--runs") cli.runs = std::atoi(next());
        else if (arg == "--seed") cli.seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--compress") cli.compress = true;
        else if (arg == "--paged") cli.paged = true;
        else if (arg == "--save-compressed") cli.save_compressed = next();
        else if (arg == "--validate") cli.validate = true;
        else if (arg == "--stats") cli.stats = true;
        else if (arg == "--trace") cli.trace = next();
        else if (arg == "--serve") cli.serve = std::atoi(next());
        else if (arg == "--serve-workers") cli.serve_workers = std::atoi(next());
        else if (arg == "--serve-queue")
            cli.serve_queue = std::strtoull(next(), nullptr, 10);
        else if (arg == "--serve-window")
            cli.serve_window_ms = std::atof(next());
        else if (arg == "--serve-deadline")
            cli.serve_deadline_ms = std::atof(next());
        else usage(argv[0]);
    }
    if (cli.serve > 0 && (cli.compress || cli.paged)) {
        std::fprintf(stderr,
                     "--serve answers on the plain CSR: it takes neither "
                     "--compress nor --paged\n");
        usage(argv[0]);
    }
    return cli;
}

sge::Topology parse_topology(const std::string& spec) {
    using sge::Topology;
    if (spec == "detect") return Topology::detect();
    if (spec == "ep") return Topology::nehalem_ep();
    if (spec == "ex") return Topology::nehalem_ex();
    int s = 0;
    int c = 0;
    int t = 0;
    if (std::sscanf(spec.c_str(), "%dx%dx%d", &s, &c, &t) == 3)
        return Topology::emulate(s, c, t);
    std::fprintf(stderr, "bad --topology '%s'\n", spec.c_str());
    std::exit(2);
}

sge::BfsEngine parse_engine(const std::string& name) {
    using sge::BfsEngine;
    if (name == "auto") return BfsEngine::kAuto;
    if (name == "serial") return BfsEngine::kSerial;
    if (name == "naive") return BfsEngine::kNaive;
    if (name == "bitmap") return BfsEngine::kBitmap;
    if (name == "multisocket") return BfsEngine::kMultiSocket;
    if (name == "hybrid") return BfsEngine::kHybrid;
    std::fprintf(stderr, "bad --engine '%s'\n", name.c_str());
    std::exit(2);
}

sge::CsrGraph make_graph(const Cli& cli) {
    using namespace sge;
    if (!cli.load.empty()) return read_csr(cli.load);

    EdgeList edges;
    if (cli.gen == "rmat") {
        RmatParams params;
        params.scale = cli.scale;
        params.num_edges = cli.edges ? cli.edges : (8ULL << cli.scale);
        params.seed = cli.seed;
        edges = generate_rmat(params);
        permute_vertices(edges, cli.seed + 1);
    } else if (cli.gen == "uniform") {
        UniformParams params;
        params.num_vertices = cli.vertices
                                  ? static_cast<vertex_t>(cli.vertices)
                                  : (1u << cli.scale);
        params.degree = cli.degree;
        params.seed = cli.seed;
        edges = generate_uniform(params);
    } else if (cli.gen == "grid") {
        GridParams params;
        params.width = cli.width;
        params.height = cli.height;
        edges = generate_grid(params);
    } else if (cli.gen == "ssca2") {
        Ssca2Params params;
        params.num_vertices = cli.vertices
                                  ? static_cast<vertex_t>(cli.vertices)
                                  : (1u << cli.scale);
        params.seed = cli.seed;
        edges = generate_ssca2(params);
    } else if (cli.gen == "smallworld") {
        SmallWorldParams params;
        params.num_vertices = cli.vertices
                                  ? static_cast<vertex_t>(cli.vertices)
                                  : (1u << cli.scale);
        params.mean_degree = cli.degree;
        params.seed = cli.seed;
        edges = generate_small_world(params);
    } else {
        std::fprintf(stderr, "bad --gen '%s'\n", cli.gen.c_str());
        std::exit(2);
    }
    return csr_from_edges(edges);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sge;
    const Cli cli = parse(argc, argv);

    CsrGraph graph = make_graph(cli);
    if (cli.reorder != "none") {
        std::vector<vertex_t> perm;
        if (cli.reorder == "degree") {
            perm = degree_descending_order(graph);
        } else if (cli.reorder == "bfs") {
            vertex_t root = 0;
            while (root + 1 < graph.num_vertices() && graph.degree(root) == 0)
                ++root;
            perm = bfs_visit_order(graph, root);
        } else if (cli.reorder == "shuffle") {
            // The permutation depends only on n and the seed, so an
            // edgeless list of n vertices draws it; relabelling through
            // apply_vertex_permutation keeps the symmetry stamp.
            EdgeList ids(graph.num_vertices());
            perm = permute_vertices(ids, cli.seed + 99);
        } else {
            std::fprintf(stderr, "bad --reorder '%s'\n", cli.reorder.c_str());
            return 2;
        }
        graph = apply_vertex_permutation(graph, perm);
        std::printf("relabelled vertices: %s order\n", cli.reorder.c_str());
    }
    if (!cli.save.empty()) {
        write_csr(graph, cli.save);
        std::printf("saved to %s\n", cli.save.c_str());
    }

    const DegreeStats degrees = compute_degree_stats(graph);
    std::printf("graph: %u vertices, %llu arcs; %s\n", graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_edges()),
                degrees.describe().c_str());

    // Encode once up front when the compressed backend is requested; the
    // same instance serves the stats line, an optional save, and every
    // timed run.
    CompressedCsrGraph zgraph;
    if (cli.compress || !cli.save_compressed.empty()) {
        zgraph = csr_compress(graph);
        const DegreeStats zstats = compute_degree_stats(zgraph);
        std::printf(
            "compressed: %zu B (plain %zu B, ratio %.2fx); %.2f bits/edge\n",
            zgraph.memory_bytes(), graph.memory_bytes(),
            zgraph.memory_bytes() > 0
                ? static_cast<double>(graph.memory_bytes()) /
                      static_cast<double>(zgraph.memory_bytes())
                : 0.0,
            zstats.bits_per_edge);
        if (!cli.save_compressed.empty()) {
            write_compressed_csr(zgraph, cli.save_compressed);
            std::printf("saved compressed to %s\n", cli.save_compressed.c_str());
        }
    }

    // Spill + map the payload when the paged backend is requested; the
    // same graph serves every timed run and the io counters after them.
    PagedGraph pgraph;
    if (cli.paged) {
        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("graph_explorer_paged_" +
              std::to_string(static_cast<long>(::getpid()))))
                .string();
        PagedWriteOptions wopt;
        wopt.payload = cli.compress ? PagedPayload::kVarintBlob
                                    : PagedPayload::kPlainTargets;
        PagedOpenOptions oopt;
        oopt.owns_files = true;
        oopt.validate_payload = false;  // just written from this process
        // --compress spills the graph encoded above instead of encoding
        // it again.
        pgraph = cli.compress ? make_paged(zgraph, path, wopt, oopt)
                              : make_paged(graph, path, wopt, oopt);
        std::printf("paged: %s payload, %zu B in %zu KB stripes at %s\n",
                    to_string(wopt.payload).c_str(), pgraph.payload_bytes(),
                    wopt.stripe_bytes >> 10, path.c_str());
    }

    BfsOptions options;
    options.engine = parse_engine(cli.engine);
    options.topology = parse_topology(cli.topology);
    options.threads = cli.threads;
    if (cli.alpha > 0) options.hybrid_alpha = cli.alpha;
    if (cli.beta > 0) options.hybrid_beta = cli.beta;
    const bool instrument = cli.stats || !cli.trace.empty();
    options.collect_stats = instrument;

    if (cli.serve > 0) {
        // Query-service mode: N single-source queries stream through a
        // GraphService — bounded admission, per-request deadlines, wave
        // coalescing, graceful degradation (docs/ROBUSTNESS.md).
        service::ServiceOptions sopt;
        sopt.bfs = options;
        sopt.workers = cli.serve_workers;
        sopt.queue_capacity = cli.serve_queue;
        sopt.batch_window_seconds = cli.serve_window_ms / 1e3;
        sopt.default_deadline_seconds = cli.serve_deadline_ms / 1e3;
        service::GraphService svc(graph, sopt);
        std::printf("service: %d workers, queue %zu, window %.3f ms, "
                    "deadline %s\n",
                    sopt.workers, sopt.queue_capacity, cli.serve_window_ms,
                    cli.serve_deadline_ms > 0
                        ? (std::to_string(cli.serve_deadline_ms) + " ms").c_str()
                        : "none");

        Xoshiro256 roots_rng(cli.seed + 2000);
        std::vector<std::future<service::QueryResult>> futures;
        futures.reserve(static_cast<std::size_t>(cli.serve));
        WallTimer timer;
        for (int i = 0; i < cli.serve; ++i) {
            const auto root = static_cast<vertex_t>(
                roots_rng.next_below(graph.num_vertices()));
            futures.push_back(svc.submit(root).result);
        }
        double max_latency_ms = 0.0;
        for (auto& f : futures) {
            const service::QueryResult r = f.get();
            max_latency_ms = std::max(max_latency_ms,
                                      r.latency_seconds() * 1e3);
        }
        const double seconds = timer.seconds();
        svc.stop();

        const auto& c = svc.counters();
        std::printf("  %d requests in %.3f s (%.0f queries/s), "
                    "max latency %.3f ms\n",
                    cli.serve, seconds,
                    seconds > 0 ? cli.serve / seconds : 0.0, max_latency_ms);
        std::printf("  outcomes: %llu completed (%llu via waves), "
                    "%llu degraded, %llu cancelled, %llu shed, %llu failed\n",
                    static_cast<unsigned long long>(c.completed.load()),
                    static_cast<unsigned long long>(c.batched.load()),
                    static_cast<unsigned long long>(c.degraded.load()),
                    static_cast<unsigned long long>(c.cancelled.load()),
                    static_cast<unsigned long long>(c.shed.load()),
                    static_cast<unsigned long long>(c.failed.load()));
        std::printf("  waves: %llu (%llu roots coalesced), healthy workers "
                    "%d/%d\n",
                    static_cast<unsigned long long>(c.waves.load()),
                    static_cast<unsigned long long>(c.wave_roots.load()),
                    svc.healthy_workers(), sopt.workers);
        return c.resolved() == c.submitted.load() ? 0 : 1;
    }

    BfsRunner runner(options);
    // --stats names the symmetry stamp next to the engine: hybrid (and
    // so kAuto on one socket) goes bottom-up only on a stamped graph.
    std::printf("engine: %s%s, %d threads on %s, %s backend\n",
                to_string(runner.resolved_engine()).c_str(),
                !cli.stats            ? ""
                : graph.symmetric() ? " (graph stamped symmetric)"
                                      : " (graph unstamped: no bottom-up levels)",
                runner.threads(),
                runner.topology().describe().c_str(),
                cli.paged ? (cli.compress ? "paged_compressed" : "paged")
                          : (cli.compress ? "compressed" : "plain"));

    Xoshiro256 rng(cli.seed + 1000);
    double best = 0.0;
    // One result buffer + the runner's workspace serve every run: after
    // run 0 each traversal only zeroes its bitmaps, no reallocation (the
    // query-throughput mode; docs/PERF_MODEL.md).
    BfsResult result;
    BfsResult last;  // instrumented runs keep the final traversal
    for (int run = 0; run < cli.runs; ++run) {
        vertex_t root;
        do {
            root = static_cast<vertex_t>(rng.next_below(graph.num_vertices()));
        } while (graph.degree(root) == 0);

        if (cli.paged)
            runner.run_into(result, pgraph, root);
        else if (cli.compress)
            runner.run_into(result, zgraph, root);
        else
            runner.run_into(result, graph, root);
        const double meps = result.edges_per_second() / 1e6;
        best = std::max(best, meps);
        std::printf(
            "  run %d: root %u -> %llu vertices, %u levels, %.3f s, %.1f ME/s\n",
            run, root, static_cast<unsigned long long>(result.vertices_visited),
            result.num_levels, result.seconds, meps);

        if (cli.validate) {
            const ValidationReport report = validate_bfs_tree(graph, root, result);
            if (!report.ok) {
                std::printf("  VALIDATION FAILED: %s\n", report.error.c_str());
                return 1;
            }
        }
        // Stealing the buffers mid-stream would force run_into to
        // reallocate; only the final traversal is kept.
        if (instrument && run + 1 == cli.runs) last = std::move(result);
    }
    std::printf("best: %.1f million edges/second\n", best);

    if (cli.paged) {
        const PagedIoStats& io = pgraph.io_stats();
        std::printf("paged io: %llu stripe reads, %llu pages prefetch-issued "
                    "(%llu already resident), %llu B mapped\n",
                    static_cast<unsigned long long>(io.stripe_reads.load()),
                    static_cast<unsigned long long>(io.prefetch_issued.load()),
                    static_cast<unsigned long long>(io.prefetch_hits.load()),
                    static_cast<unsigned long long>(io.bytes_mapped.load()));
    }

    if (instrument && cli.stats) {
        // One column per BfsLevelStats value whose counter is nonzero in
        // the run, headed by its export key and unit.
        std::printf("\nper-level counters (last run; all-zero counters "
                    "omitted):\n");
        const auto shown = nonzero_level_counters(last.level_stats);
        const auto width = [](const LevelCounterRow& row, std::size_t e) {
            return std::max<int>(
                12, static_cast<int>(level_value_key(row, e).size()));
        };
        std::string units = "     ";
        std::printf("%5s", "level");
        for (const LevelCounterRow& row : kLevelCounterRows) {
            if (!shown[static_cast<std::size_t>(row.id)]) continue;
            for (std::size_t e = 0; e < row.extent; ++e) {
                std::printf(" %*s", width(row, e),
                            level_value_key(row, e).c_str());
                units += std::string(1 + width(row, e) - row.unit.size(),
                                     ' ') + std::string(row.unit);
            }
        }
        std::printf("\n%s\n", units.c_str());
        for (std::size_t d = 0; d < last.level_stats.size(); ++d) {
            std::printf("%5zu", d);
            for (const LevelCounterRow& row : kLevelCounterRows) {
                if (!shown[static_cast<std::size_t>(row.id)]) continue;
                for (std::size_t e = 0; e < row.extent; ++e)
                    std::printf(" %*.*f", width(row, e), row.floating ? 6 : 0,
                                level_value(last.level_stats[d], row, e));
            }
            std::printf("\n");
        }
    }
    if (instrument && !cli.trace.empty()) {
        const obs::ChromeTrace trace = make_bfs_trace(last, "graph_explorer");
        if (!trace.write_file(cli.trace)) return 1;
        std::printf("trace: %s (%zu spans; open in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    cli.trace.c_str(), trace.span_count());
    }
    return 0;
}
