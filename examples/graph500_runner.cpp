// Graph500-style benchmark runner: the community-standard protocol the
// paper's metric (traversed edges per second) fed into. Generates a
// Kronecker/R-MAT graph at a given scale, runs 64 BFS iterations from
// random roots, validates every tree, and reports the harmonic-mean
// TEPS — the official aggregate.
//
//   graph500_runner [scale] [edgefactor] [threads]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "runtime/prng.hpp"
#include "runtime/stats.hpp"
#include "runtime/timer.hpp"

int main(int argc, char** argv) {
    using namespace sge;

    const std::uint32_t scale =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;
    const std::uint64_t edgefactor =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
    const int threads = argc > 3 ? std::atoi(argv[3]) : 8;
    constexpr int kSearches = 64;  // the Graph500 iteration count

    // --- kernel 0: generation + construction (timed, reported) ---
    WallTimer construction;
    RmatParams params;
    params.scale = scale;
    params.num_edges = edgefactor << scale;
    // Graph500's Kronecker parameters (A=.57, B=.19, C=.19, D=.05).
    params.a = 0.57;
    params.b = 0.19;
    params.c = 0.19;
    params.d = 0.05;
    params.seed = 2;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 3);
    const CsrGraph graph = csr_from_edges(edges);
    const double construction_seconds = construction.seconds();

    std::printf("SCALE %u, edgefactor %llu: %u vertices, %llu arcs\n", scale,
                static_cast<unsigned long long>(edgefactor),
                graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_edges()));
    std::printf("construction_time: %.3f s\n\n", construction_seconds);

    // --- kernel 1: 64 BFS iterations from random non-isolated roots ---
    BfsOptions options;
    options.threads = threads;
    options.topology = Topology::nehalem_ep();
    BfsRunner runner(options);

    Xoshiro256 rng(17);
    std::vector<double> teps;
    teps.reserve(kSearches);
    int validated = 0;
    for (int i = 0; i < kSearches; ++i) {
        vertex_t root;
        do {
            root = static_cast<vertex_t>(rng.next_below(graph.num_vertices()));
        } while (graph.degree(root) == 0);

        const BfsResult r = runner.run(graph, root);
        teps.push_back(r.edges_per_second());

        const ValidationReport report = validate_bfs_tree(graph, root, r);
        if (!report.ok) {
            std::printf("VALIDATION FAILED at search %d: %s\n", i,
                        report.error.c_str());
            return 1;
        }
        ++validated;
    }

    const SampleSummary summary = summarize(teps);
    std::printf("searches:            %d (all %d validated)\n", kSearches,
                validated);
    std::printf("min_TEPS:            %.3e\n", summary.min);
    std::printf("median_TEPS:         %.3e\n", summary.median);
    std::printf("max_TEPS:            %.3e\n", summary.max);
    std::printf("harmonic_mean_TEPS:  %.3e\n", harmonic_mean(teps));
    std::printf("stddev_TEPS:         %.3e\n", summary.stddev);
    return 0;
}
