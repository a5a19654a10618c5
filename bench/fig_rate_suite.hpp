#pragma once

// Shared driver for Figures 6-9: the processing-rate / scalability /
// graph-size-sensitivity triptych the paper repeats for {uniformly
// random, R-MAT} x {Nehalem EP, Nehalem EX}.
//
// Panel (a): rate vs thread count, one series per edge count;
// Panel (b): the same runs as speedup over 1 thread;
// Panel (c): rate at full thread count over an (n, m) grid.
//
// Thread placement and engine selection follow the paper: one thread
// per core socket-by-socket, SMT last; single-socket configurations run
// Algorithm 2 (channels disabled), multi-socket ones Algorithm 3.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "report.hpp"

namespace sge::bench {

struct RateSuiteConfig {
    const char* figure;       // "Figure 6" ...
    const char* slug;         // "fig06_uniform_ep" — names BENCH_<slug>.json
    const char* family;       // "uniform" | "rmat"
    Topology topology = Topology::nehalem_ep();  // or nehalem_ex()
    std::vector<int> threads; // x axis
    std::uint64_t base_vertices;
    std::vector<int> arities; // edge counts = arity * n
};

using GraphFactory =
    std::function<CsrGraph(std::uint64_t n, std::uint64_t m, std::uint64_t seed)>;

inline GraphFactory family_factory(const std::string& family) {
    if (family == "rmat")
        return [](std::uint64_t n, std::uint64_t m, std::uint64_t seed) {
            return rmat_graph(n, m, seed);
        };
    return [](std::uint64_t n, std::uint64_t m, std::uint64_t seed) {
        return uniform_graph(n, m, seed);
    };
}

inline BfsOptions suite_options(const Topology& topo, int threads) {
    BfsOptions options;
    options.threads = threads;
    options.topology = topo;
    options.engine = paper_engine(topo, threads);
    return options;
}

inline void run_rate_suite(const RateSuiteConfig& cfg) {
    const GraphFactory make = family_factory(cfg.family);
    const std::uint64_t n = scaled(cfg.base_vertices);

    BenchReport report(cfg.slug, cfg.figure);
    report.set_topology(cfg.topology.describe());
    report.set_workload(cfg.family, cfg.base_vertices);

    std::printf("machine model: %s\n", cfg.topology.describe().c_str());
    std::printf("workload family: %s, %llu vertices\n\n", cfg.family,
                static_cast<unsigned long long>(n));

    // ---- panels (a) + (b): rate and speedup vs threads ----
    std::vector<std::vector<double>> rates(cfg.arities.size());
    for (std::size_t a = 0; a < cfg.arities.size(); ++a) {
        const std::uint64_t m = static_cast<std::uint64_t>(cfg.arities[a]) * n;
        const CsrGraph g = make(n, m, 1);
        for (std::size_t t = 0; t < cfg.threads.size(); ++t) {
            const int threads = cfg.threads[t];
            const double rate =
                bfs_rate(g, suite_options(cfg.topology, threads));
            rates[a].push_back(rate);
            report.add("rate_vs_threads",
                       {{"threads", threads},
                        {"arity", cfg.arities[a]},
                        {"vertices", static_cast<std::int64_t>(n)},
                        {"edges", static_cast<std::int64_t>(m)}},
                       {{"edges_per_second", rate},
                        {"speedup", rates[a][0] > 0 ? rate / rates[a][0]
                                                    : 0.0}});
        }
    }

    {
        std::printf("(a) processing rates [million edges/s]\n");
        std::vector<std::string> headers{"threads"};
        for (const int arity : cfg.arities)
            headers.push_back("m = " + fmt_u64(static_cast<std::uint64_t>(arity) * n));
        Table table(headers);
        for (std::size_t t = 0; t < cfg.threads.size(); ++t) {
            std::vector<std::string> row{fmt_u64(cfg.threads[t])};
            for (std::size_t a = 0; a < cfg.arities.size(); ++a)
                row.push_back(fmt("%.1f", rates[a][t] / 1e6));
            table.add_row(std::move(row));
        }
        table.print();
    }

    {
        std::printf("\n(b) speedup over 1 thread\n");
        std::vector<std::string> headers{"threads"};
        for (const int arity : cfg.arities)
            headers.push_back("arity " + fmt_u64(arity));
        Table table(headers);
        for (std::size_t t = 0; t < cfg.threads.size(); ++t) {
            std::vector<std::string> row{fmt_u64(cfg.threads[t])};
            for (std::size_t a = 0; a < cfg.arities.size(); ++a)
                row.push_back(fmt("%.2fx", rates[a][t] / rates[a][0]));
            table.add_row(std::move(row));
        }
        table.print();
    }

    // ---- panel (c): sensitivity to graph size at full threads ----
    {
        std::printf("\n(c) rate at %d threads vs vertex count [million edges/s]\n",
                    cfg.threads.back());
        const int max_arity = cfg.arities.back();
        std::vector<std::string> headers{"vertices"};
        for (const int arity : cfg.arities)
            headers.push_back("arity " + fmt_u64(arity));
        Table table(headers);
        for (const std::uint64_t nv : {n / 4, n / 2, n}) {
            std::vector<std::string> row{fmt_u64(nv)};
            for (const int arity : cfg.arities) {
                const CsrGraph g = make(nv, static_cast<std::uint64_t>(arity) * nv, 2);
                const double rate =
                    bfs_rate(g, suite_options(cfg.topology, cfg.threads.back()));
                report.add("rate_vs_size",
                           {{"threads", cfg.threads.back()},
                            {"arity", arity},
                            {"vertices", static_cast<std::int64_t>(nv)},
                            {"edges", static_cast<std::int64_t>(
                                          static_cast<std::uint64_t>(arity) *
                                          nv)}},
                           {{"edges_per_second", rate}});
                row.push_back(fmt("%.1f", rate / 1e6));
            }
            table.add_row(std::move(row));
        }
        table.print();
        (void)max_arity;
    }

    report.write();
}

}  // namespace sge::bench
