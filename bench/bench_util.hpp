#pragma once

// Shared harness for the figure/table reproduction benches.
//
// Workload sizing: every bench multiplies its base sizes by
// 2^scale_shift(). The CI defaults finish in seconds on one core;
// SGE_SCALE=k doubles sizes k times, SGE_FULL=1 approaches the paper's
// instances (needs tens of GB and a real multi-socket machine).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/env.hpp"
#include "runtime/prng.hpp"

namespace sge::bench {

inline std::uint64_t scaled(std::uint64_t base) {
    return base << scale_shift();
}

/// Builds the paper's "uniformly random" workload: n vertices, m edges
/// (mean arity m/n), symmetrized.
inline CsrGraph uniform_graph(std::uint64_t n, std::uint64_t m,
                              std::uint64_t seed = 1) {
    UniformParams params;
    params.num_vertices = static_cast<vertex_t>(n);
    params.degree = static_cast<std::uint32_t>(m / n);
    params.seed = seed;
    return csr_from_edges(generate_uniform(params));
}

/// Builds the paper's R-MAT workload at GTgraph defaults, label-shuffled.
inline CsrGraph rmat_graph(std::uint64_t n, std::uint64_t m,
                           std::uint64_t seed = 1) {
    RmatParams params;
    params.scale = 0;
    while ((1ULL << params.scale) < n) ++params.scale;
    params.num_edges = m;
    params.seed = seed;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, seed + 17);
    return csr_from_edges(edges);
}

/// The paper's engine policy for `threads` workers on `topo` (0 = all
/// of them): serial at one thread, Algorithm 2 (kBitmap) within one
/// socket, Algorithm 3 (kMultiSocket) across sockets. Figure and table
/// reproductions pin it explicitly, so they keep measuring the paper's
/// algorithms whatever kAuto resolves to (kHybrid on one socket).
inline BfsEngine paper_engine(const Topology& topo, int threads) {
    if (threads == 0) threads = topo.max_threads();
    if (threads <= 1) return BfsEngine::kSerial;
    return topo.sockets_used(threads) <= 1 ? BfsEngine::kBitmap
                                           : BfsEngine::kMultiSocket;
}

/// Runs `runs` timed BFS traversals from pseudo-random non-isolated
/// roots (after one untimed warmup) and returns the best processing rate
/// in edges/second — the paper reports peak rates per configuration.
inline double bfs_rate(const CsrGraph& g, BfsRunner& runner, int runs = 2,
                       std::uint64_t seed = 99) {
    Xoshiro256 rng(seed);
    const auto pick_root = [&] {
        vertex_t root;
        do {
            root = static_cast<vertex_t>(rng.next_below(g.num_vertices()));
        } while (g.degree(root) == 0);
        return root;
    };

    (void)runner.run(g, pick_root());  // warmup: page in the arrays
    double best = 0.0;
    for (int i = 0; i < runs; ++i) {
        const BfsResult r = runner.run(g, pick_root());
        if (r.edges_per_second() > best) best = r.edges_per_second();
    }
    return best;
}

/// Convenience: one-shot runner construction + rate measurement.
inline double bfs_rate(const CsrGraph& g, const BfsOptions& options,
                       int runs = 2, std::uint64_t seed = 99) {
    BfsRunner runner(options);
    return bfs_rate(g, runner, runs, seed);
}

/// --drop-caches-free cold-run emulation. Drops the paged graph's
/// mapped payload (MADV_DONTNEED) and the stripes' page-cache copies
/// (fdatasync + POSIX_FADV_DONTNEED), so the next traversal re-reads
/// every touched page from the filesystem — the measurable part of a
/// cold start — without needing root for /proc/sys/vm/drop_caches.
/// Quiesces the prefetcher first so an in-flight WILLNEED batch cannot
/// re-populate pages behind the eviction.
inline void evict_paged(const PagedGraph& g) {
    g.prefetch_quiesce();
    g.evict();
}

// ---------------------------------------------------------------------
// Minimal fixed-width table printer for paper-style output.
// ---------------------------------------------------------------------

class Table {
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers)) {}

    void add_row(std::vector<std::string> cells) {
        rows_.push_back(std::move(cells));
    }

    void print() const {
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            widths[c] = headers_[c].size();
        for (const auto& row : rows_)
            for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());

        print_row(headers_, widths);
        std::string rule;
        for (const std::size_t w : widths) rule += std::string(w + 2, '-');
        std::printf("%s\n", rule.c_str());
        for (const auto& row : rows_) print_row(row, widths);
    }

  private:
    static void print_row(const std::vector<std::string>& row,
                          const std::vector<std::size_t>& widths) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
        std::printf("\n");
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

inline std::string fmt_u64(std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

/// Human-readable byte count ("4 KB", "8 MB").
inline std::string fmt_bytes(std::uint64_t bytes) {
    const char* units[] = {"B", "KB", "MB", "GB"};
    int u = 0;
    double v = static_cast<double>(bytes);
    while (v >= 1024.0 && u < 3) {
        v /= 1024.0;
        ++u;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, units[u]);
    return buf;
}

inline void banner(const char* title, const char* paper_ref) {
    std::printf("\n=== %s ===\n", title);
    std::printf("(reproduces %s; sizes scaled by 2^%d — set SGE_SCALE/SGE_FULL "
                "for larger runs)\n\n",
                paper_ref, scale_shift());
}

}  // namespace sge::bench
