// sge_bench — the repository's end-to-end benchmark driver.
//
//   sge_bench --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//             [--threads <k>] [--scratch <dir>]
//   sge_bench --selftest
//
// Generates the workload's inputs from the seed, runs it for --seconds,
// checks every answer, prints each metric as `name value unit`, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}. An
// untraced run's JSON holds the end-to-end metrics; a traced run (--trace)
// measures the workload once untraced and once traced, writes the Chrome
// trace, and its JSON holds the per-layer metrics. See README.md.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "checker.hpp"
#include "e2e.hpp"
#include "runtime/cache_info.hpp"

namespace {

using namespace sge::e2e;

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// Must match BENCHMARK.json's "end_to_end" list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"teps_hmean", "edges/s"},
    {"qps", "queries/s"},
    {"mem_mb", "MB"},
};

/// Must match BENCHMARK.json's "per_layer" list.
constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.spill_frac", "fraction"},
    {"graph.resident_mb", "MB"},
    {"graph.self_frac", "fraction"},
    {"paged.bits_per_edge", "bits"},
    {"paged.latency_ratio", "ratio"},
    {"paged.major_faults", "count"},
    {"paged.prefetch_issued", "count"},
    {"paged.prefetch_hit_ratio", "fraction"},
    {"paged.resident_mb", "MB"},
    {"core.first_query_s", "s"},
    {"core.levels", "count"},
    {"core.level_us", "us"},
    {"core.scan_ratio", "ratio"},
    {"core.barrier_wait_frac", "fraction"},
    {"core.prefix_sum_frac", "fraction"},
    {"core.atomic_win_ratio", "fraction"},
    {"core.edge_spread", "ratio"},
    {"core.decode_frac", "fraction"},
    {"core.bytes_per_edge", "B"},
    {"core.msbfs64_ms", "ms"},
    {"core.self_frac", "fraction"},
    {"service.wait_frac", "fraction"},
    {"service.run_frac", "fraction"},
    {"service.roots_per_wave", "count"},
    {"service.wave_overhead_frac", "fraction"},
    {"service.shed", "count"},
    {"service.degraded", "count"},
    {"service.cancelled", "count"},
    {"service.self_frac", "fraction"},
    {"stream.store_frac", "fraction"},
    {"stream.apply_rate", "1/s"},
    {"stream.write_rate", "1/s"},
    {"stream.staleness_p50", "versions"},
    {"stream.rebuilds", "count"},
    {"stream.snapshots_published", "count"},
    {"stream.self_frac", "fraction"},
    {"proc.cpu_util", "fraction"},
    {"proc.invol_csw_per_s", "1/s"},
    {"bench.gen_s", "s"},
    {"bench.check_s", "s"},
    {"bench.self_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

/// Printed for the reader, not part of the JSON.
constexpr MetricSpec kInfo[] = {
    {"bench.samples", "count"},
    {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"proc.rss_mb", "MB"},
    {"service.write_p50_ms", "ms"},
    {"core.msbfs64_levels", "count"},
    {"fail_frac", "fraction"},
};

std::string number(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "sge_bench: %s\n"
                 "usage: sge_bench --workload <rmat-bfs|grid-bfs|rmat-serve>"
                 " --seed <n> [--seconds <s>] [--trace <file>] [--threads <k>]"
                 " [--scratch <dir>]\n"
                 "       sge_bench --selftest\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Config cfg;
    // The library gets half the CPUs. On a shared host a team on every
    // CPU waits at each level barrier for whichever CPU the host serves
    // worst: over 12 interleaved minutes, 30 s medians of R-MAT queries
    // spread 0.30 with 4 threads on 4 CPUs and 0.11 with 2 (README.md).
    cfg.threads = std::max(1, nproc() / 2);
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") return selftest() == 0 ? 0 : 1;
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            cfg.workload = val;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0') return usage("bad --seed");
            have_seed = true;
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || !(cfg.seconds > 0))
                return usage("bad --seconds");
        } else if (arg == "--threads") {
            cfg.threads = static_cast<int>(std::strtol(val.c_str(), &end, 10));
            if (end == val.c_str() || *end != '\0' || cfg.threads < 1)
                return usage("bad --threads");
        } else if (arg == "--trace") {
            cfg.trace_path = val;
        } else if (arg == "--scratch") {
            cfg.scratch_dir = val;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    bool known = false;
    for (const auto& name : workload_names()) known |= name == cfg.workload;
    if (!known) return usage("unknown or missing --workload");
    if (!have_seed) return usage("missing --seed");
    const int cpus = nproc();
    if (cfg.threads > cpus) {
        std::fprintf(stderr,
                     "sge_bench: refusing %d threads on %d CPUs: oversubscribed "
                     "runs measure the scheduler, not the program\n",
                     cfg.threads, cpus);
        return 2;
    }

    const auto caches = sge::detect_caches();
    std::size_t llc = 0;
    for (const auto& c : caches)
        if (c.type != "Instruction") llc = std::max(llc, c.size_bytes);
    std::printf("# nproc %d, library threads %d\n", cpus, cfg.threads);
    std::printf("# caches %s\n", sge::describe_caches(caches).c_str());
    print_working_sets(llc);
    std::printf("# workload %s seed %llu seconds %g%s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace_path.empty() ? "" : " traced");
    std::fflush(stdout);

    Tracer tracer(!cfg.trace_path.empty());
    Metrics metrics;
    Tally outcome;
    try {
        outcome = run_workload(cfg, tracer, metrics);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sge_bench: %s failed: %s\n", cfg.workload.c_str(),
                     e.what());
        return 1;
    }
    metrics["fail_frac"] = outcome.attempted > 0
                               ? static_cast<double>(outcome.failed) /
                                     static_cast<double>(outcome.attempted)
                               : 1.0;

    for (const std::span<const MetricSpec> table :
         {std::span<const MetricSpec>(kEndToEnd), std::span<const MetricSpec>(kPerLayer),
          std::span<const MetricSpec>(kInfo)})
        for (const MetricSpec& s : table)
            if (const auto it = metrics.find(s.name); it != metrics.end())
                std::printf("%s %.6g %s\n", s.name, it->second, s.unit);

    if (tracer.enabled()) {
        if (!tracer.write(cfg.trace_path)) return 1;
        std::printf("# trace written to %s\n", cfg.trace_path.c_str());
    }

    std::string json = "{\"correct\": ";
    json += outcome.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const auto& table) {
        for (const MetricSpec& s : table) {
            const auto it = metrics.find(s.name);
            if (it == metrics.end() || !std::isfinite(it->second)) {
                std::fprintf(stderr, "sge_bench: metric %s was not measured\n", s.name);
                return false;
            }
            json += first ? "" : ", ";
            first = false;
            json += "\"" + std::string(s.name) + "\": {\"value\": " +
                    number(it->second) + ", \"unit\": \"" + s.unit + "\"}";
        }
        return true;
    };
    if (!(tracer.enabled() ? emit(kPerLayer) : emit(kEndToEnd))) return 1;
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
