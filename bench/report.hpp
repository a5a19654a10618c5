#pragma once

// Machine-readable benchmark reports (BENCH_<slug>.json).
//
// Every fig* driver prints its paper-style tables to stdout for humans;
// when SGE_BENCH_JSON is set (and the SGE_OBS runtime switch is not 0)
// it *also* drops a JSON report so CI and plotting scripts never have
// to scrape the tables. Validate with bench/check_bench_json.py; the
// schema is documented in docs/OBSERVABILITY.md.
//
//   SGE_BENCH_JSON=1           -> write BENCH_<slug>.json in the CWD
//   SGE_BENCH_JSON=/some/dir   -> write it there
//   unset / 0                  -> off (the default)

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "runtime/env.hpp"
#include "runtime/obs.hpp"

namespace sge::bench {

/// Directory BENCH_*.json reports go to, or "" when reporting is off.
inline std::string bench_json_dir() {
    const std::string v = env_string("SGE_BENCH_JSON").value_or("");
    if (v.empty() || v == "0" || v == "false" || v == "no" || v == "off")
        return {};
    if (!obs::enabled()) return {};  // SGE_OBS=0 silences the exporters
    if (v == "1" || v == "true" || v == "yes" || v == "on") return ".";
    return v;
}

/// Accumulates one driver's results and writes them as a single JSON
/// object. Construction reads the environment; when reporting is off
/// every method is a cheap no-op, so drivers call unconditionally.
///
/// Data model: a flat list of series entries, each `name` + integer
/// `params` (the experiment coordinates: threads, arity, vertices...)
/// + double `metrics` (the measurements: edges_per_second, seconds...).
/// Flat entries keep the consumer generic — group by name, index by
/// params, plot metrics.
class BenchReport {
  public:
    using Params = std::vector<std::pair<std::string, std::int64_t>>;
    using Metrics = std::vector<std::pair<std::string, double>>;

    BenchReport(std::string slug, std::string figure)
        : slug_(std::move(slug)),
          figure_(std::move(figure)),
          dir_(bench_json_dir()) {}

    [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

    void set_topology(std::string description) {
        topology_ = std::move(description);
    }

    void set_workload(std::string family, std::uint64_t base_vertices) {
        family_ = std::move(family);
        base_vertices_ = base_vertices;
    }

    void add(std::string name, Params params, Metrics metrics) {
        if (!enabled()) return;
        entries_.push_back(
            Entry{std::move(name), std::move(params), std::move(metrics)});
    }

    /// One entry per BFS level, carrying the full per-level counter set
    /// (the Figure 4-style data): every BfsLevelStats value, keyed as
    /// level_value_key names it. `params` is copied into every level's
    /// entry with "level" appended.
    void add_levels(const std::string& name, const Params& params,
                    const std::vector<BfsLevelStats>& levels) {
        if (!enabled()) return;
        for (std::size_t d = 0; d < levels.size(); ++d) {
            Params p = params;
            p.emplace_back("level", static_cast<std::int64_t>(d));
            Metrics m;
            for (const LevelCounterRow& row : kLevelCounterRows)
                for (std::size_t e = 0; e < row.extent; ++e)
                    m.emplace_back(level_value_key(row, e),
                                   level_value(levels[d], row, e));
            add(name, std::move(p), std::move(m));
        }
    }

    /// Writes BENCH_<slug>.json. Returns false when reporting is off or
    /// the file cannot be created (reported on stderr; benches never
    /// fail over a report).
    bool write() const {
        if (!enabled()) return false;
        const std::string path = dir_ + "/BENCH_" + slug_ + ".json";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
            return false;
        }
        obs::JsonWriter w(out);
        w.begin_object();
        w.field("schema", "sge.bench");
        w.field("schema_version", std::int64_t{1});
        w.field("bench", slug_);
        w.field("figure", figure_);
        w.field("unix_time",
                static_cast<std::int64_t>(std::time(nullptr)));
        w.field("scale_shift", scale_shift());
        w.field("obs_compiled_in", obs::compiled_in());
        if (!topology_.empty()) w.field("topology", topology_);
        if (!family_.empty()) {
            w.key("workload");
            w.begin_object();
            w.field("family", family_);
            w.field("base_vertices", base_vertices_);
            w.end_object();
        }
        w.key("series");
        w.begin_array();
        for (const Entry& e : entries_) {
            w.begin_object();
            w.field("name", e.name);
            w.key("params");
            w.begin_object();
            for (const auto& [k, v] : e.params) w.field(k, v);
            w.end_object();
            w.key("metrics");
            w.begin_object();
            for (const auto& [k, v] : e.metrics) w.field(k, v);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        out << "\n";
        if (!out) {
            std::fprintf(stderr, "BenchReport: write to %s failed\n",
                         path.c_str());
            return false;
        }
        std::printf("\n[report: %s]\n", path.c_str());
        return true;
    }

  private:
    struct Entry {
        std::string name;
        Params params;
        Metrics metrics;
    };

    std::string slug_;
    std::string figure_;
    std::string dir_;
    std::string topology_;
    std::string family_;
    std::uint64_t base_vertices_ = 0;
    std::vector<Entry> entries_;
};

}  // namespace sge::bench
