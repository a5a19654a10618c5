#pragma once

// Shared pieces of the end-to-end benchmark driver (sge_bench): the run
// configuration, the in-memory span tracer, and the process and
// statistics helpers the workloads use. See README.md for the
// metric glossary and the rationale of each workload.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sge::e2e {

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    /// Worker threads of the library (BfsOptions::threads); never more
    /// than nproc. The generator and the checker use nproc threads.
    int threads = 1;
    /// Directory for spill files (the paged probe of rmat-bfs).
    std::string scratch_dir = ".";
    /// Chrome trace output; empty = untraced run.
    std::string trace_path;
};

/// Metric values of one pass, keyed by name.
using Metrics = std::map<std::string, double>;

// ---------------------------------------------------------------------
// Span tracer: spans live in memory and are written at exit.
// ---------------------------------------------------------------------

/// Chrome trace tracks (thread ids) the spans are drawn on.
inline constexpr int kMainTrack = 0;       // set-up, queries, rounds, checks
inline constexpr int kWaveTrack = 2;       // rmat-serve waves
inline constexpr int kRequestTracks = 100; // + request id % 128

/// One recorded span. `parent` is the id of the span that caused it
/// (0 = none); `req` groups the spans of one request and `wave` the
/// requests one service wave answered (0 = none).
struct SpanRecord {
    std::string name;
    std::string layer;
    int track = kMainTrack;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t req = 0;
    std::uint64_t wave = 0;
    /// Drawn in the trace but left out of the layer times: it spans time
    /// its member requests already account for.
    bool overlay = false;
};

/// Thread-safe in-memory span store. A disabled tracer records nothing,
/// so the untraced run pays one branch per span site.
class Tracer {
  public:
    using clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(clock::now()) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    [[nodiscard]] std::uint64_t ns(clock::time_point t) const noexcept {
        return t <= epoch_ ? 0
                           : static_cast<std::uint64_t>(
                                 std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(t - epoch_)
                                     .count());
    }
    [[nodiscard]] std::uint64_t now_ns() const noexcept {
        return ns(clock::now());
    }

    /// A fresh span id (0 when disabled).
    std::uint64_t new_id();

    /// Records a finished span under a previously reserved id.
    void record(SpanRecord span);

    /// Reserves an id and records the span in one call; returns the id.
    std::uint64_t add(std::string name, std::string layer, int track,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t parent = 0, std::uint64_t req = 0);

    /// Wall time per layer. A span owns the parts of its interval that
    /// none of its children cover; every instant some span owns is split
    /// evenly among the spans owning it then, so requests in flight
    /// together share the instant instead of each counting it whole. The
    /// values sum to the wall time the spans cover. Overlays are skipped.
    [[nodiscard]] std::map<std::string, double> layer_wall_seconds() const;

    /// Writes the spans as a Chrome trace-event file (args: id, parent,
    /// req). Returns false when the file cannot be written.
    bool write(const std::string& path) const;

  private:
    const bool enabled_;
    const clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::uint64_t next_id_ = 1;
    std::vector<SpanRecord> spans_;
};

/// RAII span around a call: stamps the start on construction and
/// records on destruction. `id()` is the parent id for nested spans.
class ScopedSpan {
  public:
    ScopedSpan(Tracer& tracer, std::string name, std::string layer,
               std::uint64_t parent = 0, std::uint64_t req = 0,
               int track = kMainTrack);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

  private:
    Tracer& tracer_;
    SpanRecord rec_;
};

// ---------------------------------------------------------------------
// Statistics and process probes.
// ---------------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples;
/// 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Cumulative resource usage of this process (all threads).
struct ProcSample {
    double wall_s = 0;
    double cpu_s = 0;  ///< user + system
    std::uint64_t major_faults = 0;
    std::uint64_t invol_csw = 0;
};

[[nodiscard]] ProcSample proc_sample();

/// VmRSS of this process in MB (0 when /proc is unavailable).
[[nodiscard]] double rss_mb();

/// Live memory in MB: heap bytes the program holds (glibc's in-use arena
/// bytes plus mmapped blocks) and file-backed resident pages, such as a
/// paged graph's mapped payload. Unlike VmRSS it does not count freed
/// heap pages the allocator keeps: on rmat-serve those swing VmRSS
/// between 0.1 and 1.6 GB from one run to the next.
[[nodiscard]] double mem_mb();

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int nproc();

/// Seconds between two steady_clock points.
[[nodiscard]] inline double seconds_between(Tracer::clock::time_point a,
                                            Tracer::clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Operations a run attempted, and how many failed a check or were not
/// answered.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/// Runs the named workload once (or, traced, twice: an untraced pass
/// for the overhead baseline, then the traced pass) and fills `metrics`
/// with every metric it measured.
Tally run_workload(const Config& config, Tracer& tracer, Metrics& metrics);

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Prints the working set of every workload against the LLC.
void print_working_sets(std::size_t llc_bytes);

}  // namespace sge::e2e
