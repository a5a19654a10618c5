#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

namespace sge {

/// Process-wide robustness counters. Degradations that used to be
/// silent (a failed pin, an aborted barrier) tick
/// these so operators and tests can observe them; they are monotonic
/// and never reset.
///
/// These are *health* signals, distinct from the per-traversal
/// performance counters in BfsResult::level_stats: a traversal's stats
/// are reset every run and describe work done, while RuntimeWarnings
/// accumulate for the process lifetime and describe things that went
/// wrong. docs/ROBUSTNESS.md discusses how the two relate.
struct RuntimeWarnings {
    /// Threads that requested CPU pinning but could not get it (the run
    /// continues unpinned; see note_pin_failure below).
    std::atomic<std::uint64_t> pin_failures{0};
    /// Barriers aborted rather than left by a full rendezvous: a worker
    /// failed, or a run's CancelToken deadline passed mid-level
    /// (ThreadTeam::run).
    std::atomic<std::uint64_t> barrier_aborts{0};
};

/// The process-wide RuntimeWarnings singleton. Thread-safe: fields are
/// atomics and the instance is constructed on first use. Read it in
/// tests or operational code to assert that a run stayed clean
/// (e.g. `runtime_warnings().barrier_aborts.load() == 0`).
inline RuntimeWarnings& runtime_warnings() noexcept {
    static RuntimeWarnings w;
    return w;
}

/// Records a failed thread-pin attempt. The run degrades to unpinned
/// placement (correctness is unaffected; only locality suffers), so
/// this warns on stderr exactly once per process and counts every
/// occurrence in runtime_warnings().
inline void note_pin_failure(int cpu) noexcept {
    runtime_warnings().pin_failures.fetch_add(1, std::memory_order_relaxed);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_acq_rel))
        std::fprintf(stderr,
                     "sge: warning: failed to pin thread to CPU %d; "
                     "continuing unpinned (further failures counted "
                     "silently)\n",
                     cpu);
}

/// Order statistics + moments of a sample — what the benchmark harness
/// reports instead of single-shot numbers (multi-run medians are far
/// more stable than minima under OS jitter on shared machines).
struct SampleSummary {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double median = 0.0;
    double stddev = 0.0;  // population standard deviation
};

/// Summarises `values` (empty input yields an all-zero summary).
inline SampleSummary summarize(std::span<const double> values) {
    SampleSummary s;
    s.count = values.size();
    if (values.empty()) return s;

    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    s.min = sorted.front();
    s.max = sorted.back();
    const std::size_t mid = sorted.size() / 2;
    s.median = sorted.size() % 2 == 1
                   ? sorted[mid]
                   : 0.5 * (sorted[mid - 1] + sorted[mid]);

    double total = 0.0;
    for (const double v : sorted) total += v;
    s.mean = total / static_cast<double>(sorted.size());

    double var = 0.0;
    for (const double v : sorted) var += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(var / static_cast<double>(sorted.size()));
    return s;
}

/// Harmonic mean — the Graph500 aggregate for TEPS rates (the arithmetic
/// mean over rates overweights easy roots).
inline double harmonic_mean(std::span<const double> values) {
    if (values.empty()) return 0.0;
    double inv = 0.0;
    for (const double v : values) {
        if (v <= 0.0) return 0.0;
        inv += 1.0 / v;
    }
    return static_cast<double>(values.size()) / inv;
}

}  // namespace sge
