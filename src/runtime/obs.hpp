#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// sge::obs — the observability subsystem.
//
// Three layers, mirroring the fault-injection pattern (runtime/fault.hpp):
//
//  1. A *compile-time* gate: building with -DSGE_OBS=OFF removes the
//     extended per-thread counters (bitmap skip/win tallies, channel
//     batch occupancy histograms, barrier wait timing, per-thread level
//     spans) from the BFS hot loops entirely — compiled_in() becomes a
//     constexpr `false` and every gated increment folds away. The
//     always-on counters the engines need for their own accounting
//     (edges traversed, frontier sizes) are unaffected.
//
//  2. A *runtime* master switch: SGE_OBS=0 in the environment makes
//     enabled() false, which the benchmark drivers and examples consult
//     before collecting per-level stats or emitting reports. Library
//     callers opt in per run via BfsOptions::collect_stats regardless.
//
//  3. Exporters, always available (they are never on a hot path):
//     a minimal streaming JSON writer and a Chrome trace-event
//     timeline (chrome://tracing / https://ui.perfetto.dev), used by
//     core/make_bfs_trace() and the bench/ BENCH_*.json reports.
//
// See docs/OBSERVABILITY.md for counter definitions, the report schema
// and a trace-viewing walkthrough.

namespace sge::obs {

/// True when the library was built with the extended observability
/// counters compiled into the BFS engines (CMake option SGE_OBS,
/// default ON).
[[nodiscard]] constexpr bool compiled_in() noexcept {
#if defined(SGE_OBS_ENABLED) && SGE_OBS_ENABLED
    return true;
#else
    return false;
#endif
}

/// Runtime master switch for the *tools* (bench drivers, examples):
/// SGE_OBS=0 disables stats collection and report/trace emission in
/// them. Defaults to true. Library API behaviour
/// (BfsOptions::collect_stats) is independent of this switch.
[[nodiscard]] bool enabled() noexcept;

// ---------------------------------------------------------------------
// Minimal streaming JSON writer.
// ---------------------------------------------------------------------

/// Emits syntactically valid JSON to an ostream: comma placement and
/// nesting are tracked internally, strings are escaped, and non-finite
/// doubles degrade to null (JSON has no NaN/Inf). The writer is
/// deliberately tiny — no DOM, no reflection — because both exporters
/// only ever append.
class JsonWriter {
  public:
    explicit JsonWriter(std::ostream& out) : out_(out) {}

    JsonWriter(const JsonWriter&) = delete;
    JsonWriter& operator=(const JsonWriter&) = delete;

    void begin_object();
    void end_object();
    void begin_array();
    void end_array();

    /// Emits an object key; the next value/begin_* call supplies its
    /// value. Only valid directly inside an object.
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char* v) { value(std::string_view(v)); }
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(bool v);
    void value_null();

    /// Shorthand: key(k) followed by value(v).
    template <typename T>
    void field(std::string_view k, T&& v) {
        key(k);
        value(std::forward<T>(v));
    }

  private:
    void comma_for_value();
    void raw(std::string_view s) { out_ << s; }

    struct Frame {
        char kind;        // '{' or '['
        bool first = true;
        bool have_key = false;  // a key() awaits its value
    };
    std::ostream& out_;
    std::vector<Frame> stack_;
};

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

// ---------------------------------------------------------------------
// Chrome trace-event timeline.
// ---------------------------------------------------------------------

/// Accumulates a Chrome trace-event timeline — complete spans ("ph":"X")
/// on per-thread tracks plus counter series ("ph":"C") — and writes the
/// standard {"traceEvents": [...]} JSON object. Load the file in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Timestamps are nanoseconds from an arbitrary epoch (the BFS engines
/// use the traversal start); the trace format wants microseconds, so
/// values are scaled on write with fractional microseconds preserved.
class ChromeTrace {
  public:
    using Args = std::vector<std::pair<std::string, std::uint64_t>>;
    /// Counter sample components (a level's wall time is fractional).
    using Values = std::vector<std::pair<std::string, double>>;

    /// Names the process track (shown as the top-level group).
    void set_process_name(std::string name) { process_name_ = std::move(name); }

    /// Names one thread track ("worker 3", "rank 0", ...).
    void set_thread_name(int tid, std::string name);

    /// Adds a complete span to thread `tid`'s track.
    void add_span(int tid, std::string name, std::uint64_t start_ns,
                  std::uint64_t end_ns, Args args = {});

    /// Adds one sample of a counter series. Chrome renders each distinct
    /// `series` name as a stacked-area track; `values` holds the stacked
    /// components (one is fine).
    void add_counter(std::string series, std::uint64_t ts_ns, Values values);

    [[nodiscard]] std::size_t span_count() const noexcept {
        return spans_.size();
    }

    void write(std::ostream& out) const;

    /// Writes to `path`; returns false (and reports on stderr) when the
    /// file cannot be created.
    bool write_file(const std::string& path) const;

  private:
    struct Span {
        int tid;
        std::string name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        Args args;
    };
    struct Counter {
        std::string series;
        std::uint64_t ts_ns;
        Values values;
    };
    std::string process_name_;
    std::vector<std::pair<int, std::string>> thread_names_;
    std::vector<Span> spans_;
    std::vector<Counter> counters_;
};

}  // namespace sge::obs
