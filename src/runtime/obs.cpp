#include "runtime/obs.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "runtime/env.hpp"

namespace sge::obs {

bool enabled() noexcept {
    static const bool on = env_bool("SGE_OBS", true);
    return on;
}

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

void JsonWriter::comma_for_value() {
    if (stack_.empty()) return;
    Frame& top = stack_.back();
    if (top.have_key) {
        // key() already placed the comma and the key itself.
        top.have_key = false;
        return;
    }
    if (!top.first) raw(",");
    top.first = false;
}

void JsonWriter::begin_object() {
    comma_for_value();
    stack_.push_back({'{'});
    raw("{");
}

void JsonWriter::end_object() {
    stack_.pop_back();
    raw("}");
}

void JsonWriter::begin_array() {
    comma_for_value();
    stack_.push_back({'['});
    raw("[");
}

void JsonWriter::end_array() {
    stack_.pop_back();
    raw("]");
}

void JsonWriter::key(std::string_view k) {
    Frame& top = stack_.back();
    if (!top.first) raw(",");
    top.first = false;
    top.have_key = true;
    out_ << '"' << json_escape(k) << "\":";
}

void JsonWriter::value(std::string_view v) {
    comma_for_value();
    out_ << '"' << json_escape(v) << '"';
}

void JsonWriter::value(double v) {
    comma_for_value();
    if (!std::isfinite(v)) {
        raw("null");
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(buf);
}

void JsonWriter::value(std::uint64_t v) {
    comma_for_value();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    raw(buf);
}

void JsonWriter::value(std::int64_t v) {
    comma_for_value();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    raw(buf);
}

void JsonWriter::value(bool v) {
    comma_for_value();
    raw(v ? "true" : "false");
}

void JsonWriter::value_null() {
    comma_for_value();
    raw("null");
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// ChromeTrace
// ---------------------------------------------------------------------

void ChromeTrace::set_thread_name(int tid, std::string name) {
    thread_names_.emplace_back(tid, std::move(name));
}

void ChromeTrace::add_span(int tid, std::string name, std::uint64_t start_ns,
                           std::uint64_t end_ns, Args args) {
    spans_.push_back(
        Span{tid, std::move(name), start_ns, end_ns, std::move(args)});
}

void ChromeTrace::add_counter(std::string series, std::uint64_t ts_ns,
                              Values values) {
    counters_.push_back(Counter{std::move(series), ts_ns, std::move(values)});
}

namespace {

/// Nanoseconds -> the format's microsecond timestamps, fractional part
/// kept (Chrome accepts doubles).
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

template <class Args>
void write_args(JsonWriter& w, const Args& args) {
    w.key("args");
    w.begin_object();
    for (const auto& [k, v] : args) w.field(k, v);
    w.end_object();
}

}  // namespace

void ChromeTrace::write(std::ostream& out) const {
    JsonWriter w(out);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    if (!process_name_.empty()) {
        w.begin_object();
        w.field("name", "process_name");
        w.field("ph", "M");
        w.field("pid", 0);
        w.key("args");
        w.begin_object();
        w.field("name", process_name_);
        w.end_object();
        w.end_object();
    }
    for (const auto& [tid, name] : thread_names_) {
        w.begin_object();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", 0);
        w.field("tid", tid);
        w.key("args");
        w.begin_object();
        w.field("name", name);
        w.end_object();
        w.end_object();
    }
    for (const Span& s : spans_) {
        w.begin_object();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", 0);
        w.field("tid", s.tid);
        w.field("ts", us(s.start_ns));
        w.field("dur", us(s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0));
        write_args(w, s.args);
        w.end_object();
    }
    for (const Counter& c : counters_) {
        w.begin_object();
        w.field("name", c.series);
        w.field("ph", "C");
        w.field("pid", 0);
        w.field("ts", us(c.ts_ns));
        write_args(w, c.values);
        w.end_object();
    }

    w.end_array();
    w.field("displayTimeUnit", "ms");
    w.end_object();
    out << "\n";
}

bool ChromeTrace::write_file(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "sge::obs: cannot write trace to '%s'\n",
                     path.c_str());
        return false;
    }
    write(out);
    return out.good();
}

}  // namespace sge::obs
