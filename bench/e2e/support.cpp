// Tracer, statistics and process probes of the end-to-end benchmark.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "e2e.hpp"
#include "runtime/obs.hpp"

namespace sge::e2e {

std::uint64_t Tracer::new_id() {
    if (!enabled_) return 0;
    std::lock_guard guard(mutex_);
    return next_id_++;
}

void Tracer::record(SpanRecord span) {
    if (!enabled_) return;
    std::lock_guard guard(mutex_);
    spans_.push_back(std::move(span));
}

std::uint64_t Tracer::add(std::string name, std::string layer, int track,
                          std::uint64_t start_ns, std::uint64_t end_ns,
                          std::uint64_t parent, std::uint64_t req) {
    if (!enabled_) return 0;
    SpanRecord s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.track = track;
    s.start_ns = start_ns;
    s.end_ns = std::max(start_ns, end_ns);
    s.parent = parent;
    s.req = req;
    std::lock_guard guard(mutex_);
    s.id = next_id_++;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::map<std::string, double> Tracer::layer_wall_seconds() const {
    std::lock_guard guard(mutex_);
    using Interval = std::pair<std::uint64_t, std::uint64_t>;
    std::unordered_map<std::uint64_t, std::vector<Interval>> children;
    for (const SpanRecord& s : spans_)
        if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);

    // A span's own pieces are the gaps its children leave in it; each
    // piece becomes a +1 and a -1 event for the span's layer.
    std::vector<std::string> layers;
    struct Event {
        std::uint64_t at;
        std::size_t layer;
        int delta;
    };
    std::vector<Event> events;
    for (const SpanRecord& s : spans_) {
        if (s.overlay) continue;
        const std::size_t li = static_cast<std::size_t>(
            std::find(layers.begin(), layers.end(), s.layer) - layers.begin());
        if (li == layers.size()) layers.push_back(s.layer);
        std::vector<Interval> iv;
        if (const auto it = children.find(s.id); it != children.end()) iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::uint64_t from = s.start_ns;
        const auto own = [&](std::uint64_t to) {
            if (to > from) {
                events.push_back({from, li, +1});
                events.push_back({to, li, -1});
            }
        };
        for (const auto& [lo, hi] : iv) {
            own(std::min(lo, s.end_ns));
            from = std::max(from, std::min(hi, s.end_ns));
        }
        own(s.end_ns);
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.at < b.at; });

    // Sweep: each instant is split evenly among the pieces active in it.
    std::vector<int> active(layers.size(), 0);
    std::vector<double> wall(layers.size(), 0.0);
    int total = 0;
    std::uint64_t prev = 0;
    for (const Event& e : events) {
        if (total > 0 && e.at > prev) {
            const double dt = static_cast<double>(e.at - prev) * 1e-9;
            for (std::size_t l = 0; l < layers.size(); ++l)
                wall[l] += dt * active[l] / total;
        }
        active[e.layer] += e.delta;
        total += e.delta;
        prev = e.at;
    }
    std::map<std::string, double> out;
    for (std::size_t l = 0; l < layers.size(); ++l) out[layers[l]] = wall[l];
    return out;
}

bool Tracer::write(const std::string& path) const {
    obs::ChromeTrace trace;
    trace.set_process_name("sge_bench");
    trace.set_thread_name(kMainTrack, "bench main");
    trace.set_thread_name(kWaveTrack, "service waves (from QueryResult)");
    {
        std::lock_guard guard(mutex_);
        for (const SpanRecord& s : spans_) {
            obs::ChromeTrace::Args args{
                {"id", s.id}, {"parent", s.parent}, {"req", s.req}};
            if (s.wave != 0) args.emplace_back("wave", s.wave);
            trace.add_span(s.track, s.layer + "." + s.name, s.start_ns,
                           s.end_ns, std::move(args));
        }
    }
    return trace.write_file(path);
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::string layer,
                       std::uint64_t parent, std::uint64_t req, int track)
    : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    rec_.name = std::move(name);
    rec_.layer = std::move(layer);
    rec_.track = track;
    rec_.parent = parent;
    rec_.req = req;
    rec_.id = tracer_.new_id();
    rec_.start_ns = tracer_.now_ns();
}

ScopedSpan::~ScopedSpan() {
    if (!tracer_.enabled()) return;
    rec_.end_ns = tracer_.now_ns();
    tracer_.record(std::move(rec_));
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

ProcSample proc_sample() {
    ProcSample s;
    s.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    s.cpu_s = tv(ru.ru_utime) + tv(ru.ru_stime);
    s.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    s.invol_csw = static_cast<std::uint64_t>(ru.ru_nivcsw);
    return s;
}

namespace {

/// A "Name:   <n> kB" field of /proc/self/status in MB (0 if absent).
double status_mb(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':')
            return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    return 0.0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }

double mem_mb() {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0) +
           status_mb("RssFile");
}

int nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

}  // namespace sge::e2e
