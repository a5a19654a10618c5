// The three workloads of the end-to-end benchmark. Each one generates its
// inputs from the seed, hands them to the library, and times only calls
// into public functions: csr_from_edges, make_paged, BfsRunner::run_into,
// multi_source_bfs, GraphService::submit / submit_mutation and
// VersionedGraphStore::apply. Every answer is checked (untimed).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "core/bfs.hpp"
#include "core/msbfs.hpp"
#include "e2e.hpp"
#include "gen/grid.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/paged_graph.hpp"
#include "runtime/prng.hpp"
#include "runtime/stats.hpp"
#include "service/graph_service.hpp"
#include "stream/versioned_store.hpp"

namespace sge::e2e {

namespace {

using clock = Tracer::clock;
using service::GraphService;
using service::Outcome;
using service::QueryResult;
using service::ServiceOptions;

// ---- workload sizes (see README.md "Workloads" for why) ----

/// Graph500 Kronecker: 2^scale vertices, edgefactor * 2^scale input
/// edges, A/B/C/D = .57/.19/.19/.05, labels permuted.
constexpr std::uint32_t kEdgeFactor = 16;
constexpr std::uint32_t kRmatScale = 20;   // rmat-bfs
constexpr std::uint32_t kServeScale = 18;  // rmat-serve
constexpr std::uint32_t kGridSide = 1024;  // grid-bfs: side x side, 4-connected

/// Set-ups per pass; setup_s is their median. One set-up varies by ±15%
/// within a run, so the sub-second set-ups of grid-bfs and rmat-serve
/// repeat 9 times; rmat-bfs (~2.5 s each) affords 3.
constexpr int kSetups = 9;
constexpr int kRmatSetups = 3;
/// Graph500 roots per BFS workload; the closed loop cycles through them.
constexpr std::size_t kRoots = 64;
/// Every answer gets the O(n) checks; every kFullCheckEvery-th also the
/// full level rules.
constexpr std::uint64_t kFullCheckEvery = 8;
/// R-MAT generation is split into this many independently seeded
/// chunks, so the edge list does not depend on the thread count.
constexpr std::size_t kGenChunks = 64;

// rmat-serve load: rounds of kRoundQueries callers that each send one
// query and wait for its reply, plus one kOpsPerBatch-insert mutation
// batch. A round's 17 requests are submitted within the service's 0.5 ms
// batch window, so the service pops them as one batch: the insert batch,
// then one MS-BFS wave. Rounds of 64 queries overrun the window and split
// at a different point in every round, which makes the latency bimodal.
// Not an open loop: its latency amplifies the host's drift, through
// queueing at 40/s and through idle wake-ups at 10-20/s (README).
constexpr int kRoundQueries = 16;
constexpr int kOpsPerBatch = 16;
/// Distinct roots in the largest component the service queries draw from.
constexpr std::size_t kServeRootPool = 16384;

/// Failures logged to stderr per pass (all are counted).
constexpr int kMaxLoggedFailures = 5;

constexpr double kMiB = 1024.0 * 1024.0;

enum class Kind { kRmatBfs, kGrid, kServe };

Kind kind_of(const std::string& name) {
    if (name == "rmat-bfs") return Kind::kRmatBfs;
    if (name == "grid-bfs") return Kind::kGrid;
    return Kind::kServe;
}

double since(clock::time_point t) { return seconds_between(t, clock::now()); }

template <class Fn>
void parallel_for(std::size_t count, int threads, const Fn& fn) {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < count;) fn(i);
    };
    std::vector<std::jthread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
}

EdgeList generate_kronecker(std::uint32_t scale, std::uint64_t seed,
                            int threads) {
    const std::uint64_t m = std::uint64_t{kEdgeFactor} << scale;
    std::vector<EdgeList> parts(kGenChunks);
    parallel_for(kGenChunks, threads, [&](std::size_t c) {
        RmatParams p;
        p.scale = scale;
        p.num_edges = m * (c + 1) / kGenChunks - m * c / kGenChunks;
        p.a = 0.57;
        p.b = 0.19;
        p.c = 0.19;
        p.d = 0.05;
        p.noise = 0.0;
        p.seed = SplitMix64(seed * kGenChunks + c).next();
        parts[c] = generate_rmat(p);
    });
    EdgeList edges(static_cast<vertex_t>(1ULL << scale));
    edges.reserve(m);
    for (EdgeList& part : parts) {
        for (const Edge& e : part) edges.add(e.src, e.dst);
        part = EdgeList{};
    }
    permute_vertices(edges, SplitMix64(~seed).next());
    return edges;
}

EdgeList generate_inputs(Kind kind, std::uint64_t seed, int threads) {
    switch (kind) {
        case Kind::kGrid: {
            GridParams gp;
            gp.width = kGridSide;
            gp.height = kGridSide;
            return generate_grid(gp);
        }
        case Kind::kServe:
            return generate_kronecker(kServeScale, seed, threads);
        default:
            return generate_kronecker(kRmatScale, seed, threads);
    }
}

/// `count` distinct roots drawn from the seed among the vertices of the
/// largest component (the one holding the highest-degree vertex).
/// Graph500 draws from every non-isolated vertex, but a root in a
/// two-vertex component answers in the fixed per-query time and drags the
/// harmonic mean of TEPS to ~0: one such draw would decide a whole run.
std::vector<vertex_t> draw_roots(const CsrGraph& g, std::size_t count,
                                 std::uint64_t seed) {
    const vertex_t n = g.num_vertices();
    vertex_t hub = 0;
    for (vertex_t v = 1; v < n; ++v)
        if (g.degree(v) > g.degree(hub)) hub = v;
    BfsOptions bo;
    bo.threads = nproc();
    const BfsResult component = bfs(g, hub, bo);

    Xoshiro256 rng(seed ^ 0x726f6f7473ULL);
    std::vector<vertex_t> roots;
    std::vector<bool> taken(n, false);
    while (roots.size() < count) {
        const auto v = static_cast<vertex_t>(rng.next_below(n));
        if (component.level[v] == kInvalidLevel || taken[v]) continue;
        taken[v] = true;
        roots.push_back(v);
    }
    return roots;
}

/// Sums of the per-level counters over every traced query.
struct LevelTotals {
    double level_ns = 0;  // Σ level wall × threads
    double barrier_ns = 0;
    double prefix_ns = 0;
    double decode_ns = 0;
    double atomic_ops = 0;
    double atomic_wins = 0;
    double edges = 0;
    double max_thread_edges_x_threads = 0;
    double bytes_decoded = 0;

    void add(const std::vector<BfsLevelStats>& levels, int threads) {
        for (const BfsLevelStats& s : levels) {
            level_ns += s.seconds * 1e9 * threads;
            barrier_ns += static_cast<double>(s.barrier_wait_ns);
            prefix_ns += static_cast<double>(s.prefix_sum_ns);
            decode_ns += static_cast<double>(s.decode_ns);
            atomic_ops += static_cast<double>(s.atomic_ops);
            atomic_wins += static_cast<double>(s.atomic_wins);
            edges += static_cast<double>(s.edges_scanned);
            max_thread_edges_x_threads +=
                static_cast<double>(s.max_thread_edges) * threads;
            bytes_decoded += static_cast<double>(s.bytes_decoded);
        }
    }

    static double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

    void report(Metrics& m) const {
        m["core.barrier_wait_frac"] = ratio(barrier_ns, level_ns);
        m["core.prefix_sum_frac"] = ratio(prefix_ns, level_ns);
        m["core.atomic_win_ratio"] = ratio(atomic_wins, atomic_ops);
        m["core.edge_spread"] = ratio(max_thread_edges_x_threads, edges);
    }

    /// The decode counters, which only the paged probe's queries move.
    void report_decode(Metrics& m) const {
        m["core.decode_frac"] = ratio(decode_ns, level_ns);
        m["core.bytes_per_edge"] = ratio(bytes_decoded, edges);
    }
};

/// One measured pass of a workload.
struct Pass {
    Metrics m;
    Tally outcome;
};

/// Per set-up: the graph build, the versioned store (rmat-serve only),
/// and the runner or service start plus the first query. Root drawing
/// between them is not timed.
struct SetupTimes {
    std::vector<double> build, store, first_query;

    void report(Metrics& m) const {
        std::vector<double> total;
        for (std::size_t i = 0; i < build.size(); ++i)
            total.push_back(build[i] + store[i] + first_query[i]);
        m["setup_s"] = summarize(total).median;
        m["graph.build_s"] = summarize(build).median;
        m["stream.store_frac"] = summarize(store).median / summarize(total).median;
        m["core.first_query_s"] = summarize(first_query).median;
    }
};

void log_failure(int& logged, const std::string& what) {
    if (logged++ < kMaxLoggedFailures)
        std::fprintf(stderr, "sge_bench: check failed: %s\n", what.c_str());
}

/// Counts one answer outside the timed loop (a set-up's first query, the
/// serve settle wave) and gives it the O(n) checks.
void tally_answer(Tally& tally, const CsrGraph& g, const Answer& a) {
    ++tally.attempted;
    if (const std::string err = check_summary(g, a, nullptr); !err.empty()) {
        ++tally.failed;
        std::fprintf(stderr, "sge_bench: check failed: root %u: %s\n", a.root,
                     err.c_str());
    }
}

/// The same for a service answer, which carries levels only.
void tally_answer(Tally& tally, const CsrGraph& g, vertex_t root,
                  const QueryResult& r) {
    if (!r.answered()) {
        ++tally.attempted;
        ++tally.failed;
        return;
    }
    tally_answer(tally, g, Answer{root, r.level, {}, r.vertices_visited, r.num_levels});
}

void report_proc(const ProcSample& a, const ProcSample& b, Metrics& m) {
    const double wall = b.wall_s - a.wall_s;
    m["proc.cpu_util"] = (b.cpu_s - a.cpu_s) / (wall * nproc());
    m["proc.invol_csw_per_s"] =
        static_cast<double>(b.invol_csw - a.invol_csw) / wall;
}

/// Zeroes for the layers a workload does not exercise, so every run
/// reports the same metric set.
void zero_layers(Metrics& m, bool paged, bool serve) {
    if (!paged)
        for (const char* k :
             {"graph.spill_frac", "paged.bits_per_edge", "paged.latency_ratio",
              "paged.major_faults", "paged.prefetch_hit_ratio",
              "paged.prefetch_issued", "paged.resident_mb", "core.decode_frac",
              "core.bytes_per_edge"})
            m[k] = 0.0;
    if (!serve)
        for (const char* k :
             {"service.wait_frac", "service.run_frac", "service.roots_per_wave",
              "service.wave_overhead_frac", "service.shed", "service.degraded",
              "service.cancelled", "stream.apply_rate", "stream.write_rate",
              "stream.staleness_p50", "stream.rebuilds",
              "stream.snapshots_published"})
            m[k] = 0.0;
}

/// Times a direct multi_source_bfs from `roots` (the second of two
/// calls, so the lane buffers are prepared) and returns its milliseconds.
/// Unless null, `totals` gets its level counters and `levels` its level
/// count.
double time_msbfs(const CsrGraph& g, std::span<const vertex_t> roots,
                  BfsRunner& runner, Tracer& tracer, LevelTotals* totals = nullptr,
                  std::uint32_t* levels = nullptr) {
    MsBfsOptions mo;
    mo.team = runner.team();
    mo.workspace = mo.team != nullptr ? runner.workspace() : nullptr;
    if (mo.team == nullptr) mo.threads = 1;
    std::vector<BfsLevelStats> stats;
    mo.collect_stats = totals != nullptr;
    mo.level_stats = &stats;
    const MsBfsVisitor visit = [](int, level_t, vertex_t, std::uint64_t) {};
    (void)multi_source_bfs(g, roots, visit, mo);
    const auto t0 = clock::now();
    std::uint32_t lv = 0;
    {
        ScopedSpan s(tracer, "multi_source_bfs", "core");
        lv = multi_source_bfs(g, roots, visit, mo);
    }
    const double ms = since(t0) * 1e3;
    if (totals != nullptr) totals->add(stats, runner.threads());
    if (levels != nullptr) *levels = lv;
    return ms;
}

// ---------------------------------------------------------------------
// rmat-bfs, grid-bfs: a closed loop of single-source queries through one
// BfsRunner.
// ---------------------------------------------------------------------

/// The checks of the index-th closed-loop answer: the O(n) ones always,
/// the full level rules on every kFullCheckEvery-th. Returns "" on
/// success, else the first violation.
std::string check_answer(const CsrGraph& g, const BfsResult& res, vertex_t root,
                         std::uint64_t index, std::uint64_t* arcs) {
    const Answer a{root, res.level, res.parent, res.vertices_visited, res.num_levels};
    std::string err = check_summary(g, a, arcs);
    if (err.empty() && index % kFullCheckEvery == 0)
        err = check_full(g, {}, a, nproc());
    return err;
}

void query_loop(const Config& cfg, const CsrGraph& g, BfsRunner& runner,
                const std::vector<vertex_t>& roots, Tracer& tracer,
                bool traced, Pass& pass) {
    Metrics& m = pass.m;
    BfsResult res;
    std::vector<double> latency_ms, teps, levels, level_us, scan_ratio;
    LevelTotals totals;
    double check_s = 0;
    int logged = 0;

    const ProcSample p0 = proc_sample();
    const auto start = clock::now();
    for (std::uint64_t i = 0; i == 0 || since(start) < cfg.seconds; ++i) {
        const vertex_t root = roots[i % roots.size()];
        ScopedSpan query(tracer, "query", "bench", 0, i + 1);
        const auto t0 = clock::now();
        {
            ScopedSpan s(tracer, "run_into", "core", query.id(), i + 1);
            runner.run_into(res, g, root);
        }
        const double secs = since(t0);
        ++pass.outcome.attempted;

        const auto c0 = clock::now();
        std::string err;
        std::uint64_t arcs = 0;
        {
            ScopedSpan s(tracer, "check", "bench", query.id(), i + 1);
            err = check_answer(g, res, root, i, &arcs);
        }
        check_s += since(c0);
        if (!err.empty()) {
            ++pass.outcome.failed;
            log_failure(logged, "root " + std::to_string(root) + ": " + err);
        }

        latency_ms.push_back(secs * 1e3);
        teps.push_back(static_cast<double>(arcs) / 2.0 / secs);
        levels.push_back(res.num_levels);
        level_us.push_back(secs * 1e6 / std::max<std::uint32_t>(1, res.num_levels));
        scan_ratio.push_back(arcs > 0 ? static_cast<double>(res.edges_traversed) /
                                            static_cast<double>(arcs)
                                      : 0.0);
        if (traced) totals.add(res.level_stats, runner.threads());
    }
    const ProcSample p1 = proc_sample();
    m["mem_mb"] = mem_mb();
    m["proc.rss_mb"] = rss_mb();

    double busy = 0;
    for (const double ms : latency_ms) busy += ms * 1e-3;
    m["latency_p50_ms"] = percentile(latency_ms, 0.5);
    m["latency_p90_ms"] = percentile(latency_ms, 0.9);
    m["latency_p99_ms"] = percentile(latency_ms, 0.99);
    m["teps_hmean"] = harmonic_mean(teps);
    m["qps"] = static_cast<double>(latency_ms.size()) / busy;
    m["core.levels"] = summarize(levels).median;
    m["core.level_us"] = summarize(level_us).median;
    m["core.scan_ratio"] = summarize(scan_ratio).median;
    m["bench.check_s"] = check_s;
    m["bench.samples"] = static_cast<double>(latency_ms.size());
    report_proc(p0, p1, m);
    m["graph.resident_mb"] = static_cast<double>(g.memory_bytes()) / kMiB;

    if (traced) {
        totals.report(m);
        m["core.msbfs64_ms"] = time_msbfs(g, roots, runner, tracer);
    }
}

/// rmat-bfs, traced pass: the paged backend on the same graph and roots,
/// after the timed loop. make_paged spills the graph as a varint payload
/// into the scratch directory and maps it back; one untimed query pulls
/// the payload into the page cache. Then each root runs once on the CSR
/// and once paged, alternating, so drift of the host lands on both sides
/// alike: paged.latency_ratio, the ratio of the two medians, is the
/// backend's cost. Every paged answer must have the CSR answer's levels.
/// The probe records no spans, so the layer shares describe the workload.
void paged_probe(const Config& cfg, const CsrGraph& g, BfsRunner& runner,
                 const std::vector<vertex_t>& roots, double build_s, Pass& pass) {
    Metrics& m = pass.m;
    PagedWriteOptions wo;
    wo.payload = PagedPayload::kVarintBlob;
    PagedOpenOptions oo;
    oo.owns_files = true;
    const auto t0 = clock::now();
    const PagedGraph paged =
        make_paged(g, cfg.scratch_dir + "/rmat-paged-" + std::to_string(getpid()), wo, oo);
    const double spill_s = since(t0);

    // A runner of its own, so that neither side re-prepares the workspace
    // for the other side's graph at every switch.
    BfsRunner paged_runner(runner.options());
    BfsResult plain, res;
    paged_runner.run_into(res, paged, roots[0]);

    const PagedIoStats& io = paged.io_stats();
    const std::uint64_t issued0 = io.prefetch_issued.load();
    const std::uint64_t hits0 = io.prefetch_hits.load();
    std::uint64_t faults = 0;
    std::vector<double> plain_ms, paged_ms;
    LevelTotals totals;
    int logged = 0;
    for (std::uint64_t i = 0; i < roots.size(); ++i) {
        const vertex_t root = roots[i];
        auto t = clock::now();
        runner.run_into(plain, g, root);
        plain_ms.push_back(since(t) * 1e3);
        const std::uint64_t f0 = proc_sample().major_faults;
        t = clock::now();
        paged_runner.run_into(res, paged, root);
        paged_ms.push_back(since(t) * 1e3);
        faults += proc_sample().major_faults - f0;
        totals.add(res.level_stats, paged_runner.threads());

        pass.outcome.attempted += 2;
        std::string err = check_answer(g, plain, root, i, nullptr);
        if (err.empty() && (res.level != plain.level ||
                            res.vertices_visited != plain.vertices_visited ||
                            res.num_levels != plain.num_levels))
            err = "paged levels differ from the CSR levels";
        if (!err.empty()) {
            ++pass.outcome.failed;
            log_failure(logged, "paged probe, root " + std::to_string(root) + ": " + err);
        }
    }

    const double issued = static_cast<double>(io.prefetch_issued.load() - issued0);
    const double hits = static_cast<double>(io.prefetch_hits.load() - hits0);
    m["graph.spill_frac"] = spill_s / (build_s + spill_s);
    m["paged.bits_per_edge"] = static_cast<double>(paged.payload_bytes()) * 8.0 /
                               static_cast<double>(paged.num_edges());
    m["paged.latency_ratio"] = summarize(paged_ms).median / summarize(plain_ms).median;
    m["paged.major_faults"] = static_cast<double>(faults);
    m["paged.prefetch_issued"] = issued;
    m["paged.prefetch_hit_ratio"] = issued > 0 ? hits / issued : 0.0;
    m["paged.resident_mb"] = static_cast<double>(paged.resident_payload_bytes()) / kMiB;
    totals.report_decode(m);
}

Pass bfs_pass(const Config& cfg, Kind kind, EdgeList& edges, Tracer& tracer,
              bool traced, bool release_edges) {
    Pass pass;
    SetupTimes st;
    CsrGraph graph;
    std::unique_ptr<BfsRunner> runner;
    std::vector<vertex_t> roots;
    BfsResult first;

    BfsOptions bo;
    bo.threads = cfg.threads;
    bo.collect_stats = traced;

    const int setups = kind == Kind::kRmatBfs ? kRmatSetups : kSetups;
    for (int k = 0; k < setups; ++k) {
        // Tear the previous set-up down first, so set-ups never overlap
        // in memory.
        runner.reset();
        graph = CsrGraph{};

        ScopedSpan setup(tracer, "setup", "bench");
        const auto t0 = clock::now();
        {
            ScopedSpan s(tracer, "csr_from_edges", "graph", setup.id());
            graph = csr_from_edges(edges);
        }
        st.build.push_back(since(t0));
        st.store.push_back(0.0);
        if (roots.empty()) roots = draw_roots(graph, kRoots, cfg.seed);
        const auto t1 = clock::now();
        {
            ScopedSpan s(tracer, "BfsRunner", "core", setup.id());
            runner = std::make_unique<BfsRunner>(bo);
        }
        {
            ScopedSpan s(tracer, "first_query", "core", setup.id());
            runner->run_into(first, graph, roots[0]);
        }
        st.first_query.push_back(since(t1));
        tally_answer(pass.outcome, graph,
                     Answer{roots[0], first.level, first.parent, first.vertices_visited,
                            first.num_levels});
    }
    if (release_edges) edges = EdgeList{};
    st.report(pass.m);

    query_loop(cfg, graph, *runner, roots, tracer, traced, pass);
    const bool probe = traced && kind == Kind::kRmatBfs;
    if (probe) paged_probe(cfg, graph, *runner, roots, pass.m["graph.build_s"], pass);
    zero_layers(pass.m, probe, false);
    return pass;
}

// ---------------------------------------------------------------------
// rmat-serve: GraphService over a VersionedGraphStore, driven in rounds of
// concurrent requests with mutation batches among them.
// ---------------------------------------------------------------------

/// One request of a round.
struct Request {
    bool mutation = false;
    std::uint64_t req = 0;
    std::uint64_t query_index = 0;  // queries: 0-based, for the full checks
    std::size_t batch = 0;          // mutations: 1-based batch number
    vertex_t root = 0;
    clock::time_point submit_begin, submit_end;
    std::future<QueryResult> future;
    QueryResult res;
    SnapshotRef pin;  // queries: the snapshot current at submit
};

/// What the rounds measured.
struct ServeLog {
    std::vector<double> response_ms, teps, write_ms, run_ms, staleness, levels;
    double wait_s = 0, run_s = 0, response_s = 0;
    double busy_s = 0;  // Σ round time, first submit to last answer
    double check_s = 0;
    std::uint64_t queries = 0;
};

/// Drives the service in rounds. In a round, kRoundQueries callers each
/// send one query and wait for its reply, and one mutation batch rides
/// along: the generator submits them all at once, then waits for every
/// reply. The round's answers are checked after it, while the service
/// idles, so checks never compete with the service for CPUs or memory
/// bandwidth and the service is timed alone.
class ServeDriver {
  public:
    ServeDriver(const Config& cfg, Tracer& tracer, VersionedGraphStore& store,
                GraphService& svc, const std::vector<vertex_t>& pool)
        : cfg_(cfg),
          tracer_(tracer),
          store_(store),
          svc_(svc),
          pool_(pool),
          rng_(cfg.seed ^ 0x7365727665ULL) {}

    /// Runs rounds, checks included, for cfg.seconds (at least one).
    void run() {
        const auto start = clock::now();
        do {
            round();
        } while (since(start) < cfg_.seconds);
        close_wave();
    }

    [[nodiscard]] const ServeLog& log() const { return log_; }
    [[nodiscard]] const Tally& outcome() const { return outcome_; }

  private:
    void round() {
        ScopedSpan span(tracer_, "round", "bench");
        std::vector<Request> reqs;
        reqs.reserve(kRoundQueries + 1);
        const auto t0 = clock::now();
        for (int i = 0; i < kRoundQueries; ++i) reqs.push_back(submit_query());
        reqs.push_back(submit_mutation());
        for (Request& r : reqs) r.res = r.future.get();
        log_.busy_s += since(t0);

        const auto c0 = clock::now();
        for (const Request& r : reqs) {
            trace_request(r, span.id());
            resolve(r, span.id());
        }
        log_.check_s += since(c0);
    }

    Request submit_query() {
        Request r;
        r.req = ++next_req_;
        r.query_index = queries_++;
        r.root = pool_[rng_.next_below(pool_.size())];
        r.pin = store_.acquire();
        r.submit_begin = clock::now();
        r.future = svc_.submit(r.root).result;
        r.submit_end = clock::now();
        return r;
    }

    Request submit_mutation() {
        std::vector<Edge> ops;
        MutationBatch batch;
        const vertex_t n = store_.num_vertices();
        while (ops.size() < kOpsPerBatch) {
            const auto u = static_cast<vertex_t>(rng_.next_below(n));
            const auto v = static_cast<vertex_t>(rng_.next_below(n));
            if (u == v) continue;
            ops.push_back({u, v});
            batch.insert(u, v);
        }
        batches_.push_back(std::move(ops));
        Request r;
        r.mutation = true;
        r.req = ++next_req_;
        r.batch = batches_.size();
        r.submit_begin = clock::now();
        r.future = svc_.submit_mutation(std::move(batch)).result;
        r.submit_end = clock::now();
        return r;
    }

    /// Edges of the batches published after version `from` up to and
    /// including version `to` (batch k publishes version k + 1).
    std::vector<Edge> edges_between(std::uint64_t from, std::uint64_t to) const {
        std::vector<Edge> out;
        for (std::uint64_t k = from; k + 1 <= to && k <= batches_.size(); ++k)
            out.insert(out.end(), batches_[k - 1].begin(), batches_[k - 1].end());
        return out;
    }

    /// Logs and checks one resolved request. A query is checked against
    /// the snapshot pinned at submit plus the batches published between
    /// the pin and the answer's version.
    void resolve(const Request& r, std::uint64_t round_span) {
        const QueryResult& res = r.res;
        ++outcome_.attempted;
        if (r.mutation) {
            if (res.outcome != Outcome::kCompleted || res.snapshot_version != r.batch + 1)
                fail("mutation batch " + std::to_string(r.batch) + " resolved " +
                     service::to_string(res.outcome) + " at version " +
                     std::to_string(res.snapshot_version));
            log_.write_ms.push_back(res.latency_seconds() * 1e3);
            return;
        }
        ++log_.queries;
        if (!res.answered()) {
            fail("query resolved " + std::string(service::to_string(res.outcome)));
            // A failed request misses every latency limit.
            log_.response_ms.push_back(1e12);
            return;
        }
        const double response = res.latency_seconds();
        log_.response_ms.push_back(response * 1e3);
        log_.wait_s += res.wait_seconds;
        log_.run_s += res.run_seconds;
        log_.response_s += response;
        log_.run_ms.push_back(res.run_seconds * 1e3);
        log_.staleness.push_back(
            static_cast<double>(store_.version() - res.snapshot_version));
        log_.levels.push_back(res.num_levels);

        ScopedSpan s(tracer_, "check", "bench", round_span, r.req);
        const CsrGraph& g = r.pin.graph();
        const std::uint64_t pinned = r.pin.version();
        std::uint64_t arcs = 0;
        std::string err;
        if (res.snapshot_version < pinned) {
            err = "answer version older than the snapshot pinned at submit";
        } else {
            const Answer a{r.root, res.level, {}, res.vertices_visited, res.num_levels};
            err = check_summary(g, a, &arcs);
            if (err.empty() && r.query_index % kFullCheckEvery == 0)
                err = check_full(g, edges_between(pinned, res.snapshot_version), a,
                                 nproc());
        }
        if (!err.empty())
            fail("root " + std::to_string(r.root) + " at version " +
                 std::to_string(res.snapshot_version) + ": " + err);
        log_.teps.push_back(static_cast<double>(arcs) / 2.0 / response);
    }

    void fail(const std::string& what) {
        ++outcome_.failed;
        log_failure(logged_, what);
    }

    /// Request spans from the service's own wait/run split: submit, queue
    /// wait, then run (wave or mutation apply). Batched answers
    /// dispatched together share a wave id, recovered from their
    /// dispatch instants.
    void trace_request(const Request& r, std::uint64_t round_span) {
        if (!tracer_.enabled()) return;
        const QueryResult& res = r.res;
        // One track per request in flight (never more than ~70 at once),
        // so a request's spans nest on their own row.
        const int track = kRequestTracks + static_cast<int>(r.req % 128);
        const std::uint64_t begin = tracer_.ns(r.submit_begin);
        const std::uint64_t submitted = tracer_.ns(r.submit_end);
        const auto done = r.submit_begin + std::chrono::duration_cast<clock::duration>(
                                               std::chrono::duration<double>(
                                                   res.latency_seconds()));
        const std::uint64_t end = std::max(submitted, tracer_.ns(done));
        const std::uint64_t dispatched = std::clamp<std::uint64_t>(
            begin + static_cast<std::uint64_t>(res.wait_seconds * 1e9), submitted, end);

        const std::uint64_t id = tracer_.add(r.mutation ? "mutation" : "query",
                                             "bench", track, begin, end, round_span,
                                             r.req);
        tracer_.add(r.mutation ? "submit_mutation" : "submit", "service", track,
                    begin, submitted, id, r.req);
        tracer_.add("queue_wait", "service", track, submitted, dispatched, id, r.req);
        if (r.mutation) {
            tracer_.add("apply", "stream", track, dispatched, end, id, r.req);
            return;
        }
        std::uint64_t wave = 0;
        if (res.batched) {
            if (wave_ == 0 || dispatched > wave_dispatch_ + kWaveGapNs) {
                close_wave();
                wave_ = tracer_.new_id();
                wave_dispatch_ = dispatched;
                wave_end_ = end;
            }
            wave = wave_;
            wave_end_ = std::max(wave_end_, end);
        }
        SpanRecord run;
        run.name = res.batched ? "wave_run" : "run";
        run.layer = "service";
        run.track = track;
        run.start_ns = dispatched;
        run.end_ns = end;
        run.id = tracer_.new_id();
        run.parent = id;
        run.req = r.req;
        run.wave = wave;
        tracer_.record(std::move(run));
    }

    void close_wave() {
        if (wave_ == 0) return;
        SpanRecord w;
        w.name = "wave";
        w.layer = "service";
        w.track = kWaveTrack;
        w.start_ns = wave_dispatch_;
        w.end_ns = wave_end_;
        w.id = wave_;
        w.wave = wave_;
        w.overlay = true;
        tracer_.record(std::move(w));
        wave_ = 0;
    }

    /// Dispatch instants of one wave's members differ only by the
    /// submit-call jitter.
    static constexpr std::uint64_t kWaveGapNs = 200'000;

    const Config& cfg_;
    Tracer& tracer_;
    VersionedGraphStore& store_;
    GraphService& svc_;
    const std::vector<vertex_t>& pool_;
    Xoshiro256 rng_;
    std::vector<std::vector<Edge>> batches_;
    std::uint64_t next_req_ = 0;
    std::uint64_t queries_ = 0;
    Tally outcome_;
    int logged_ = 0;
    ServeLog log_;
    std::uint64_t wave_ = 0, wave_dispatch_ = 0, wave_end_ = 0;
};

Pass serve_pass(const Config& cfg, EdgeList& edges, Tracer& tracer,
                bool traced, bool release_edges) {
    Pass pass;
    Metrics& m = pass.m;
    SetupTimes st;
    std::unique_ptr<VersionedGraphStore> store;
    std::unique_ptr<GraphService> svc;
    std::vector<vertex_t> pool;

    ServiceOptions so;
    so.bfs.threads = cfg.threads;

    for (int k = 0; k < kSetups; ++k) {
        svc.reset();
        store.reset();

        ScopedSpan setup(tracer, "setup", "bench");
        const auto t0 = clock::now();
        CsrGraph graph;
        {
            ScopedSpan s(tracer, "csr_from_edges", "graph", setup.id());
            graph = csr_from_edges(edges);
        }
        st.build.push_back(since(t0));
        if (pool.empty()) pool = draw_roots(graph, kServeRootPool, cfg.seed);
        const auto t1 = clock::now();
        {
            ScopedSpan s(tracer, "VersionedGraphStore", "stream", setup.id());
            store = std::make_unique<VersionedGraphStore>(graph);
        }
        st.store.push_back(since(t1));
        graph = CsrGraph{};
        const auto t2 = clock::now();
        {
            ScopedSpan s(tracer, "GraphService", "service", setup.id());
            svc = std::make_unique<GraphService>(*store, so);
        }
        QueryResult first;
        {
            ScopedSpan s(tracer, "first_query", "service", setup.id());
            first = svc->submit(pool[0]).result.get();
        }
        st.first_query.push_back(since(t2));
        tally_answer(pass.outcome, store->acquire().graph(), pool[0], first);
    }
    if (release_edges) edges = EdgeList{};
    st.report(m);

    ServeDriver driver(cfg, tracer, *store, *svc, pool);
    const ProcSample p0 = proc_sample();
    driver.run();
    const ProcSample p1 = proc_sample();
    // Memory is read at a known state: two requests for one root ride one
    // wave, which leaves the worker's per-lane buffers one lane wide
    // whatever width the last wave had, and the retired snapshots the
    // last requests unpinned are freed (otherwise that waits for the next
    // publish).
    {
        const SnapshotRef pin = store->acquire();
        auto a = svc->submit(pool[0]).result;
        auto b = svc->submit(pool[0]).result;
        for (auto* f : {&a, &b}) tally_answer(pass.outcome, pin.graph(), pool[0], f->get());
    }
    store->reclaim();
    m["mem_mb"] = mem_mb();
    m["proc.rss_mb"] = rss_mb();
    svc->stop();

    const ServeLog& log = driver.log();
    pass.outcome.attempted += driver.outcome().attempted;
    pass.outcome.failed += driver.outcome().failed;

    m["latency_p50_ms"] = percentile(log.response_ms, 0.5);
    m["latency_p90_ms"] = percentile(log.response_ms, 0.9);
    m["latency_p99_ms"] = percentile(log.response_ms, 0.99);
    m["teps_hmean"] = harmonic_mean(log.teps);
    m["qps"] = static_cast<double>(log.queries) / log.busy_s;
    m["bench.samples"] = static_cast<double>(log.response_ms.size());
    m["bench.check_s"] = log.check_s;
    m["service.wait_frac"] = log.wait_s / log.response_s;
    m["service.run_frac"] = log.run_s / log.response_s;
    m["service.write_p50_ms"] = summarize(log.write_ms).median;
    m["stream.write_rate"] = 1e3 / summarize(log.write_ms).median;
    m["stream.staleness_p50"] = summarize(log.staleness).median;
    report_proc(p0, p1, m);

    const auto& c = svc->counters();
    m["service.roots_per_wave"] =
        c.waves.load() > 0 ? static_cast<double>(c.wave_roots.load()) /
                                 static_cast<double>(c.waves.load())
                           : 0.0;
    m["service.shed"] = static_cast<double>(c.shed.load());
    m["service.degraded"] = static_cast<double>(c.degraded.load());
    m["service.cancelled"] = static_cast<double>(c.cancelled.load());
    const auto& sc = store->counters();
    m["stream.rebuilds"] = static_cast<double>(sc.rebuilds.load());
    m["stream.snapshots_published"] = static_cast<double>(sc.snapshots_published.load());
    m["core.levels"] = summarize(log.levels).median;
    m["graph.resident_mb"] =
        static_cast<double>(store->acquire().graph().memory_bytes()) / kMiB;
    zero_layers(m, false, true);
    if (!traced) return pass;

    // Layer probes with the service stopped: direct MS-BFS waves on the
    // final snapshot, and direct applies on the bench's own store.
    {
        const SnapshotRef snap = store->acquire();
        const CsrGraph& g = snap.graph();
        BfsOptions bo;
        bo.threads = cfg.threads;
        BfsRunner runner(bo);
        BfsResult warm;
        runner.run_into(warm, g, pool[0]);
        LevelTotals totals;
        std::uint32_t levels = 0;
        const std::span<const vertex_t> roots(pool);
        m["core.msbfs64_ms"] =
            time_msbfs(g, roots.first(kRoots), runner, tracer, &totals, &levels);
        m["core.msbfs64_levels"] = levels;
        m["core.level_us"] = m["core.msbfs64_ms"] * 1e3 / std::max(1u, levels);
        m["core.scan_ratio"] = totals.edges / static_cast<double>(g.num_edges());
        totals.report(m);
        // A wave of a round's width, without the service around it.
        const double wave_ms = time_msbfs(g, roots.first(kRoundQueries), runner, tracer);
        m["service.wave_overhead_frac"] = 1.0 - wave_ms / summarize(log.run_ms).median;
    }

    Xoshiro256 rng(cfg.seed ^ 0x6170706c79ULL);
    std::vector<double> apply_s;
    for (int k = 0; k < 3; ++k) {
        MutationBatch batch;
        for (int i = 0; i < kOpsPerBatch; ++i)
            batch.insert(static_cast<vertex_t>(rng.next_below(store->num_vertices())),
                         static_cast<vertex_t>(rng.next_below(store->num_vertices())));
        const auto t0 = clock::now();
        ScopedSpan s(tracer, "apply", "stream");
        (void)store->apply(batch);
        apply_s.push_back(since(t0));
    }
    m["stream.apply_rate"] = 1.0 / summarize(apply_s).median;
    return pass;
}

Pass run_pass(const Config& cfg, Kind kind, EdgeList& edges, Tracer& tracer,
              bool traced, bool release_edges) {
    return kind == Kind::kServe
               ? serve_pass(cfg, edges, tracer, traced, release_edges)
               : bfs_pass(cfg, kind, edges, tracer, traced, release_edges);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"rmat-bfs", "grid-bfs",
                                                "rmat-serve"};
    return names;
}

void print_working_sets(std::size_t llc_bytes) {
    // Nominal sizes before duplicate removal: CSR offsets + targets, plus
    // the per-query parent, level and visited state.
    const auto line = [&](const char* name, double n, double arcs,
                          double extra_state, const char* note) {
        const double graph = 8.0 * n + 4.0 * arcs;
        const double state = 8.0 * n + n / 8.0 + extra_state;
        const double total = graph + state;
        std::printf("# working set %-12s n=%.0f arcs<=%.0f  graph %.0f MB + state %.0f MB"
                    " = %.0f MB = %.2fx LLC%s\n",
                    name, n, arcs, graph / kMiB, state / kMiB, total / kMiB,
                    llc_bytes > 0 ? total / static_cast<double>(llc_bytes) : 0.0,
                    note);
    };
    const double nr = std::ldexp(1.0, kRmatScale);
    const double ns = std::ldexp(1.0, kServeScale);
    const double ng = static_cast<double>(kGridSide) * kGridSide;
    line("rmat-bfs", nr, 2.0 * kEdgeFactor * nr, 0, "");
    line("grid-bfs", ng, 4.0 * ng, 0, "");
    line("rmat-serve", ns, 2.0 * kEdgeFactor * ns, 3.0 * 8.0 * ns,
         " (+ 64-lane MS-BFS state)");
}

Tally run_workload(const Config& cfg, Tracer& tracer, Metrics& metrics) {
    const Kind kind = kind_of(cfg.workload);
    const bool traced = tracer.enabled();

    const auto g0 = clock::now();
    EdgeList edges;
    {
        ScopedSpan s(tracer, "generate", "bench");
        edges = generate_inputs(kind, cfg.seed, nproc());
    }
    const double gen_s = since(g0);
    std::printf("# generated %s: %u vertices, %zu input edges in %.3f s\n",
                cfg.workload.c_str(), edges.num_vertices(), edges.num_edges(), gen_s);

    Tally total;
    if (!traced) {
        Pass p = run_pass(cfg, kind, edges, tracer, false, true);
        metrics = std::move(p.m);
        total = p.outcome;
    } else {
        // The traced run measures the same workload twice, each pass for
        // half the time: untraced for the overhead baseline, then traced
        // with per-level stats on.
        Config half = cfg;
        half.seconds = cfg.seconds / 2;
        Tracer off(false);
        const Pass base = run_pass(half, kind, edges, off, false, false);
        Pass p = run_pass(half, kind, edges, tracer, true, true);
        metrics = std::move(p.m);
        metrics["trace.overhead_frac"] = 1.0 - metrics["qps"] / base.m.at("qps");
        total.attempted = base.outcome.attempted + p.outcome.attempted;
        total.failed = base.outcome.failed + p.outcome.failed;

        const auto wall = tracer.layer_wall_seconds();
        double sum = 0;
        for (const auto& [layer, s] : wall) sum += s;
        for (const char* layer : {"graph", "core", "service", "stream", "bench"}) {
            const auto it = wall.find(layer);
            metrics[std::string(layer) + ".self_frac"] =
                it != wall.end() && sum > 0 ? it->second / sum : 0.0;
        }
    }
    metrics["bench.gen_s"] = gen_s;
    return total;
}

}  // namespace sge::e2e
