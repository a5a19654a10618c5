// Observability subsystem tests: exact counter accounting on a
// hand-built graph across every engine, JSON writer correctness, and
// Chrome trace export well-formedness.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "core/msbfs.hpp"
#include "gen/grid.hpp"
#include "graph/builder.hpp"
#include "runtime/obs.hpp"
#include "test_util.hpp"

namespace sge::test {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON well-formedness checker (recursive descent). The point
// is to prove the exporters emit *parseable* JSON — commas, nesting,
// string escapes — without depending on an external parser.
// ---------------------------------------------------------------------

class JsonChecker {
  public:
    explicit JsonChecker(const std::string& text)
        : p_(text.data()), end_(text.data() + text.size()) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return p_ == end_;  // no trailing garbage
    }

  private:
    bool value() {
        if (p_ == end_) return false;
        switch (*p_) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }

    bool object() {
        ++p_;  // '{'
        skip_ws();
        if (p_ != end_ && *p_ == '}') { ++p_; return true; }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (p_ == end_ || *p_++ != ':') return false;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (p_ == end_) return false;
            if (*p_ == ',') { ++p_; continue; }
            if (*p_ == '}') { ++p_; return true; }
            return false;
        }
    }

    bool array() {
        ++p_;  // '['
        skip_ws();
        if (p_ != end_ && *p_ == ']') { ++p_; return true; }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (p_ == end_) return false;
            if (*p_ == ',') { ++p_; continue; }
            if (*p_ == ']') { ++p_; return true; }
            return false;
        }
    }

    bool string() {
        if (p_ == end_ || *p_ != '"') return false;
        ++p_;
        while (p_ != end_) {
            const char c = *p_++;
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c == '\\') {
                if (p_ == end_) return false;
                const char e = *p_++;
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (p_ == end_ || !std::isxdigit(
                                static_cast<unsigned char>(*p_)))
                            return false;
                        ++p_;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
        }
        return false;
    }

    bool number() {
        const char* start = p_;
        if (p_ != end_ && *p_ == '-') ++p_;
        while (p_ != end_ &&
               (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                *p_ == 'e' || *p_ == 'E' || *p_ == '+' || *p_ == '-'))
            ++p_;
        return p_ != start;
    }

    bool literal(const char* word) {
        for (const char* w = word; *w; ++w) {
            if (p_ == end_ || *p_ != *w) return false;
            ++p_;
        }
        return true;
    }

    void skip_ws() {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r'))
            ++p_;
    }

    const char* p_;
    const char* end_;
};

/// The hand-built 8-vertex fixture: a connected diamond-chain whose
/// exact arc count (18) and structure every counter test relies on.
///
///     0 - 1        4 - 5
///     |   |  3 --- |   |
///     2 --+        6 - 7
CsrGraph eight_vertex_graph() {
    EdgeList edges(8);
    edges.add(0, 1);
    edges.add(0, 2);
    edges.add(1, 3);
    edges.add(2, 3);
    edges.add(3, 4);
    edges.add(4, 5);
    edges.add(4, 6);
    edges.add(5, 7);
    edges.add(6, 7);
    return csr_from_edges(edges);  // symmetrized: 18 arcs
}

struct Totals {
    std::uint64_t frontier = 0;
    std::uint64_t edges = 0;
    std::uint64_t checks = 0;
    std::uint64_t atomics = 0;
    std::uint64_t skips = 0;
    std::uint64_t wins = 0;
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t occupancy = 0;
    std::uint64_t barrier_ns = 0;
};

Totals sum_levels(const std::vector<BfsLevelStats>& levels) {
    Totals t;
    for (const BfsLevelStats& s : levels) {
        t.frontier += s.frontier_size;
        t.edges += s.edges_scanned;
        t.checks += s.bitmap_checks;
        t.atomics += s.atomic_ops;
        t.skips += s.bitmap_skips;
        t.wins += s.atomic_wins;
        t.pushed += s.batches_pushed;
        t.popped += s.batches_popped;
        t.barrier_ns += s.barrier_wait_ns;
        for (std::size_t b = 0; b < kBatchOccupancyBuckets; ++b)
            t.occupancy += s.batch_occupancy[b];
    }
    return t;
}

/// Cross-engine counter invariants on the 8-vertex fixture.
void check_invariants(const BfsResult& r, const CsrGraph& g,
                      bool engine_has_atomics) {
    const std::uint64_t n = g.num_vertices();
    ASSERT_EQ(r.vertices_visited, n);
    ASSERT_FALSE(r.level_stats.empty());
    const Totals t = sum_levels(r.level_stats);

    // Every vertex is expanded in exactly one frontier.
    EXPECT_EQ(t.frontier, n);
    // Every arc is scanned exactly once (each endpoint expands once).
    EXPECT_EQ(t.edges, g.num_edges());

    // Every non-root vertex is claimed exactly once, whatever the
    // claiming mechanism (atomic or plain).
    EXPECT_EQ(t.wins, n - 1);
    if (engine_has_atomics) {
        EXPECT_LE(t.wins, t.atomics);
    } else {
        EXPECT_EQ(t.atomics, 0u);
    }
    // The occupancy histogram tallies exactly the pushed batches.
    EXPECT_EQ(t.occupancy, t.pushed);
}

BfsOptions engine_options(BfsEngine engine, int threads) {
    BfsOptions options;
    options.engine = engine;
    options.threads = threads;
    // Two emulated sockets so the multisocket engine actually exercises
    // its channels on this 1-socket host.
    options.topology = Topology::emulate(2, 2, 1);
    options.collect_stats = true;
    return options;
}

// ---------------------------------------------------------------------
// Exact counts per engine.
// ---------------------------------------------------------------------

TEST(ObsCounters, SerialExactCounts) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kSerial, 1));
    check_invariants(r, g, /*engine_has_atomics=*/false);
    // Serial: every adjacency entry is either a fresh claim or an
    // already-visited skip.
    const Totals t = sum_levels(r.level_stats);
    EXPECT_EQ(t.skips + t.wins, t.checks);
}

TEST(ObsCounters, NaiveExactCounts) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kNaive, 4));
    check_invariants(r, g, /*engine_has_atomics=*/true);
    // Algorithm 1 has no cheap pre-test: every check escalates.
    const Totals t = sum_levels(r.level_stats);
    EXPECT_EQ(t.atomics, t.checks);
    EXPECT_EQ(t.skips, 0u);
}

TEST(ObsCounters, BitmapExactCounts) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kBitmap, 4));
    check_invariants(r, g, /*engine_has_atomics=*/true);
    // Double check: every bitmap query either filters (skip) or
    // escalates to the atomic — the Figure 4 identity.
    const Totals t = sum_levels(r.level_stats);
    EXPECT_EQ(t.skips + t.atomics, t.checks);
}

TEST(ObsCounters, BitmapNoDoubleCheckHasNoSkips) {
    const CsrGraph g = eight_vertex_graph();
    BfsOptions options = engine_options(BfsEngine::kBitmap, 4);
    options.bitmap_double_check = false;
    const BfsResult r = bfs(g, 0, options);
    check_invariants(r, g, /*engine_has_atomics=*/true);
    const Totals t = sum_levels(r.level_stats);
    EXPECT_EQ(t.skips, 0u);
    EXPECT_EQ(t.atomics, t.checks);
}

TEST(ObsCounters, MultisocketExactCounts) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r =
        bfs(g, 0, engine_options(BfsEngine::kMultiSocket, 4));
    check_invariants(r, g, /*engine_has_atomics=*/true);
    const Totals t = sum_levels(r.level_stats);
    std::uint64_t remote = 0;
    for (const BfsLevelStats& s : r.level_stats) remote += s.remote_tuples;
    // The 3-4 bridge crosses the two-socket partition boundary, so at
    // least one tuple must travel through a channel...
    EXPECT_GT(remote, 0u);
    // ...and shipped tuples arrive in counted batches on both ends.
    EXPECT_GT(t.pushed, 0u);
    EXPECT_GT(t.popped, 0u);
}

TEST(ObsCounters, HybridExactCounts) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kHybrid, 4));
    const std::uint64_t n = g.num_vertices();
    ASSERT_EQ(r.vertices_visited, n);
    ASSERT_FALSE(r.level_stats.empty());
    const Totals t = sum_levels(r.level_stats);
    EXPECT_EQ(t.frontier, n);
    // The wins invariant holds even across direction switches.
    EXPECT_EQ(t.wins, n - 1);
    EXPECT_LE(t.wins, t.atomics);
}

TEST(ObsCounters, ParallelEnginesRecordBarrierWait) {
    // Use a larger graph so several levels run: with >= 2 threads and
    // two barriers per level some worker always waits a measurable time.
    const CsrGraph g = path_graph(256);
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kBitmap, 4));
    EXPECT_GT(sum_levels(r.level_stats).barrier_ns, 0u);
}

TEST(ObsCounters, ThreadSpansCoverEveryLevel) {
    const CsrGraph g = eight_vertex_graph();
    const int threads = 4;
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kBitmap, threads));
    // One span per thread per level, each well-ordered.
    ASSERT_EQ(r.thread_spans.size(),
              static_cast<std::size_t>(threads) * r.num_levels);
    for (const BfsThreadSpan& s : r.thread_spans) {
        EXPECT_LT(s.thread, threads);
        EXPECT_LT(s.level, r.num_levels);
        EXPECT_LE(s.start_ns, s.end_ns);
    }
}

TEST(ObsCounters, StatsOffCollectsNothing) {
    const CsrGraph g = eight_vertex_graph();
    BfsOptions options = engine_options(BfsEngine::kBitmap, 4);
    options.collect_stats = false;
    const BfsResult r = bfs(g, 0, options);
    EXPECT_TRUE(r.level_stats.empty());
    EXPECT_TRUE(r.thread_spans.empty());
}

TEST(ObsCounters, MsBfsLevelStats) {
    const CsrGraph g = eight_vertex_graph();
    std::vector<BfsLevelStats> levels;
    MsBfsOptions options;
    options.threads = 2;
    options.collect_stats = true;
    options.level_stats = &levels;
    const std::vector<vertex_t> sources{0, 7};
    // Both workers report discoveries, so the deepest level is raised
    // with a CAS.
    std::atomic<std::uint32_t> max_level{0};
    const std::uint32_t ran = multi_source_bfs(
        g, sources,
        [&](int, level_t level, vertex_t, std::uint64_t) {
            std::uint32_t seen = max_level.load(std::memory_order_relaxed);
            while (seen < level &&
                   !max_level.compare_exchange_weak(
                       seen, level, std::memory_order_relaxed)) {
            }
        },
        options);
    ASSERT_EQ(levels.size(), ran);
    // Levels 0..D report vertices and the last level finds none.
    EXPECT_EQ(max_level.load() + 1, ran);
    EXPECT_EQ(levels[0].frontier_size, sources.size());
    std::uint64_t edges = 0;
    for (const BfsLevelStats& s : levels) edges += s.edges_scanned;
    EXPECT_GT(edges, 0u);
    std::uint64_t wins = 0;
    for (const BfsLevelStats& s : levels) wins += s.atomic_wins;
    EXPECT_GT(wins, 0u);
}

/// Backticked names in the first cell of each table row under
/// docs/OBSERVABILITY.md's "Counter glossary" heading, in order.
std::vector<std::string> glossary_fields() {
    std::ifstream doc(SGE_OBSERVABILITY_DOC);
    std::vector<std::string> fields;
    bool in_glossary = false;
    for (std::string line; std::getline(doc, line);) {
        if (line.rfind("## ", 0) == 0)
            in_glossary = line == "## Counter glossary";
        if (!in_glossary || line.rfind("| `", 0) != 0) continue;
        const std::string cell = line.substr(0, line.find('|', 1));
        for (std::size_t open = cell.find('`'); open != std::string::npos;) {
            const std::size_t close = cell.find('`', open + 1);
            if (close == std::string::npos) break;
            fields.push_back(cell.substr(open + 1, close - open - 1));
            open = cell.find('`', close + 1);
        }
    }
    return fields;
}

TEST(ObsCounters, GlossaryMatchesCounterList) {
    // Every row is documented, every documented field is a row, and the
    // glossary follows the list's order.
    std::vector<std::string> listed;
    for (const LevelCounterRow& row : kLevelCounterRows)
        listed.emplace_back(row.name);
    EXPECT_EQ(glossary_fields(), listed)
        << "docs/OBSERVABILITY.md's glossary vs core/level_counters.def";
}

TEST(ObsCounters, CoreCountersNonzeroOnEveryEngineAndBackend) {
    // Every engine and MS-BFS, on every backend, counts its frontiers,
    // scanned edges and visited checks. Connected, and big enough for 64
    // MS-BFS lanes.
    GridParams grid;
    grid.width = 16;
    grid.height = 16;
    const CsrGraph g = csr_from_edges(generate_grid(grid));
    const auto check = [](const std::string& run,
                          const std::vector<BfsLevelStats>& levels) {
        SCOPED_TRACE(run);
        const Totals t = sum_levels(levels);
        EXPECT_GT(t.frontier, 0u);
        EXPECT_GT(t.edges, 0u);
        EXPECT_GT(t.checks, 0u);
    };

    struct Engine {
        BfsEngine engine;
        int threads;
        Topology topology;
    };
    std::vector<vertex_t> sources(64);
    std::iota(sources.begin(), sources.end(), vertex_t{0});
    for (int backend = 0; backend < test::kBackends; ++backend) {
        const std::string name = test::kBackendNames[backend];
        test::with_backend(backend, g, [&](const auto& graph) {
            for (const Engine& e :
                 {Engine{BfsEngine::kSerial, 1, Topology::emulate(1, 1, 1)},
                  Engine{BfsEngine::kNaive, 2, Topology::emulate(1, 2, 1)},
                  Engine{BfsEngine::kBitmap, 2, Topology::emulate(1, 2, 1)},
                  Engine{BfsEngine::kHybrid, 2, Topology::emulate(1, 2, 1)},
                  Engine{BfsEngine::kMultiSocket, 2,
                         Topology::emulate(2, 1, 1)}}) {
                BfsOptions options;
                options.engine = e.engine;
                options.threads = e.threads;
                options.topology = e.topology;
                options.collect_stats = true;
                check(to_string(e.engine) + "/" + name,
                      bfs(graph, 0, options).level_stats);
            }

            std::vector<BfsLevelStats> levels;
            MsBfsOptions options;
            options.threads = 2;
            options.topology = Topology::emulate(1, 2, 1);
            options.collect_stats = true;
            options.level_stats = &levels;
            multi_source_bfs(
                graph, sources, [](int, level_t, vertex_t, std::uint64_t) {},
                options);
            check("msbfs/" + name, levels);
        });
    }
}

// ---------------------------------------------------------------------
// Occupancy bucket math.
// ---------------------------------------------------------------------

TEST(ObsBuckets, BatchOccupancyBucket) {
    EXPECT_EQ(batch_occupancy_bucket(64, 64), kBatchOccupancyBuckets - 1);
    EXPECT_EQ(batch_occupancy_bucket(1, 64), 0u);
    EXPECT_EQ(batch_occupancy_bucket(8, 64), 0u);    // 12.5% full
    EXPECT_EQ(batch_occupancy_bucket(9, 64), 1u);    // just over 1/8
    EXPECT_EQ(batch_occupancy_bucket(33, 64), 4u);   // just over half
    EXPECT_EQ(batch_occupancy_bucket(0, 64), 0u);    // degenerate
    EXPECT_EQ(batch_occupancy_bucket(64, 0), 0u);    // degenerate
    EXPECT_EQ(batch_occupancy_bucket(100, 64),       // clamped
              kBatchOccupancyBuckets - 1);
    // Bucketing is by (size-1)/capacity, so a lone tuple is always
    // bucket 0 even when it fills the batch.
    EXPECT_EQ(batch_occupancy_bucket(1, 1), 0u);
}

// ---------------------------------------------------------------------
// JSON writer.
// ---------------------------------------------------------------------

TEST(ObsJson, WriterProducesExpectedText) {
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("name", "bfs \"fast\"\n");
    w.field("count", std::uint64_t{42});
    w.field("delta", std::int64_t{-7});
    w.field("ratio", 0.5);
    w.field("ok", true);
    w.key("items");
    w.begin_array();
    w.value(std::uint64_t{1});
    w.value(std::uint64_t{2});
    w.end_array();
    w.key("nested");
    w.begin_object();
    w.end_object();
    w.end_object();
    EXPECT_EQ(out.str(),
              "{\"name\":\"bfs \\\"fast\\\"\\n\",\"count\":42,\"delta\":-7,"
              "\"ratio\":0.5,\"ok\":true,\"items\":[1,2],\"nested\":{}}");
    EXPECT_TRUE(JsonChecker(out.str()).valid());
}

TEST(ObsJson, NonFiniteDoublesBecomeNull) {
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_array();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.end_array();
    EXPECT_EQ(out.str(), "[null,null]");
}

TEST(ObsJson, EscapeControlCharacters) {
    EXPECT_EQ(obs::json_escape("a\tb"), "a\\tb");
    EXPECT_EQ(obs::json_escape("a\x01z"), "a\\u0001z");
    EXPECT_EQ(obs::json_escape("slash\\quote\""), "slash\\\\quote\\\"");
}

// ---------------------------------------------------------------------
// Chrome trace export.
// ---------------------------------------------------------------------

std::string trace_to_string(const obs::ChromeTrace& trace) {
    std::ostringstream out;
    trace.write(out);
    return out.str();
}

TEST(ObsTrace, HandBuiltTraceIsWellFormed) {
    obs::ChromeTrace trace;
    trace.set_process_name("test");
    trace.set_thread_name(0, "worker 0");
    trace.add_span(0, "level 0", 1000, 2500, {{"level", 0}});
    trace.add_counter("frontier", 1000, {{"vertices", 12}});
    const std::string text = trace_to_string(trace);
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ObsTrace, BfsTraceFromInstrumentedRun) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kBitmap, 4));
    const obs::ChromeTrace trace = make_bfs_trace(r, "bfs-test");
    EXPECT_EQ(trace.span_count(), r.thread_spans.size());
    EXPECT_TRUE(JsonChecker(trace_to_string(trace)).valid());
}

TEST(ObsTrace, SerialRunSynthesizesLevelTrack) {
    const CsrGraph g = eight_vertex_graph();
    const BfsResult r = bfs(g, 0, engine_options(BfsEngine::kSerial, 1));
    ASSERT_TRUE(r.thread_spans.empty());
    const obs::ChromeTrace trace = make_bfs_trace(r);
    EXPECT_EQ(trace.span_count(), r.level_stats.size());
    EXPECT_TRUE(JsonChecker(trace_to_string(trace)).valid());
}

TEST(ObsTrace, UninstrumentedRunYieldsEmptyTrace) {
    const CsrGraph g = eight_vertex_graph();
    BfsOptions options = engine_options(BfsEngine::kBitmap, 2);
    options.collect_stats = false;
    const BfsResult r = bfs(g, 0, options);
    const obs::ChromeTrace trace = make_bfs_trace(r);
    EXPECT_EQ(trace.span_count(), 0u);
    EXPECT_TRUE(JsonChecker(trace_to_string(trace)).valid());
}

}  // namespace
}  // namespace sge::test
