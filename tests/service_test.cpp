#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "concurrency/cancel_token.hpp"
#include "core/bfs.hpp"
#include "core/level_driver.hpp"
#include "core/msbfs.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "runtime/fault.hpp"
#include "runtime/prng.hpp"
#include "runtime/stats.hpp"
#include "service/admission.hpp"
#include "service/graph_service.hpp"
#include "stream/versioned_store.hpp"
#include "test_util.hpp"

#include <map>

namespace sge {
namespace {

using fault::Site;
using fault::Trigger;
using service::AdmissionQueue;
using service::GraphService;
using service::Outcome;
using service::PendingQuery;
using service::QueryResult;
using service::ServiceOptions;
using service::SubmitResult;
using test::path_graph;

CsrGraph rmat_test_graph(std::uint32_t scale, std::uint64_t edges,
                         std::uint64_t seed) {
    RmatParams params;
    params.scale = scale;
    params.num_edges = edges;
    params.seed = seed;
    return csr_from_edges(generate_rmat(params));
}

std::vector<level_t> serial_levels(const CsrGraph& g, vertex_t root) {
    BfsOptions options;
    options.engine = BfsEngine::kSerial;
    options.threads = 1;
    options.compute_levels = true;
    return bfs(g, root, options).level;
}

BfsOptions parallel_options(BfsEngine engine) {
    BfsOptions options;
    options.engine = engine;
    options.threads = 4;
    options.topology = Topology::emulate(2, 2, 1);
    options.compute_levels = true;
    return options;
}

// ---------------------------------------------------------------------
// CancelToken primitive.
// ---------------------------------------------------------------------

TEST(CancelTokenTest, ManualCancelIsStickyAndResettable) {
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.poll());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.poll());
    EXPECT_TRUE(token.poll());  // sticky
    token.reset();
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.poll());
}

TEST(CancelTokenTest, FiresOnNthPoll) {
    CancelToken token;
    token.fire_after_polls(3);
    EXPECT_FALSE(token.poll());
    EXPECT_FALSE(token.poll());
    EXPECT_TRUE(token.poll());  // third poll fires
    EXPECT_TRUE(token.cancelled());
    token.reset();
    token.fire_after_polls(0);  // disarmed
    for (int i = 0; i < 10; ++i) EXPECT_FALSE(token.poll());
}

TEST(CancelTokenTest, DeadlineFiresOnPoll) {
    using clock = CancelToken::clock;
    CancelToken token;
    EXPECT_EQ(token.deadline(), clock::time_point::max());  // none
    token.set_deadline_after(-1.0);  // already-spent budget
    EXPECT_TRUE(token.cancelled());

    token.reset();
    token.set_deadline_after(0.005);
    EXPECT_LT(token.deadline(), clock::time_point::max());
    EXPECT_FALSE(token.poll());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(token.cancelled());  // a passed deadline fires on a poll
    EXPECT_TRUE(token.poll());
    EXPECT_TRUE(token.cancelled());

    token.reset();
    EXPECT_EQ(token.deadline(), clock::time_point::max());
}

// ---------------------------------------------------------------------
// Engine-level cancellation: a fired token stops every engine at the
// next level barrier with the partial progress reported, and the
// runner (team + workspace) answers the next query correctly.
// ---------------------------------------------------------------------

class EngineCancelTest : public ::testing::Test {
  protected:
    void SetUp() override { fault::disarm_all(); }
    void TearDown() override { fault::disarm_all(); }
};

TEST_F(EngineCancelTest, SerialStopsAtRequestedLevel) {
    const CsrGraph g = path_graph(512);
    CancelToken token;
    token.fire_after_polls(5);  // engines poll once per level

    BfsOptions options;
    options.engine = BfsEngine::kSerial;
    options.threads = 1;
    options.cancel = &token;
    try {
        bfs(g, 0, options);
        FAIL() << "expected BfsDeadlineError";
    } catch (const BfsDeadlineError& e) {
        EXPECT_EQ(e.level_reached(), 5u);
        EXPECT_GT(e.vertices_settled(), 0u);
        EXPECT_LT(e.vertices_settled(), 512u);
    }

    token.reset();  // same token, next run completes
    const BfsResult full = bfs(g, 0, options);
    EXPECT_EQ(full.vertices_visited, 512u);
}

TEST_F(EngineCancelTest, ParallelEnginesStopMidTraversalAndRunnerIsReusable) {
    const CsrGraph g = path_graph(512);  // 512 levels: plenty to cancel in
    const std::vector<level_t> expected = serial_levels(g, 0);

    for (const BfsEngine engine :
         {BfsEngine::kNaive, BfsEngine::kBitmap, BfsEngine::kMultiSocket,
          BfsEngine::kHybrid}) {
        CancelToken token;
        BfsOptions options = parallel_options(engine);
        options.cancel = &token;
        BfsRunner runner(options);

        token.fire_after_polls(7);
        try {
            runner.run(g, 0);
            FAIL() << "expected BfsDeadlineError for " << to_string(engine);
        } catch (const BfsDeadlineError& e) {
            EXPECT_EQ(e.level_reached(), 7u) << to_string(engine);
            EXPECT_GT(e.vertices_settled(), 0u) << to_string(engine);
            EXPECT_LT(e.vertices_settled(), 512u) << to_string(engine);
        }

        // Cancellation never poisons the barrier or the arena: the SAME
        // runner (team + workspace) must answer the next query exactly.
        token.reset();
        const BfsResult again = runner.run(g, 0);
        EXPECT_EQ(again.vertices_visited, 512u) << to_string(engine);
        ASSERT_EQ(again.level.size(), expected.size()) << to_string(engine);
        EXPECT_EQ(again.level, expected) << to_string(engine);
    }
}

TEST_F(EngineCancelTest, HybridStopAfterEveryLevelLeavesNothingBehind) {
    // A run stopped after k levels leaves bits in `visited` and, once it
    // has gone bottom-up, in a frontier bitmap. The same runner's next
    // query, from another root, must start from zeros at every k.
    const CsrGraph g = rmat_test_graph(12, std::uint64_t{1} << 16, 3);
    ASSERT_TRUE(g.symmetric());
    vertex_t hub = 0;
    for (vertex_t v = 1; v < g.num_vertices(); ++v)
        if (g.degree(v) > g.degree(hub)) hub = v;
    const std::vector<level_t> from_hub = serial_levels(g, hub);
    vertex_t other = 0;
    while (other == hub || from_hub[other] == kInvalidLevel ||
           g.degree(other) == 0)
        ++other;
    const std::vector<level_t> expected = serial_levels(g, other);

    CancelToken token;
    BfsOptions options = parallel_options(BfsEngine::kHybrid);
    options.cancel = &token;
    BfsRunner runner(options);
    const std::uint32_t levels = runner.run(g, hub).num_levels;
    ASSERT_GT(levels, 3u);
    for (std::uint32_t k = 1; k < levels; ++k) {
        token.fire_after_polls(k);
        EXPECT_THROW(runner.run(g, hub), BfsDeadlineError) << "stop " << k;
        token.reset();
        EXPECT_EQ(runner.run(g, other).level, expected) << "stop " << k;
    }
}

TEST_F(EngineCancelTest, MsBfsWaveStopsAllLanesTogether) {
    const CsrGraph g = path_graph(512);
    const std::vector<vertex_t> sources = {0, 100, 200};

    CancelToken token;
    token.fire_after_polls(4);
    MsBfsOptions options;
    options.threads = 2;
    options.cancel = &token;

    std::atomic<std::uint64_t> discoveries{0};
    const auto count = [&discoveries](int, level_t, vertex_t, std::uint64_t) {
        discoveries.fetch_add(1, std::memory_order_relaxed);
    };

    try {
        multi_source_bfs(g, sources, count, options);
        FAIL() << "expected BfsDeadlineError";
    } catch (const BfsDeadlineError& e) {
        EXPECT_EQ(e.level_reached(), 4u);
        // Every visitor call so far, the sources' level-0 calls included.
        EXPECT_EQ(e.vertices_settled(), discoveries.load());
    }
    const std::uint64_t partial = discoveries.load();
    EXPECT_GT(partial, 0u);

    token.reset();  // the wave machinery is reusable after cancellation
    const std::uint32_t levels = multi_source_bfs(g, sources, count, options);
    EXPECT_GT(levels, 0u);
    EXPECT_GT(discoveries.load(), partial);
}

TEST_F(EngineCancelTest, DeadlinesStopRunsAndTheRunnerAnswersExactlyAfter) {
    // Two deadlines per run: one already past when the run starts, which
    // the team enforces before the first level ends, and one a quarter
    // into a run, which lands inside one of this graph's few fat levels
    // (or at a level's end, where thread 0's poll takes it). Either way
    // the run throws, and the same runner's next answer is exact.
    using clock = CancelToken::clock;
    const CsrGraph g = rmat_test_graph(16, 1 << 20, 7);
    const std::vector<level_t> expected = serial_levels(g, 0);
    // The fastest of three full runs of `run`.
    const auto fastest = [](const auto& run) {
        clock::duration best = clock::duration::max();
        for (int i = 0; i < 3; ++i) {
            const auto start = clock::now();
            run();
            best = std::min(best, clock::now() - start);
        }
        return best;
    };

    for (const BfsEngine engine :
         {BfsEngine::kNaive, BfsEngine::kBitmap, BfsEngine::kMultiSocket,
          BfsEngine::kHybrid}) {
        SCOPED_TRACE(to_string(engine));
        CancelToken token;
        BfsOptions options = parallel_options(engine);
        options.cancel = &token;
        BfsRunner runner(options);
        const clock::duration full = fastest([&] { runner.run(g, 0); });
        for (const clock::duration offset : {-full, full / 4}) {
            token.reset();
            token.set_deadline(clock::now() + offset);
            EXPECT_THROW(runner.run(g, 0), BfsDeadlineError);
            token.reset();
            EXPECT_EQ(runner.run(g, 0).level, expected);
        }
    }

    // A 64-lane wave on a runner's team and workspace.
    const CsrGraph wg = rmat_test_graph(14, 1 << 18, 7);
    const vertex_t n = wg.num_vertices();
    std::vector<vertex_t> roots(64);
    std::vector<std::vector<level_t>> want(64);
    for (std::size_t l = 0; l < 64; ++l) {
        roots[l] = static_cast<vertex_t>(l * (n / 64));
        want[l] = serial_levels(wg, roots[l]);
    }
    BfsRunner runner(parallel_options(BfsEngine::kHybrid));
    runner.run(wg, 0);  // creates the workspace the waves share
    CancelToken token;
    MsBfsOptions mo;
    mo.team = runner.team();
    mo.workspace = runner.workspace();
    mo.cancel = &token;
    std::vector<std::vector<level_t>> lanes(64);
    const auto record = [&lanes](int, level_t level, vertex_t v,
                                 std::uint64_t mask) {
        for (; mask != 0; mask &= mask - 1)
            lanes[static_cast<std::size_t>(std::countr_zero(mask))][v] = level;
    };
    const auto wave = [&] {
        for (auto& lane : lanes) lane.assign(n, kInvalidLevel);
        multi_source_bfs(wg, roots, record, mo);
    };
    const clock::duration full = fastest(wave);
    for (const clock::duration offset : {-full, full / 4}) {
        token.reset();
        token.set_deadline(clock::now() + offset);
        EXPECT_THROW(wave(), BfsDeadlineError);
        token.reset();
        wave();
        for (std::size_t l = 0; l < 64; ++l)
            EXPECT_TRUE(lanes[l] == want[l]) << "lane " << l;
    }
}

/// A run_levels step with one level and no discoveries.
struct OneLevelStep {
    bool compacts() const noexcept { return false; }
    bool scan(detail::LevelCtx&) noexcept { return true; }
    vertex_t* next_slots(int) noexcept { return nullptr; }
    std::uint64_t end_level() noexcept { return 0; }
    void plan_next() noexcept {}
    std::string diagnose() const { return {}; }
};

TEST_F(EngineCancelTest, DeadlineAfterTheLastBarrierStopsNobody) {
    // Every worker's finish() outlasts the deadline, so the team aborts
    // the barrier after the level loop's last rendezvous, when nobody
    // waits on it any more. The run completed: it must not be reported
    // as stopped.
    using clock = CancelToken::clock;
    ThreadTeam team(4, Topology::emulate(2, 2, 1));
    BfsWorkspace ws;
    CancelToken token;
    BfsOptions options;
    options.cancel = &token;
    OneLevelStep step;
    const std::uint64_t aborts_before =
        runtime_warnings().barrier_aborts.load();
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(200);
    token.set_deadline(deadline);
    const detail::LevelRun run = detail::run_levels(
        "one_level", options, team, ws, step, 1, {}, [&](int) {
            std::this_thread::sleep_until(deadline +
                                          std::chrono::milliseconds(50));
        });
    EXPECT_EQ(run.levels, 1u);
    EXPECT_EQ(run.visited, 1u);
    EXPECT_EQ(runtime_warnings().barrier_aborts.load() - aborts_before, 1u);
}

// ---------------------------------------------------------------------
// AdmissionQueue: bounded, non-blocking push, batch pop, clean close.
// ---------------------------------------------------------------------

TEST(AdmissionQueueTest, ShedsAtCapacityAndAfterClose) {
    AdmissionQueue queue(2);
    EXPECT_EQ(queue.capacity(), 2u);
    EXPECT_TRUE(queue.try_push(std::make_shared<PendingQuery>()));
    EXPECT_TRUE(queue.try_push(std::make_shared<PendingQuery>()));
    EXPECT_FALSE(queue.try_push(std::make_shared<PendingQuery>()));  // full
    EXPECT_EQ(queue.size(), 2u);

    std::vector<AdmissionQueue::Item> batch;
    EXPECT_EQ(queue.pop_batch(batch, 64, std::chrono::nanoseconds{0}), 2u);
    EXPECT_TRUE(queue.try_push(std::make_shared<PendingQuery>()));  // room again

    queue.close();
    EXPECT_FALSE(queue.try_push(std::make_shared<PendingQuery>()));  // closed
    batch.clear();
    EXPECT_EQ(queue.pop_batch(batch, 64, std::chrono::seconds{1}), 1u);
    EXPECT_EQ(queue.pop_batch(batch, 64, std::chrono::seconds{1}), 0u);  // drained
}

TEST(AdmissionQueueTest, PopBatchFlagsInFlightUnderTheLock) {
    AdmissionQueue queue(8);
    std::atomic<int> in_flight{0};
    EXPECT_TRUE(queue.try_push(std::make_shared<PendingQuery>()));
    std::vector<AdmissionQueue::Item> batch;
    EXPECT_EQ(queue.pop_batch(batch, 64, std::chrono::nanoseconds{0}, &in_flight),
              1u);
    EXPECT_EQ(in_flight.load(), 1);  // caller decrements after resolving
}

// ---------------------------------------------------------------------
// GraphService end to end.
// ---------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
  protected:
    void SetUp() override {
        fault::disarm_all();
        graph_ = rmat_test_graph(11, 8192, 5);
    }
    void TearDown() override { fault::disarm_all(); }

    ServiceOptions base_options() const {
        ServiceOptions options;
        options.bfs = parallel_options(BfsEngine::kBitmap);
        options.workers = 1;
        options.queue_capacity = 256;
        return options;
    }

    CsrGraph graph_;
};

TEST_F(ServiceTest, AnswersMatchTheSerialReference) {
    ServiceOptions options = base_options();
    options.batch_max_roots = 1;
    GraphService svc(graph_, options);

    for (const vertex_t root : {vertex_t{0}, vertex_t{7}, vertex_t{100}}) {
        SubmitResult s = svc.submit(root);
        ASSERT_TRUE(s.admitted);
        const QueryResult r = s.result.get();
        EXPECT_EQ(r.outcome, Outcome::kCompleted);
        EXPECT_FALSE(r.batched);
        EXPECT_EQ(r.root, root);
        EXPECT_EQ(r.level, serial_levels(graph_, root));
    }
    svc.stop();
    EXPECT_EQ(svc.counters().resolved(), svc.counters().submitted.load());
}

TEST_F(ServiceTest, ConcurrentRequestsCoalesceIntoOneWaveBitIdentically) {
    constexpr int kRequests = 40;
    ServiceOptions options = base_options();
    options.batch_max_roots = 64;
    options.batch_window_seconds = 0.5;  // generous: one wave catches all
    GraphService svc(graph_, options);

    std::vector<std::future<QueryResult>> futures;
    std::vector<vertex_t> roots;
    for (int i = 0; i < kRequests; ++i) {
        const auto root = static_cast<vertex_t>(i * 97 % graph_.num_vertices());
        roots.push_back(root);
        SubmitResult s = svc.submit(root);
        ASSERT_TRUE(s.admitted);
        futures.push_back(std::move(s.result));
    }

    for (int i = 0; i < kRequests; ++i) {
        const QueryResult r = futures[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(r.outcome, Outcome::kCompleted) << "request " << i;
        EXPECT_TRUE(r.batched) << "request " << i;
        // Bit-identical to a per-request run: BFS hop distances are
        // unique for (graph, root), so the wave answer must equal the
        // serial answer exactly.
        EXPECT_EQ(r.level, serial_levels(graph_, roots[static_cast<std::size_t>(i)]))
            << "request " << i;
    }
    svc.stop();

    const auto& c = svc.counters();
    EXPECT_GE(c.waves.load(), 1u);
    EXPECT_GE(c.batched.load(), static_cast<std::uint64_t>(kRequests));
    EXPECT_GE(c.wave_roots.load(), 32u);  // distinct roots ridden in waves
    EXPECT_EQ(c.resolved(), c.submitted.load());
}

TEST_F(ServiceTest, DuplicateRootsShareOneLane) {
    ServiceOptions options = base_options();
    options.batch_window_seconds = 0.5;
    GraphService svc(graph_, options);

    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 8; ++i) futures.push_back(svc.submit(3).result);
    futures.push_back(svc.submit(9).result);

    const std::vector<level_t> expected = serial_levels(graph_, 3);
    for (std::size_t i = 0; i < 8; ++i) {
        const QueryResult r = futures[i].get();
        EXPECT_EQ(r.outcome, Outcome::kCompleted);
        EXPECT_EQ(r.level, expected);
    }
    EXPECT_EQ(futures[8].get().level, serial_levels(graph_, 9));
    svc.stop();
    // 9 requests, but at most 2 distinct roots ever entered a wave.
    EXPECT_LE(svc.counters().wave_roots.load(), 2u);
}

TEST_F(ServiceTest, ExpiredDeadlineResolvesCancelled) {
    GraphService svc(graph_, base_options());
    // A microsecond budget is spent before any worker can dispatch: the
    // request must resolve kCancelled — never hang, never burn a run.
    SubmitResult s = svc.submit(0, /*deadline_seconds=*/1e-6);
    ASSERT_TRUE(s.admitted);
    const QueryResult r = s.result.get();
    EXPECT_EQ(r.outcome, Outcome::kCancelled);
    EXPECT_FALSE(r.answered());
    EXPECT_TRUE(r.level.empty());
    svc.stop();
    EXPECT_EQ(svc.counters().cancelled.load(), 1u);
}

TEST_F(ServiceTest, DeadlineInsideARunCancelsAndNeverDegrades) {
    // The deadline is a quarter of the fastest full answer, so it passes
    // while the request's levels run. The stop is a cancellation, not a
    // failure to retry on the serial engine, and the worker's next answer
    // is exact.
    const CsrGraph g = rmat_test_graph(16, 1 << 20, 7);
    ServiceOptions options = base_options();
    options.batch_max_roots = 1;
    GraphService svc(g, options);
    const std::vector<level_t> expected = serial_levels(g, 0);

    double fastest = 1e9;
    for (int i = 0; i < 3; ++i) {
        const QueryResult r = svc.submit(0).result.get();
        ASSERT_EQ(r.outcome, Outcome::kCompleted);
        fastest = std::min(fastest, r.run_seconds);
    }
    const QueryResult late = svc.submit(0, fastest / 4).result.get();
    EXPECT_EQ(late.outcome, Outcome::kCancelled);
    EXPECT_TRUE(late.level.empty());

    const QueryResult next = svc.submit(0).result.get();
    EXPECT_EQ(next.outcome, Outcome::kCompleted);
    EXPECT_EQ(next.level, expected);
    svc.stop();
    EXPECT_EQ(svc.counters().degraded.load(), 0u);
    EXPECT_EQ(svc.counters().cancelled.load(), 1u);
}

TEST_F(ServiceTest, StopDrainsAndSubmitAfterStopSheds) {
    ServiceOptions options = base_options();
    options.batch_window_seconds = 0.0;
    GraphService svc(graph_, options);

    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(
            svc.submit(static_cast<vertex_t>(i % graph_.num_vertices())).result);
    svc.stop();  // drain: every already-submitted future must resolve

    for (auto& f : futures) {
        const QueryResult r = f.get();
        EXPECT_TRUE(r.outcome == Outcome::kCompleted ||
                    r.outcome == Outcome::kDegraded ||
                    r.outcome == Outcome::kCancelled ||
                    r.outcome == Outcome::kShed)
            << to_string(r.outcome);
    }

    SubmitResult late = svc.submit(0);
    EXPECT_FALSE(late.admitted);
    EXPECT_EQ(late.result.get().outcome, Outcome::kShed);

    const auto& c = svc.counters();
    EXPECT_EQ(c.submitted.load(), 101u);
    EXPECT_EQ(c.resolved(), 101u);  // zero lost requests
}

TEST_F(ServiceTest, SubmitRejectsOutOfRangeRoot) {
    GraphService svc(graph_, base_options());
    EXPECT_THROW(svc.submit(graph_.num_vertices()), std::out_of_range);
    svc.stop();
}

// ---------------------------------------------------------------------
// Fault sites: injected failures degrade, never lose requests.
// ---------------------------------------------------------------------

using ServiceFaultTest = ServiceTest;

TEST_F(ServiceFaultTest, SubmitFaultShedsInsteadOfThrowing) {
    GraphService svc(graph_, base_options());
    fault::arm(Site::kServiceSubmit, Trigger{.probability = 0.0, .nth = 1});

    SubmitResult s = svc.submit(0);
    EXPECT_FALSE(s.admitted);
    EXPECT_EQ(s.result.get().outcome, Outcome::kShed);
    fault::disarm_all();

    SubmitResult ok = svc.submit(0);  // site disarmed: service is fine
    ASSERT_TRUE(ok.admitted);
    EXPECT_EQ(ok.result.get().outcome, Outcome::kCompleted);
    svc.stop();
    EXPECT_EQ(svc.counters().shed.load(), 1u);
}

TEST_F(ServiceFaultTest, WorkerFaultDegradesBatchThenRecovers) {
    ServiceOptions options = base_options();
    options.batch_window_seconds = 0.0;
    GraphService svc(graph_, options);

    // First dispatched batch faults: its requests must still be
    // answered (serial retry => kDegraded, correct BFS), the worker
    // rebuilds its runner, and the next request completes normally.
    fault::arm(Site::kServiceWorker, Trigger{.probability = 0.0, .nth = 1});
    SubmitResult s = svc.submit(11);
    ASSERT_TRUE(s.admitted);
    const QueryResult r = s.result.get();
    EXPECT_EQ(r.outcome, Outcome::kDegraded);
    EXPECT_EQ(r.level, serial_levels(graph_, 11));
    fault::disarm_all();

    const QueryResult after = svc.submit(11).result.get();
    EXPECT_EQ(after.outcome, Outcome::kCompleted);
    EXPECT_EQ(after.level, serial_levels(graph_, 11));
    svc.stop();

    const auto& c = svc.counters();
    EXPECT_EQ(c.degraded.load(), 1u);
    EXPECT_GE(c.worker_restarts.load(), 1u);
    EXPECT_EQ(svc.healthy_workers(), 1);
}

TEST_F(ServiceFaultTest, FlushFaultFallsBackToPerRequestDispatch) {
    ServiceOptions options = base_options();
    options.batch_window_seconds = 0.5;
    GraphService svc(graph_, options);
    fault::arm(Site::kServiceFlush, Trigger{.probability = 1.0, .nth = 0});

    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(svc.submit(static_cast<vertex_t>(i)).result);
    for (int i = 0; i < 8; ++i) {
        const QueryResult r = futures[static_cast<std::size_t>(i)].get();
        EXPECT_TRUE(r.answered()) << "request " << i;
        EXPECT_EQ(r.level, serial_levels(graph_, static_cast<vertex_t>(i)));
    }
    fault::disarm_all();
    svc.stop();
    EXPECT_EQ(svc.counters().waves.load(), 0u);  // every wave assembly failed
}

// ---------------------------------------------------------------------
// Chaos soak: a 1k-request stream under probabilistic faults at every
// service site. The invariants: no hang (every future resolves), no
// lost request (resolved == submitted), and every answered result is a
// correct BFS.
// ---------------------------------------------------------------------

TEST_F(ServiceFaultTest, ChaosSoakLosesNothingAndAnswersCorrectly) {
    constexpr int kRequests = 1000;

    // Honour CI-provided SGE_FAULT_* arming; fill in defaults for any
    // service site left unarmed so the soak always has chaos to survive.
    fault::load_from_env();
    for (const Site site :
         {Site::kServiceSubmit, Site::kServiceFlush, Site::kServiceWorker}) {
        if (!fault::armed_trigger(site))
            fault::arm(site, Trigger{.probability = 1e-3, .nth = 0});
    }

    ServiceOptions options = base_options();
    options.workers = 2;
    options.queue_capacity = 512;
    options.batch_window_seconds = 0.001;
    GraphService svc(graph_, options);

    // Eight fixed roots with precomputed reference answers: every
    // answered result is checked for exact correctness.
    std::vector<vertex_t> roots;
    std::vector<std::vector<level_t>> expected;
    for (vertex_t r = 0; r < 8; ++r) {
        roots.push_back(r * 31 % graph_.num_vertices());
        expected.push_back(serial_levels(graph_, roots.back()));
    }

    SplitMix64 rng(2026);
    std::vector<std::pair<std::size_t, std::future<QueryResult>>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        const std::size_t which = rng.next() % roots.size();
        // A sprinkle of hopeless deadlines exercises the cancellation
        // path; the rest are unbounded.
        const double deadline = (rng.next() % 100 == 0) ? 1e-7 : 0.0;
        futures.emplace_back(which,
                             svc.submit(roots[which], deadline).result);
    }

    std::uint64_t answered = 0;
    for (auto& [which, future] : futures) {
        const QueryResult r = future.get();  // must resolve: no hangs
        if (r.answered()) {
            ++answered;
            EXPECT_EQ(r.level, expected[which]);
        }
    }
    svc.stop();
    fault::disarm_all();

    const auto& c = svc.counters();
    EXPECT_EQ(c.submitted.load(), static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(c.resolved(), static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(c.failed.load(), 0u);  // the serial ladder rung never breaks
    EXPECT_GT(answered, 0u);
}

// ---------------------------------------------------------------------
// Live graphs: store-backed service. Mutations and queries share the
// admission queue; every answered query is exact on the published
// snapshot version it reports.
// ---------------------------------------------------------------------

ServiceOptions live_options(int workers = 1) {
    ServiceOptions options;
    options.bfs = parallel_options(BfsEngine::kBitmap);
    options.workers = workers;
    options.queue_capacity = 512;
    return options;
}

TEST(LiveServiceTest, MutationPublishesAndLaterQueriesObserveIt) {
    VersionedGraphStore store(64);
    GraphService svc(store, live_options());
    EXPECT_TRUE(svc.live());

    MutationBatch path;
    for (vertex_t v = 0; v + 1 < 8; ++v) path.insert(v, v + 1);
    const QueryResult m = svc.submit_mutation(std::move(path)).result.get();
    ASSERT_EQ(m.outcome, Outcome::kCompleted);
    EXPECT_EQ(m.snapshot_version, 2u);  // v1 was the empty seed
    EXPECT_EQ(store.version(), 2u);

    // Submitted after the mutation resolved, so it must pin v2 (the
    // only writer is this test).
    const QueryResult q = svc.submit(0).result.get();
    ASSERT_TRUE(q.answered());
    EXPECT_EQ(q.snapshot_version, 2u);
    EXPECT_EQ(q.level[7], 7u);
    EXPECT_EQ(q.level, serial_levels(store.acquire().graph(), 0));

    svc.stop();
    EXPECT_EQ(svc.counters().mutations.load(), 1u);
    EXPECT_EQ(store.counters().batches_applied.load(), 1u);
}

// Two cases: with waves, and unbatched, where every query runs through
// BfsRunner::run_into on the snapshot it pinned. Either way each answer
// must equal the serial levels of the version it reports, so one served
// from another version's state fails.
TEST(LiveServiceTest, AnswersAreExactOnTheirReportedVersion) {
    for (const bool batching : {true, false}) {
        SCOPED_TRACE(batching ? "with waves" : "unbatched");
        constexpr vertex_t kN = 128;
        VersionedGraphStore store(kN);
        ServiceOptions options = live_options(2);
        if (!batching) options.batch_max_roots = 1;
        GraphService svc(store, options);

        // Reference levels per published version, recorded as each
        // mutation resolves (this thread is the only mutation source, so
        // the store sits at exactly that version right after).
        std::map<std::uint64_t, std::vector<level_t>> reference;
        reference[1] = serial_levels(store.acquire().graph(), 0);

        SplitMix64 rng(7);
        std::vector<std::future<QueryResult>> queries;
        for (int round = 0; round < 40; ++round) {
            MutationBatch b;
            for (int i = 0; i < 10; ++i) {
                const auto u = static_cast<vertex_t>(rng.next() % kN);
                const auto v = static_cast<vertex_t>(rng.next() % kN);
                if (rng.next() % 6 == 0)
                    b.remove(u, v);
                else
                    b.insert(u, v);
            }
            SubmitResult mf = svc.submit_mutation(std::move(b));
            ASSERT_TRUE(mf.admitted);
            // These race the mutation through the queue: each may answer
            // against the version before or after it — both are published
            // states, and snapshot_version says which.
            for (int q = 0; q < 4; ++q) queries.push_back(svc.submit(0).result);

            const QueryResult m = mf.result.get();
            ASSERT_EQ(m.outcome, Outcome::kCompleted);
            const SnapshotRef ref = store.acquire();
            ASSERT_EQ(ref.version(), m.snapshot_version);
            reference.emplace(m.snapshot_version,
                              serial_levels(ref.graph(), 0));
        }

        std::uint64_t answered = 0;
        for (auto& f : queries) {
            const QueryResult r = f.get();
            if (!r.answered()) continue;
            ++answered;
            const auto it = reference.find(r.snapshot_version);
            ASSERT_NE(it, reference.end())
                << "unknown snapshot version " << r.snapshot_version;
            EXPECT_EQ(r.level, it->second)
                << "answer not exact on version " << r.snapshot_version;
        }
        svc.stop();
        EXPECT_GT(answered, 0u);
        EXPECT_EQ(svc.counters().mutations.load(), 40u);
    }
}

TEST(LiveServiceTest, MutationOnStaticServiceThrows) {
    const CsrGraph g = path_graph(8);
    GraphService svc(g, live_options());
    EXPECT_FALSE(svc.live());
    MutationBatch b;
    b.insert(0, 1);
    EXPECT_THROW(svc.submit_mutation(std::move(b)), std::logic_error);
    svc.stop();
}

TEST(LiveServiceTest, MutationRejectsOutOfRangeVertex) {
    VersionedGraphStore store(8);
    GraphService svc(store, live_options());
    MutationBatch b;
    b.insert(0, 8);
    EXPECT_THROW(svc.submit_mutation(std::move(b)), std::out_of_range);
    svc.stop();
    EXPECT_EQ(store.version(), 1u) << "nothing was applied";
}

TEST(LiveServiceTest, FailedMutationLeavesNoTrace) {
    VersionedGraphStore store(64);
    GraphService svc(store, live_options());
    ASSERT_TRUE(svc.submit(0).result.get().answered());  // workers warm

    // The site is armed only while this mutation is the sole request in
    // flight, so its apply() takes the first alloc-site hit.
    MutationBatch doomed;
    doomed.insert(0, 1);
    doomed.insert(1, 2);
    fault::arm(Site::kAlloc, Trigger{.probability = 0.0, .nth = 1});
    const QueryResult failed = svc.submit_mutation(std::move(doomed)).result.get();
    fault::disarm_all();
    EXPECT_EQ(failed.outcome, Outcome::kFailed);
    EXPECT_EQ(store.version(), 1u);

    MutationBatch next;
    next.insert(0, 3);
    const QueryResult m = svc.submit_mutation(std::move(next)).result.get();
    ASSERT_EQ(m.outcome, Outcome::kCompleted);
    EXPECT_EQ(m.snapshot_version, 2u);
    const SnapshotRef snap = store.acquire();
    EXPECT_EQ(snap.graph().num_edges(), 2u) << "only the later batch's arcs";
    EXPECT_FALSE(snap.graph().has_edge(0, 1));

    const QueryResult q = svc.submit(0).result.get();
    ASSERT_TRUE(q.answered());
    EXPECT_EQ(q.snapshot_version, 2u);
    EXPECT_EQ(q.level[1], kInvalidLevel);
    EXPECT_EQ(q.level, serial_levels(snap.graph(), 0));
    svc.stop();
    EXPECT_EQ(svc.counters().failed.load(), 1u);
    EXPECT_EQ(svc.counters().mutations.load(), 1u);
    EXPECT_EQ(store.counters().batches_applied.load(), 1u);
}

// Chaos soak over a live graph: concurrent mutations and queries under
// probabilistic faults at every service site. Invariants: no hang
// (every future resolves), no lost request, nothing resolves kFailed,
// and the store's applied-batch count agrees with the service's
// mutation count (each admitted mutation lands exactly once or
// resolves shed/cancelled — never half-applied, never twice).
TEST(LiveServiceChaos, MutateQuerySoakLosesNothing) {
    constexpr int kRequests = 800;
    constexpr vertex_t kN = 256;

    fault::load_from_env();
    for (const Site site :
         {Site::kServiceSubmit, Site::kServiceFlush, Site::kServiceWorker}) {
        if (!fault::armed_trigger(site))
            fault::arm(site, Trigger{.probability = 1e-3, .nth = 0});
    }

    VersionedGraphStore store(kN);
    ServiceOptions options = live_options(2);
    options.batch_window_seconds = 0.001;
    GraphService svc(store, options);

    SplitMix64 rng(99);
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        if (i % 8 == 0) {
            MutationBatch b;
            for (int k = 0; k < 4; ++k) {
                const auto u = static_cast<vertex_t>(rng.next() % kN);
                const auto v = static_cast<vertex_t>(rng.next() % kN);
                if (rng.next() % 5 == 0)
                    b.remove(u, v);
                else
                    b.insert(u, v);
            }
            futures.push_back(svc.submit_mutation(std::move(b)).result);
        } else {
            const double deadline = (rng.next() % 100 == 0) ? 1e-7 : 0.0;
            futures.push_back(
                svc.submit(static_cast<vertex_t>(rng.next() % kN), deadline)
                    .result);
        }
    }

    for (auto& f : futures) (void)f.get();  // must resolve: no hangs
    svc.stop();
    fault::disarm_all();

    const auto& c = svc.counters();
    EXPECT_EQ(c.submitted.load(), static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(c.resolved(), static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(c.failed.load(), 0u);
    EXPECT_EQ(store.counters().batches_applied.load(), c.mutations.load());
    EXPECT_EQ(store.version(), store.counters().snapshots_published.load())
        << "versions advance exactly one per publish";
}

}  // namespace
}  // namespace sge
