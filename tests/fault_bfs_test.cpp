#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/cancel_token.hpp"
#include "core/bfs.hpp"
#include "core/bfs_workspace.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "runtime/fault.hpp"

namespace sge {
namespace {

using fault::Site;
using fault::Trigger;

/// End-to-end fault-injection stress: BFS under injected faults must
/// either complete with a valid tree or fail with a clean, prompt
/// error — never hang, crash, or return a corrupt result.
class FaultBfsTest : public ::testing::Test {
  protected:
    void SetUp() override {
        fault::disarm_all();
        RmatParams params;
        params.scale = 12;
        params.num_edges = 16384;
        params.seed = 7;
        graph_ = csr_from_edges(generate_rmat(params));
    }
    void TearDown() override { fault::disarm_all(); }

    static BfsOptions multisocket_options() {
        BfsOptions options;
        options.engine = BfsEngine::kMultiSocket;
        options.threads = 8;
        options.topology = Topology::emulate(2, 4, 1);
        options.channel_capacity = 64;  // small ring: spill path is live
        return options;
    }

    CsrGraph graph_;
};

TEST_F(FaultBfsTest, MultisocketSurvivesChannelFaults) {
    // Channel faults are perturbations, not errors: forced spills and
    // throttled drains exercise the overflow machinery but must never
    // change the answer.
    fault::reseed(99);
    fault::arm(Site::kChannelPush, Trigger{.probability = 0.3, .nth = 0});
    fault::arm(Site::kChannelPop, Trigger{.probability = 0.3, .nth = 0});
    const BfsResult result = bfs(graph_, 0, multisocket_options());
    fault::disarm_all();
    EXPECT_GT(fault::hits(Site::kChannelPush), 0u);
    const ValidationReport report = validate_bfs_tree(graph_, 0, result);
    EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(FaultBfsTest, BarrierFaultPropagatesQuickly) {
    // A worker dying at a barrier must unwind the whole team and
    // surface as FaultInjected in bounded time — not strand siblings.
    fault::arm(Site::kBarrier, Trigger{.probability = 0.0, .nth = 20});
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(bfs(graph_, 0, multisocket_options()), fault::FaultInjected);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    fault::disarm_all();

    // The same options must work again afterwards: nothing leaked.
    const BfsResult result = bfs(graph_, 0, multisocket_options());
    const ValidationReport report = validate_bfs_tree(graph_, 0, result);
    EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(FaultBfsTest, AllocFaultUnwindsCleanly) {
    // Armed after the graph is built, the first engine-side aligned
    // allocation throws std::bad_alloc; the run must unwind cleanly.
    fault::arm(Site::kAlloc, Trigger{.probability = 0.0, .nth = 1});
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(bfs(graph_, 0, multisocket_options()), std::bad_alloc);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    fault::disarm_all();

    const BfsResult result = bfs(graph_, 0, multisocket_options());
    const ValidationReport report = validate_bfs_tree(graph_, 0, result);
    EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(FaultBfsTest, EveryParallelEngineSurvivesBarrierFault) {
    for (const BfsEngine engine :
         {BfsEngine::kNaive, BfsEngine::kBitmap, BfsEngine::kMultiSocket,
          BfsEngine::kHybrid}) {
        fault::arm(Site::kBarrier, Trigger{.probability = 0.0, .nth = 5});
        BfsOptions options = multisocket_options();
        options.engine = engine;
        EXPECT_THROW(bfs(graph_, 0, options), fault::FaultInjected)
            << to_string(engine);
        fault::disarm_all();
        const BfsResult result = bfs(graph_, 0, options);
        const ValidationReport report = validate_bfs_tree(graph_, 0, result);
        EXPECT_TRUE(report.ok) << to_string(engine) << ": " << report.error;
    }
}

TEST_F(FaultBfsTest, TokenDeadlineEndsStalledLevel) {
    // A hub linked only to the vertices the other socket owns ships its
    // whole row through that socket's channel in level 0. With the drain
    // throttled to one tuple per pop, the level's drain phase takes
    // several times as long as the scan before it. A deadline already
    // past when the run starts must end the run at the scan's barrier,
    // skipping the drain; a stop at level ends alone runs through it.
    using clock = std::chrono::steady_clock;
    constexpr vertex_t kN = 1 << 20;
    EdgeList edges(kN);
    for (vertex_t v = kN / 2; v < kN; ++v) edges.add(0, v);
    const CsrGraph g = csr_from_edges(edges);
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const std::vector<level_t> expected = bfs(g, 0, serial).level;
    CancelToken token;
    BfsOptions options = multisocket_options();
    options.threads = 4;  // two drain each channel: the test stays short
    options.topology = Topology::emulate(2, 2, 1);
    options.cancel = &token;
    BfsRunner runner(options);
    runner.run(g, 0);  // prepared: the times below cover only the runs

    // One throttled run, stopped by the token `arm` sets up from the
    // start time; returns how long it ran and what() it threw. The
    // unthrottled run after it drains what an aborted level left behind
    // and must answer exactly.
    const auto throttled = [&](const auto& arm) {
        fault::arm(Site::kChannelPop, Trigger{.probability = 1.0, .nth = 0});
        token.reset();
        const clock::time_point start = clock::now();
        arm(start);
        std::string what;
        try {
            runner.run(g, 0);
            ADD_FAILURE() << "expected BfsDeadlineError";
        } catch (const BfsDeadlineError& e) {
            what = e.what();
        }
        const clock::duration elapsed = clock::now() - start;
        fault::disarm_all();
        token.reset();
        EXPECT_EQ(runner.run(g, 0).level, expected);
        return std::pair{elapsed, what};
    };
    // The poll alone stops the run at level 0's end, after the drain.
    const auto stop_by_poll = [&](clock::time_point) {
        token.fire_after_polls(1);
    };
    const clock::duration poll_stop =
        std::min(throttled(stop_by_poll).first, throttled(stop_by_poll).first);

    // Each deadline run ends before the poll alone would have stopped it;
    // the fastest, which host noise touched least, in under half that
    // time, because the drain never ran.
    clock::duration fastest = clock::duration::max();
    for (int round = 0; round < 3; ++round) {
        const auto [elapsed, what] = throttled([&](clock::time_point start) {
            token.set_deadline(start - std::chrono::milliseconds(1));
        });
        EXPECT_LT(elapsed, poll_stop) << "round " << round;
        fastest = std::min(fastest, elapsed);
        EXPECT_NE(what.find("mid-level; level=0 "), std::string::npos)
            << what;
        EXPECT_NE(what.find("socket 1: "), std::string::npos) << what;
        EXPECT_NE(what.find("channel pushed="), std::string::npos) << what;
    }
    EXPECT_LT(fastest, poll_stop / 2);
}

TEST_F(FaultBfsTest, ReusedRunnerReportsAndDropsOnlyThisRunsTraffic) {
    // The hub of TokenDeadlineEndsStalledLevel, on a runner that already
    // answered one query through the same channels. A run stopped at
    // level 0's scan barrier reports this run's shipments only, and the
    // next prepare() drops what it left behind without popping it, so a
    // throttled channel_pop never sees those tuples.
    using clock = std::chrono::steady_clock;
    constexpr vertex_t kN = 1 << 20;
    EdgeList edges(kN);
    for (vertex_t v = kN / 2; v < kN; ++v) edges.add(0, v);
    const CsrGraph g = csr_from_edges(edges);
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const std::vector<level_t> expected = bfs(g, 0, serial).level;
    CancelToken token;
    BfsOptions options = multisocket_options();
    options.threads = 4;
    options.topology = Topology::emulate(2, 2, 1);
    options.cancel = &token;
    BfsRunner runner(options);
    ASSERT_EQ(runner.run(g, 0).level, expected);

    fault::arm(Site::kChannelPop, Trigger{.probability = 1.0, .nth = 0});
    token.set_deadline(clock::now() - std::chrono::milliseconds(1));
    std::string what;
    try {
        runner.run(g, 0);
        ADD_FAILURE() << "expected BfsDeadlineError";
    } catch (const BfsDeadlineError& e) {
        what = e.what();
    }
    EXPECT_NE(what.find("mid-level; level=0 "), std::string::npos) << what;
    const std::size_t socket1 = what.find("socket 1: ");
    ASSERT_NE(socket1, std::string::npos) << what;
    EXPECT_NE(what.find(" channel pushed=" + std::to_string(kN / 2) + " ",
                        socket1),
              std::string::npos)
        << what;

    // arm() rewinds the site's hit count.
    fault::arm(Site::kChannelPop, Trigger{.probability = 1.0, .nth = 0});
    runner.workspace()->prepare(g, BfsEngine::kMultiSocket, options,
                                *runner.team());
    EXPECT_EQ(fault::hits(Site::kChannelPop), 0u);
    fault::disarm_all();
    token.reset();
    EXPECT_EQ(runner.run(g, 0).level, expected);
}

}  // namespace
}  // namespace sge
