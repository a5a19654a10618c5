#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "concurrency/spin_barrier.hpp"
#include "concurrency/thread_team.hpp"
#include "runtime/stats.hpp"

namespace sge {
namespace {

TEST(ThreadTeam, RunsEveryWorkerExactlyOnce) {
    ThreadTeam team(8, Topology::emulate(2, 4, 1));
    std::atomic<int> hits[8] = {};
    team.run([&](int tid) { hits[tid].fetch_add(1); });
    for (int t = 0; t < 8; ++t) EXPECT_EQ(hits[t].load(), 1) << t;
}

TEST(ThreadTeam, ReusableAcrossRegions) {
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round)
        team.run([&](int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 200);
}

TEST(ThreadTeam, SocketMapping) {
    ThreadTeam team(16, Topology::nehalem_ep());
    EXPECT_EQ(team.size(), 16);
    EXPECT_EQ(team.sockets_used(), 2);
    EXPECT_EQ(team.socket_of(0), 0);
    EXPECT_EQ(team.socket_of(4), 1);
    EXPECT_EQ(team.socket_of(8), 0);  // SMT wrap
}

TEST(ThreadTeam, SingleSocketWhenFewThreads) {
    ThreadTeam team(4, Topology::nehalem_ep());
    EXPECT_EQ(team.sockets_used(), 1);
}

TEST(ThreadTeam, PropagatesWorkerException) {
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    EXPECT_THROW(
        team.run([](int tid) {
            if (tid == 2) throw std::runtime_error("worker 2 failed");
        }),
        std::runtime_error);
    // The team must survive a throwing region.
    std::atomic<int> total{0};
    team.run([&](int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
}

TEST(ThreadTeam, WorkerExceptionReleasesBarrierWaiters) {
    // One worker throws while its siblings sit inside the registered
    // barrier: the abort protocol must release them, run() must finish
    // in bounded time, and the original exception must surface.
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    SpinBarrier barrier(4);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(
        team.run(
            [&](int tid) {
                if (tid == 0) throw std::runtime_error("worker 0 failed");
                // Siblings barrier forever; only the abort frees them.
                while (barrier.arrive_and_wait()) {
                }
            },
            &barrier),
        std::runtime_error);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    EXPECT_TRUE(barrier.aborted());

    // The team must survive: no leaked or wedged workers.
    std::atomic<int> total{0};
    team.run([&](int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
}

TEST(ThreadTeam, DeadlineAbortsAStalledRegion) {
    // Worker 0 stalls until the barrier is aborted; its siblings wait
    // for it at the barrier. Only the deadline can end the region (a
    // run() that never aborts lets worker 0 arrive after 10 s, so the
    // test fails instead of hanging).
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    SpinBarrier barrier(4);
    std::atomic<int> released{0};
    const std::uint64_t aborts_before =
        runtime_warnings().barrier_aborts.load();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(20);
    team.run(
        [&](int tid) {
            if (tid == 0) {
                while (!barrier.aborted() &&
                       std::chrono::steady_clock::now() <
                           start + std::chrono::seconds(10))
                    std::this_thread::yield();
                if (!barrier.aborted()) barrier.arrive_and_wait();
                return;
            }
            if (!barrier.arrive_and_wait()) released.fetch_add(1);
        },
        &barrier, deadline);
    EXPECT_GE(std::chrono::steady_clock::now(), deadline);
    EXPECT_TRUE(barrier.aborted());
    EXPECT_EQ(released.load(), 3);
    EXPECT_EQ(runtime_warnings().barrier_aborts.load() - aborts_before, 1u);

    // The team serves the next region.
    std::atomic<int> total{0};
    team.run([&](int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
}

TEST(ThreadTeam, RegionFinishingBeforeItsDeadlineIsNotAborted) {
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    SpinBarrier barrier(4);
    std::atomic<int> passed{0};
    const auto start = std::chrono::steady_clock::now();
    team.run(
        [&](int) {
            for (int i = 0; i < 3; ++i)
                if (barrier.arrive_and_wait()) passed.fetch_add(1);
        },
        &barrier, start + std::chrono::seconds(60));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
    EXPECT_FALSE(barrier.aborted());
    EXPECT_EQ(passed.load(), 12);
}

TEST(ThreadTeam, RunWithoutDeadlineNeverAborts) {
    // No deadline (the default, time_point::max()): run() waits for a
    // slow worker however long it takes, and never aborts the barrier.
    ThreadTeam team(4, Topology::emulate(1, 4, 1));
    SpinBarrier barrier(4);
    std::atomic<int> passed{0};
    team.run(
        [&](int tid) {
            if (tid == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (barrier.arrive_and_wait()) passed.fetch_add(1);
        },
        &barrier);
    EXPECT_FALSE(barrier.aborted());
    EXPECT_EQ(passed.load(), 4);
}

TEST(ThreadTeam, ZeroThreadsClampsToOne) {
    ThreadTeam team(0, Topology::emulate(1, 1, 1));
    EXPECT_EQ(team.size(), 1);
    std::atomic<int> ran{0};
    team.run([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadTeam, WorkersSeeDistinctTids) {
    ThreadTeam team(12, Topology::emulate(3, 4, 1));
    std::vector<std::atomic<int>> seen(12);
    team.run([&](int tid) { seen[static_cast<std::size_t>(tid)].fetch_add(1); });
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadTeam, OversubscriptionStillCompletes) {
    // 64 workers on however few CPUs this host has: the team and the
    // paper's emulated-topology mode must not deadlock.
    ThreadTeam team(64, Topology::nehalem_ex());
    std::atomic<int> total{0};
    team.run([&](int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 64);
}

}  // namespace
}  // namespace sge
