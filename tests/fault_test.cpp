#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "concurrency/channel.hpp"
#include "concurrency/spin_barrier.hpp"
#include "concurrency/thread_team.hpp"
#include "runtime/affinity.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/fault.hpp"
#include "runtime/stats.hpp"

namespace sge {
namespace {

using fault::Site;
using fault::Trigger;

/// Every test starts and ends with all sites disarmed.
class FaultTest : public ::testing::Test {
  protected:
    void SetUp() override { fault::disarm_all(); }
    void TearDown() override {
        fault::disarm_all();
        ::unsetenv("SGE_FAULT_INJECTION");
        ::unsetenv("SGE_FAULT_ALLOC");
        ::unsetenv("SGE_FAULT_BARRIER");
        ::unsetenv("SGE_FAULT_SEED");
    }
};

TEST_F(FaultTest, DisarmedSitesAreInert) {
    for (unsigned i = 0; i < fault::kSiteCount; ++i)
        EXPECT_FALSE(fault::armed_trigger(static_cast<Site>(i)).has_value());
    for (int i = 0; i < 100; ++i) {
        AlignedBuffer<int> buf(64);
        EXPECT_EQ(buf.size(), 64u);
    }
    EXPECT_EQ(fault::fired(Site::kAlloc), 0u);
}

TEST_F(FaultTest, NthTriggerFiresExactlyOnce) {
    fault::arm(Site::kAlloc, Trigger{.probability = 0.0, .nth = 3});
    int failures = 0;
    for (int i = 0; i < 10; ++i) {
        try {
            AlignedBuffer<int> buf(16);
        } catch (const std::bad_alloc&) {
            ++failures;
            EXPECT_EQ(i, 2) << "must fire on the 3rd allocation";
        }
    }
    EXPECT_EQ(failures, 1);
    EXPECT_EQ(fault::fired(Site::kAlloc), 1u);
    EXPECT_EQ(fault::hits(Site::kAlloc), 10u);
}

TEST_F(FaultTest, ProbabilityZeroNeverFiresProbabilityOneAlwaysFires) {
    fault::arm(Site::kBarrier, Trigger{.probability = 0.0, .nth = 0});
    // p=0 does not even set the armed bit: nothing to evaluate.
    EXPECT_FALSE(fault::armed_trigger(Site::kBarrier).has_value());
    SpinBarrier solo(1);
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(solo.arrive_and_wait());

    fault::arm(Site::kBarrier, Trigger{.probability = 1.0, .nth = 0});
    SpinBarrier solo2(1);
    EXPECT_THROW(solo2.arrive_and_wait(), fault::FaultInjected);
    EXPECT_EQ(fault::fired(Site::kBarrier), 1u);
}

TEST_F(FaultTest, ProbabilityIsDeterministicForFixedSeed) {
    const auto run_once = [] {
        fault::reseed(1234);
        fault::arm(Site::kBarrier, Trigger{.probability = 0.5, .nth = 0});
        std::vector<bool> fired;
        SpinBarrier solo(1);
        for (int i = 0; i < 64; ++i) {
            try {
                solo.arrive_and_wait();
                fired.push_back(false);
            } catch (const fault::FaultInjected&) {
                fired.push_back(true);
            }
        }
        fault::disarm(Site::kBarrier);
        return fired;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST_F(FaultTest, ForcedChannelSpillLosesNothing) {
    Channel<std::uint64_t, 0> ch(8);
    fault::arm(Site::kChannelPush, Trigger{.probability = 1.0, .nth = 0});
    std::vector<std::uint64_t> sent;
    std::uint64_t batch[7];
    for (std::uint64_t base = 1; base <= 92; base += 7) {
        for (std::uint64_t j = 0; j < 7; ++j) batch[j] = base + j;
        ch.push_batch(batch, 7);
        sent.insert(sent.end(), batch, batch + 7);
    }
    EXPECT_GT(fault::fired(Site::kChannelPush), 0u);
    fault::disarm(Site::kChannelPush);

    std::vector<std::uint64_t> got;
    std::uint64_t out[16];
    for (;;) {
        const std::size_t k = ch.pop_batch(out, 16);
        if (k == 0) break;
        got.insert(got.end(), out, out + k);
    }
    std::sort(sent.begin(), sent.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sent);
}

TEST_F(FaultTest, ThrottledPopStillDrainsEverything) {
    Channel<std::uint64_t, 0> ch(128);
    std::vector<std::uint64_t> sent(50);
    for (std::uint64_t i = 0; i < 50; ++i) sent[i] = i + 1;
    ch.push_batch(sent.data(), sent.size());

    fault::arm(Site::kChannelPop, Trigger{.probability = 1.0, .nth = 0});
    std::vector<std::uint64_t> got;
    std::uint64_t out[16];
    for (;;) {
        const std::size_t k = ch.pop_batch(out, 16);
        EXPECT_LE(k, 1u) << "drain must be throttled to one item per call";
        if (k == 0) break;
        got.push_back(out[0]);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sent);
}

TEST_F(FaultTest, PinSiteForcesFailureAndWarningCounter) {
    fault::arm(Site::kPin, Trigger{.probability = 1.0, .nth = 0});
    EXPECT_FALSE(pin_current_thread(0));

    // A team built while the pin site is hot degrades to unpinned
    // workers: the run still completes, and each failure is counted.
    // Workers past the host's CPU count get no pin target (-1), so the
    // expected count comes from the topology, not the team size.
    const Topology topo = Topology::detect();
    std::uint64_t expected = 0;
    for (int t = 0; t < 2; ++t)
        if (topo.cpu_of_thread(t) >= 0) ++expected;
    ASSERT_GE(expected, 1u);
    const std::uint64_t before =
        runtime_warnings().pin_failures.load(std::memory_order_relaxed);
    ThreadTeam team(2, topo);
    std::atomic<int> ran{0};
    team.run([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2);
    EXPECT_GE(runtime_warnings().pin_failures.load(std::memory_order_relaxed),
              before + expected);
}

TEST_F(FaultTest, EnvArmingParsesTriggers) {
    ::setenv("SGE_FAULT_INJECTION", "1", 1);
    ::setenv("SGE_FAULT_BARRIER", "nth=17", 1);
    ::setenv("SGE_FAULT_ALLOC", "p=0.25", 1);
    fault::load_from_env();

    const auto barrier = fault::armed_trigger(Site::kBarrier);
    ASSERT_TRUE(barrier.has_value());
    EXPECT_EQ(barrier->nth, 17u);
    const auto alloc = fault::armed_trigger(Site::kAlloc);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_DOUBLE_EQ(alloc->probability, 0.25);
}

TEST_F(FaultTest, EnvMasterSwitchDefaultsOff) {
    ::setenv("SGE_FAULT_ALLOC", "p=1", 1);  // no SGE_FAULT_INJECTION
    fault::load_from_env();
    EXPECT_FALSE(fault::armed_trigger(Site::kAlloc).has_value());
    AlignedBuffer<int> buf(16);  // must not throw
    EXPECT_EQ(buf.size(), 16u);
}

TEST_F(FaultTest, EnvBadSpecIsRejected) {
    ::setenv("SGE_FAULT_INJECTION", "1", 1);
    ::setenv("SGE_FAULT_ALLOC", "banana", 1);
    EXPECT_THROW(fault::load_from_env(), std::invalid_argument);
    ::setenv("SGE_FAULT_ALLOC", "p=2.5", 1);  // out of range
    EXPECT_THROW(fault::load_from_env(), std::invalid_argument);
    ::setenv("SGE_FAULT_ALLOC", "nth=0", 1);  // nth must be >= 1
    EXPECT_THROW(fault::load_from_env(), std::invalid_argument);
}

TEST_F(FaultTest, SiteNamesAreStable) {
    EXPECT_STREQ(fault::site_name(Site::kAlloc), "alloc");
    EXPECT_STREQ(fault::site_name(Site::kPin), "pin");
    EXPECT_STREQ(fault::site_name(Site::kChannelPush), "channel_push");
    EXPECT_STREQ(fault::site_name(Site::kChannelPop), "channel_pop");
    EXPECT_STREQ(fault::site_name(Site::kBarrier), "barrier");
}

}  // namespace
}  // namespace sge
