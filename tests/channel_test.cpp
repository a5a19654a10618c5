#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "concurrency/channel.hpp"

namespace sge {
namespace {

constexpr std::uint64_t kEmpty = ~0ULL;
using Chan = Channel<std::uint64_t, kEmpty>;

TEST(Channel, PushPopRoundTrip) {
    Chan chan(16);
    const std::uint64_t items[] = {1, 2, 3, 4, 5};
    chan.push_batch(items, 5);

    std::uint64_t out[8];
    EXPECT_EQ(chan.pop_batch(out, 8), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], i + 1);
    EXPECT_EQ(chan.pop_batch(out, 8), 0u);
}

TEST(Channel, SpillBeyondRingCapacityLosesNothing) {
    Chan chan(4);  // tiny ring: most items must take the spill path
    std::vector<std::uint64_t> sent(1000);
    for (std::uint64_t i = 0; i < sent.size(); ++i) sent[i] = i;
    chan.push_batch(sent.data(), sent.size());

    std::vector<std::uint64_t> got;
    std::uint64_t buf[32];
    for (;;) {
        const std::size_t k = chan.pop_batch(buf, 32);
        if (k == 0) break;
        got.insert(got.end(), buf, buf + k);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sent);
}

TEST(Channel, CountersTrackTraffic) {
    Chan chan(8);
    const std::uint64_t items[] = {10, 20, 30};
    chan.push_batch(items, 3);
    EXPECT_EQ(chan.pushed(), 3u);
    std::uint64_t out[4];
    EXPECT_EQ(chan.pop_batch(out, 4), 3u);
    EXPECT_EQ(chan.popped(), 3u);
}

TEST(Channel, ResetEmptiesRingSpillAndCounters) {
    constexpr std::size_t kCapacity = 8;
    Chan chan(kCapacity);
    // Past the ring's capacity, so the spill engages; popping past the
    // ring moves the spill into the pending buffer, and a second push
    // refills ring and spill: all three hold items at the reset.
    std::vector<std::uint64_t> first(3 * kCapacity);
    std::iota(first.begin(), first.end(), 0);
    chan.push_batch(first.data(), first.size());
    std::uint64_t buf[64];
    std::size_t popped = 0;
    while (popped < kCapacity + 3)
        popped += chan.pop_batch(buf, kCapacity + 3 - popped);
    chan.push_batch(first.data(), 2 * kCapacity);

    chan.reset();
    EXPECT_EQ(chan.pushed(), 0u);
    EXPECT_EQ(chan.popped(), 0u);
    EXPECT_EQ(chan.pop_batch(buf, 64), 0u);

    // A round trip through ring and spill afterwards delivers each item
    // exactly once: nothing from before the reset comes back.
    std::vector<std::uint64_t> second(kCapacity + 5);
    std::iota(second.begin(), second.end(), 1000);
    chan.push_batch(second.data(), second.size());
    std::vector<std::uint64_t> got;
    for (std::size_t k; (k = chan.pop_batch(buf, 64)) != 0;)
        got.insert(got.end(), buf, buf + k);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, second);
    EXPECT_EQ(chan.pushed(), second.size());
    EXPECT_EQ(chan.popped(), second.size());
}

TEST(Channel, InterleavedPushPopPhases) {
    // Mimics the BFS usage: push phase, drain phase, repeated.
    Chan chan(8);
    std::uint64_t buf[16];
    for (std::uint64_t level = 0; level < 50; ++level) {
        std::uint64_t items[20];
        for (std::uint64_t i = 0; i < 20; ++i) items[i] = level * 100 + i;
        chan.push_batch(items, 20);

        std::vector<std::uint64_t> got;
        for (;;) {
            const std::size_t k = chan.pop_batch(buf, 16);
            if (k == 0) break;
            got.insert(got.end(), buf, buf + k);
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got.size(), 20u) << "level " << level;
        for (std::uint64_t i = 0; i < 20; ++i)
            ASSERT_EQ(got[i], level * 100 + i) << "level " << level;
    }
}

TEST(Channel, PartialFinalBatchesDrainCompletely) {
    // Regression for the multisocket flush path: a batch size that does
    // not divide the frontier leaves a partial final batch per producer
    // and per level. Every phase must end fully drained — the engine
    // asserts drained() after its drain loop, so the counters must
    // agree exactly, spill path included.
    Chan chan(8);
    std::uint64_t buf[16];
    std::uint64_t next = 0;
    for (std::uint64_t level = 0; level < 20; ++level) {
        const std::uint64_t frontier = 3 + level * 13;  // never % 7 == 0 pattern
        std::uint64_t batch[7];
        std::size_t fill = 0;
        for (std::uint64_t i = 0; i < frontier; ++i) {
            batch[fill++] = next++;
            if (fill == 7) {
                chan.push_batch(batch, fill);
                fill = 0;
            }
        }
        if (fill > 0) chan.push_batch(batch, fill);  // the partial batch

        std::uint64_t drained_items = 0;
        for (;;) {
            const std::size_t k = chan.pop_batch(buf, 16);
            if (k == 0) break;
            drained_items += k;
        }
        ASSERT_EQ(drained_items, frontier) << "level " << level;
        ASSERT_TRUE(chan.drained()) << "level " << level;
        ASSERT_EQ(chan.pushed(), chan.popped());
    }
    EXPECT_EQ(chan.pushed(), next);
}

TEST(Channel, MultiProducerMultiConsumerStress) {
    Chan chan(64);
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kPerProducer = 20000;

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&chan, p] {
            std::uint64_t batch[16];
            std::size_t fill = 0;
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                batch[fill++] = static_cast<std::uint64_t>(p) * kPerProducer + i;
                if (fill == 16) {
                    chan.push_batch(batch, fill);
                    fill = 0;
                }
            }
            if (fill > 0) chan.push_batch(batch, fill);
        });
    }

    std::atomic<std::uint64_t> consumed{0};
    std::atomic<bool> producers_done{false};
    std::vector<std::uint64_t> seen[kConsumers];
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&, c] {
            std::uint64_t buf[32];
            for (;;) {
                const std::size_t k = chan.pop_batch(buf, 32);
                if (k == 0) {
                    if (producers_done.load()) {
                        // One final drain after the producers are done:
                        // anything pushed before the flag is visible now.
                        const std::size_t k2 = chan.pop_batch(buf, 32);
                        if (k2 == 0) return;
                        seen[c].insert(seen[c].end(), buf, buf + k2);
                        consumed.fetch_add(k2);
                        continue;
                    }
                    std::this_thread::yield();
                    continue;
                }
                seen[c].insert(seen[c].end(), buf, buf + k);
                consumed.fetch_add(k);
            }
        });
    }

    for (auto& t : producers) t.join();
    producers_done.store(true);
    for (auto& t : consumers) t.join();

    // Every value delivered exactly once.
    std::vector<std::uint64_t> all;
    for (const auto& s : seen) all.insert(all.end(), s.begin(), s.end());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
    std::sort(all.begin(), all.end());
    for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

}  // namespace
}  // namespace sge
