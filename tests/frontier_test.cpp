#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/frontier.hpp"

namespace sge {
namespace {

TEST(FrontierQueue, PushBatchAndScan) {
    FrontierQueue q(100);
    const vertex_t items[] = {5, 6, 7, 8};
    q.push_batch(items, 4);
    q.push_one(9);
    EXPECT_EQ(q.size(), 5u);

    std::vector<vertex_t> got;
    for (std::size_t i = 0; i < q.size(); ++i) got.push_back(q[i]);
    EXPECT_EQ(got, (std::vector<vertex_t>{5, 6, 7, 8, 9}));
}

TEST(FrontierQueue, ResetEmptiesTheQueue) {
    FrontierQueue q(10);
    q.push_one(1);
    q.reset();
    EXPECT_EQ(q.size(), 0u);
    q.push_one(2);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0], 2u);
}

TEST(FrontierQueue, ConcurrentProducersLoseNothing) {
    constexpr int kThreads = 8;
    constexpr vertex_t kPerThread = 10000;
    FrontierQueue q(kThreads * kPerThread);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&q, t] {
            vertex_t batch[32];
            std::size_t fill = 0;
            for (vertex_t i = 0; i < kPerThread; ++i) {
                batch[fill++] = static_cast<vertex_t>(t) * kPerThread + i;
                if (fill == 32) {
                    q.push_batch(batch, fill);
                    fill = 0;
                }
            }
            if (fill) q.push_batch(batch, fill);
        });
    }
    for (auto& th : threads) th.join();

    ASSERT_EQ(q.size(), static_cast<std::size_t>(kThreads) * kPerThread);
    std::vector<vertex_t> all(q.data(), q.data() + q.size());
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

TEST(LocalBatch, SignalsFullAtCapacity) {
    LocalBatch<vertex_t> batch(3);
    EXPECT_FALSE(batch.push(1));
    EXPECT_FALSE(batch.push(2));
    EXPECT_TRUE(batch.push(3));
    EXPECT_EQ(batch.size(), 3u);
    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_FALSE(batch.push(4));
    EXPECT_EQ(batch.data()[0], 4u);
}

TEST(LocalBatch, ZeroCapacityClampsToOne) {
    LocalBatch<vertex_t> batch(0);
    EXPECT_EQ(batch.capacity(), 1u);
    EXPECT_TRUE(batch.push(7));  // immediately full
}

}  // namespace
}  // namespace sge
