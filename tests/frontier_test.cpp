#include <gtest/gtest.h>

#include <vector>

#include "core/frontier.hpp"

namespace sge {
namespace {

TEST(FrontierQueue, PushOneAndScan) {
    FrontierQueue q(100);
    for (const vertex_t v : {5u, 6u, 7u, 8u, 9u}) q.push_one(v);
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
