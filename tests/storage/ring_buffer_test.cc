#include "storage/ring_buffer.h"

#include <deque>

#include <gtest/gtest.h>

namespace scoop::storage {
namespace {

TEST(RingBufferTest, PushAndIndex) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  rb.Push(1);
  rb.Push(2);
  rb.Push(3);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[2], 3);
  EXPECT_FALSE(rb.full());
}

TEST(RingBufferTest, OverwritesOldestWhenFull) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.Push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 3);  // 1 and 2 were overwritten.
  EXPECT_EQ(rb[1], 4);
  EXPECT_EQ(rb[2], 5);
  EXPECT_EQ(rb.total_pushed(), 5u);
  EXPECT_EQ(rb.overwritten(), 2u);
}

TEST(RingBufferTest, ForEachVisitsOldestFirst) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 7; ++i) rb.Push(i);
  std::vector<int> seen;
  rb.ForEach([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{5, 6, 7}));
}

TEST(RingBufferTest, WrapsRepeatedly) {
  RingBuffer<int> rb(2);
  for (int i = 0; i < 100; ++i) rb.Push(i);
  EXPECT_EQ(rb[0], 98);
  EXPECT_EQ(rb[1], 99);
  EXPECT_EQ(rb.overwritten(), 98u);
}

TEST(RingBufferTest, ClearKeepsCounters) {
  RingBuffer<int> rb(2);
  rb.Push(1);
  rb.Push(2);
  rb.Push(3);
  rb.Clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.total_pushed(), 3u);
  rb.Push(9);
  EXPECT_EQ(rb[0], 9);
}

TEST(RingBufferTest, CapacityOne) {
  RingBuffer<int> rb(1);
  rb.Push(1);
  rb.Push(2);
  EXPECT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb[0], 2);
}


TEST(RingBufferTest, GrowsOnDemandUpToCapacity) {
  // A capacity that is no power of two, filled across several growth
  // steps, wrapped, cleared and refilled: contents always equal the last
  // `capacity` pushes since the clear, oldest first.
  constexpr size_t kCapacity = 1000;
  RingBuffer<int> rb(kCapacity);
  std::deque<int> ref;
  for (int i = 0; i < 5000; ++i) {
    if (i == 2600) {
      rb.Clear();
      ref.clear();
    }
    rb.Push(i);
    ref.push_back(i);
    if (ref.size() > kCapacity) ref.pop_front();
    ASSERT_EQ(rb.size(), ref.size());
    ASSERT_EQ(rb.full(), ref.size() == kCapacity);
    if (i % 97 == 0 || i == 4999) {
      for (size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(rb[k], ref[k]) << i << " " << k;
    }
  }
  EXPECT_EQ(rb.total_pushed(), 5000u);
  // 1600 overwritten before the clear, 1400 after it.
  EXPECT_EQ(rb.overwritten(), 3000u);
}

}  // namespace
}  // namespace scoop::storage
