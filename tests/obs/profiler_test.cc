#include "obs/profiler.h"

#include <gtest/gtest.h>

namespace scoop::obs {
namespace {

TEST(SimProfilerTest, AttributesElapsedTimeToCurrentBucket) {
  SimProfiler prof;
  // Time between construction and the first Switch lands in kOther.
  EXPECT_EQ(prof.Switch(SimProfiler::kQueue), SimProfiler::kOther);
  // Spin a little so kQueue accrues a measurable interval.
  volatile unsigned sink = 0;  // Unsigned: the sum wraps instead of overflowing.
  for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_EQ(prof.Switch(SimProfiler::kRadio), SimProfiler::kQueue);
  prof.Stop();
  EXPECT_GT(prof.Seconds(SimProfiler::kQueue), 0.0);
  EXPECT_GE(prof.Seconds(SimProfiler::kOther), 0.0);
  EXPECT_EQ(prof.Seconds(SimProfiler::kAgent), 0.0);  // Never current.
}

TEST(SimProfilerTest, ScopedBucketRestoresPrevious) {
  SimProfiler prof;
  prof.Switch(SimProfiler::kQueue);
  {
    ScopedBucket scope(&prof, SimProfiler::kAgent);
    // Nested scope switches again and restores kAgent on exit.
    ScopedBucket inner(&prof, SimProfiler::kRadio);
  }
  // Back to kQueue: the next switch must report it as previous.
  EXPECT_EQ(prof.Switch(SimProfiler::kOther), SimProfiler::kQueue);
}

TEST(SimProfilerTest, NullProfilerScopedBucketIsNoOp) {
  ScopedBucket scope(nullptr, SimProfiler::kShardSync);  // Must not crash.
}

TEST(SimProfilerTest, MergeFromSumsBuckets) {
  SimProfiler a;
  SimProfiler b;
  b.Switch(SimProfiler::kShardSync);
  volatile unsigned sink = 0;  // Unsigned: the sum wraps instead of overflowing.
  for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  b.Stop();
  double before = a.Seconds(SimProfiler::kShardSync);
  a.MergeFrom(b);
  EXPECT_GE(a.Seconds(SimProfiler::kShardSync),
            before + b.Seconds(SimProfiler::kShardSync));
}

TEST(SimProfilerTest, BucketNamesAreStable) {
  EXPECT_STREQ(SimProfiler::BucketName(SimProfiler::kQueue), "queue");
  EXPECT_STREQ(SimProfiler::BucketName(SimProfiler::kRadio), "radio");
  EXPECT_STREQ(SimProfiler::BucketName(SimProfiler::kAgent), "agent");
  EXPECT_STREQ(SimProfiler::BucketName(SimProfiler::kShardSync), "shard_sync");
  EXPECT_STREQ(SimProfiler::BucketName(SimProfiler::kOther), "other");
}

}  // namespace
}  // namespace scoop::obs
