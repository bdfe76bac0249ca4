#include "src/util/running_stats.h"

#include <gtest/gtest.h>

namespace rmp {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(RunningStatsTest, MomentsMatchClosedForm) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats stats;
  stats.Add(3.5);
  EXPECT_EQ(stats.mean(), 3.5);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, Reset) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Reset();
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.sum(), 0.0);
}

}  // namespace
}  // namespace rmp
