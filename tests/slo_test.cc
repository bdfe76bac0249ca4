// SloTracker: window p99, violation count, burn rate, the periodic `slo.*`
// gauge refresh, wrap-around eviction, and target = 0 as the disabled path.

#include "src/util/slo.h"

#include <gtest/gtest.h>

#include "src/util/metrics.h"

namespace rmp {
namespace {

SloParams Params(DurationNs target, size_t window, size_t refresh_every = 1 << 20) {
  SloParams params;
  params.target = target;
  params.window = window;
  params.budget_fraction = 0.01;
  params.refresh_every = refresh_every;
  return params;
}

TEST(SloTrackerTest, WindowP99SelectsTheRankOfTheWindow) {
  SloTracker slo(nullptr, Params(Millis(1), 200));
  EXPECT_EQ(slo.WindowP99(), 0);
  // 200 distinct latencies, recorded out of order: rank (200*99)/100 = 198.
  for (int64_t i = 200; i >= 1; --i) {
    slo.Record(i * 1000);
  }
  EXPECT_EQ(slo.samples(), 200u);
  EXPECT_EQ(slo.WindowP99(), 199 * 1000);
  // The window slides: 200 more samples of 5 µs push every old one out.
  for (int i = 0; i < 200; ++i) {
    slo.Record(5000);
  }
  EXPECT_EQ(slo.samples(), 200u);
  EXPECT_EQ(slo.WindowP99(), 5000);
}

TEST(SloTrackerTest, ViolationsCountSamplesStrictlyOverTarget) {
  SloTracker slo(nullptr, Params(Micros(50), 100));
  slo.Record(Micros(10));
  slo.Record(Micros(50));  // At target: not a violation.
  slo.Record(Micros(51));
  slo.Record(Micros(900));
  EXPECT_EQ(slo.violations(), 2);
  EXPECT_EQ(slo.samples(), 4u);
}

TEST(SloTrackerTest, BurnRateIsViolationRateOverBudget) {
  SloTracker slo(nullptr, Params(Micros(50), 100));
  EXPECT_DOUBLE_EQ(slo.BurnRate(), 0.0);
  for (int i = 0; i < 97; ++i) {
    slo.Record(Micros(10));
  }
  for (int i = 0; i < 3; ++i) {
    slo.Record(Micros(60));
  }
  // 3 of 100 over target against a 1% budget: burning 3x.
  EXPECT_EQ(slo.violations(), 3);
  EXPECT_NEAR(slo.BurnRate(), 3.0, 1e-9);
}

TEST(SloTrackerTest, GaugesRefreshEveryRefreshEverySamples) {
  MetricsRegistry registry;
  SloTracker slo(&registry, Params(Micros(50), 8, /*refresh_every=*/4));
  Gauge* target = registry.GetGauge("slo.target_us");
  Gauge* p99 = registry.GetGauge("slo.window_p99_us");
  Gauge* violations = registry.GetGauge("slo.violations");
  Gauge* burn = registry.GetGauge("slo.burn_permille");
  EXPECT_EQ(target->value(), 50);

  slo.Record(Micros(10));
  slo.Record(Micros(70));
  slo.Record(Micros(20));
  // Three samples: no refresh yet.
  EXPECT_EQ(p99->value(), 0);
  EXPECT_EQ(violations->value(), 0);
  EXPECT_EQ(burn->value(), 0);

  slo.Record(Micros(30));  // The 4th sample refreshes.
  EXPECT_EQ(p99->value(), 70);  // rank (4*99)/100 = 3: the largest of four.
  EXPECT_EQ(violations->value(), 1);
  // 1 of 4 over target against a 1% budget: 25x = 25000 permille.
  EXPECT_EQ(burn->value(), 25000);

  slo.Record(Micros(80));
  EXPECT_EQ(violations->value(), 1);  // Stale until the next refresh...
  slo.Refresh();                      // ...or an explicit one.
  EXPECT_EQ(violations->value(), 2);
  EXPECT_EQ(p99->value(), 80);
}

TEST(SloTrackerTest, ViolationEvictedByWrapStopsCounting) {
  MetricsRegistry registry;
  SloTracker slo(&registry, Params(Micros(50), 4, /*refresh_every=*/1));
  slo.Record(Micros(500));
  EXPECT_EQ(slo.violations(), 1);
  for (int i = 0; i < 3; ++i) {
    slo.Record(Micros(10));
  }
  EXPECT_EQ(slo.violations(), 1);  // Still inside the 4-sample window.
  slo.Record(Micros(10));          // Overwrites the violating sample.
  EXPECT_EQ(slo.samples(), 4u);
  EXPECT_EQ(slo.violations(), 0);
  EXPECT_DOUBLE_EQ(slo.BurnRate(), 0.0);
  EXPECT_EQ(slo.WindowP99(), Micros(10));
  EXPECT_EQ(registry.GetGauge("slo.violations")->value(), 0);
  EXPECT_EQ(registry.GetGauge("slo.burn_permille")->value(), 0);
  EXPECT_EQ(registry.GetGauge("slo.window_p99_us")->value(), 10);
}

TEST(SloTrackerTest, ZeroTargetDisablesTheTracker) {
  MetricsRegistry registry;
  SloTracker slo(&registry, Params(0, 16, /*refresh_every=*/1));
  for (int i = 0; i < 32; ++i) {
    slo.Record(Millis(10));
  }
  EXPECT_EQ(slo.samples(), 0u);
  EXPECT_EQ(slo.violations(), 0);
  EXPECT_EQ(slo.WindowP99(), 0);
  EXPECT_DOUBLE_EQ(slo.BurnRate(), 0.0);
  EXPECT_EQ(registry.GetGauge("slo.target_us")->value(), 0);
  EXPECT_EQ(registry.GetGauge("slo.window_p99_us")->value(), 0);
  EXPECT_EQ(registry.GetGauge("slo.violations")->value(), 0);
}

}  // namespace
}  // namespace rmp
