// Sliding-window SLO tracking (DESIGN.md §17).
//
// The bench gate (scripts/diff_bench.py) compares medians of named metrics;
// what it could not see before this module is *burn rate* — how fast a run
// is spending its latency-violation budget. SloTracker keeps the last
// `window` completed-operation latencies in a ring, counts the window's
// violations as samples enter and leave it, computes the window p99 by
// selection, and publishes the result as `slo.*` gauges in a
// MetricsRegistry, so a live rmptop poll and a bench JSON line read the same
// numbers:
//
//   slo.target_us       — the configured p99 target.
//   slo.window_p99_us   — p99 over the current window.
//   slo.violations      — window samples over target.
//   slo.burn_permille   — (violations / window) / budget, in permille of the
//                         allowed rate: 1000 = burning exactly the budget,
//                         >1000 = the SLO is being violated faster than the
//                         error budget admits.
//
// Record() is cheap (one mutex, one ring write); the gauges refresh on a
// small period counter rather than every sample, so a million-op soak does
// not pay a p99 selection per operation.

#ifndef SRC_UTIL_SLO_H_
#define SRC_UTIL_SLO_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/util/bounded_ring.h"
#include "src/util/config.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace rmp {

struct SloParams {
  // p99 latency target; 0 disables the tracker (Record early-outs).
  DurationNs target = Millis(50);
  // Completed operations the sliding window holds.
  size_t window = 512;
  // Fraction of window samples allowed over target before the budget is
  // burning at 1.0x (1000 permille).
  double budget_fraction = 0.01;
  // Gauges refresh every this many samples (and on Refresh()).
  size_t refresh_every = 64;
};

// The `slo.*` config table over `params` (README: observability knobs).
ConfigTable SloConfigKeys(SloParams* params);

class SloTracker {
 public:
  // `registry` may be null (window math only, no gauges).
  explicit SloTracker(MetricsRegistry* registry = nullptr, const SloParams& params = SloParams());
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // Records one completed operation's total latency.
  void Record(DurationNs latency);

  // Recomputes and publishes the gauges now (Record does it periodically).
  void Refresh();

  // p99 over the current window (0 when empty).
  DurationNs WindowP99() const;
  // Violation-rate / budget ratio: 1.0 = burning exactly the allowed error
  // budget, > 1.0 = violating the SLO. 0 when the window is empty.
  double BurnRate() const;
  int64_t violations() const;
  size_t samples() const;

  const SloParams& params() const { return params_; }

 private:
  DurationNs P99Locked() const;
  double BurnRateLocked() const;
  void RefreshLocked();

  SloParams params_;
  Gauge* target_gauge_ = nullptr;
  Gauge* p99_gauge_ = nullptr;
  Gauge* violations_gauge_ = nullptr;
  Gauge* burn_gauge_ = nullptr;

  mutable std::mutex mutex_;
  BoundedRing<DurationNs> window_;
  int64_t violations_ = 0;  // Window samples over target.
  size_t since_refresh_ = 0;
};

}  // namespace rmp

#endif  // SRC_UTIL_SLO_H_
