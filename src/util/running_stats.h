// Streaming running mean/min/max/stddev (used by the simulated resources).
// Latency distributions go through HistogramMetric (metrics.h).

#ifndef SRC_UTIL_RUNNING_STATS_H_
#define SRC_UTIL_RUNNING_STATS_H_

#include <cstdint>

namespace rmp {

// Welford running moments. Add samples; read count/mean/stddev at any point.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  // Sample variance (n-1); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

  void Reset();

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace rmp

#endif  // SRC_UTIL_RUNNING_STATS_H_
