#include "src/util/slo.h"

#include <algorithm>

namespace rmp {

ConfigTable SloConfigKeys(SloParams* params) {
  return {
      {"slo.target_ms", ConfigKey::kDouble, &params->target, 0, 1e6, 1e6},
      {"slo.window", ConfigKey::kInt, &params->window, 1, 1 << 20},
      {"slo.budget_per_1k", ConfigKey::kInt, &params->budget_fraction, 1, 1000, 1e-3},
  };
}

SloTracker::SloTracker(MetricsRegistry* registry, const SloParams& params)
    : params_(params), window_(params.window) {
  if (registry != nullptr) {
    target_gauge_ = registry->GetGauge("slo.target_us");
    p99_gauge_ = registry->GetGauge("slo.window_p99_us");
    violations_gauge_ = registry->GetGauge("slo.violations");
    burn_gauge_ = registry->GetGauge("slo.burn_permille");
    target_gauge_->Set(params_.target / 1000);
  }
}

void SloTracker::Record(DurationNs latency) {
  if (params_.target == 0 || window_.capacity() == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (latency > params_.target) {
    ++violations_;
  }
  if (const auto evicted = window_.Push(latency); evicted && *evicted > params_.target) {
    --violations_;
  }
  if (++since_refresh_ >= params_.refresh_every) {
    RefreshLocked();
  }
}

void SloTracker::Refresh() {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshLocked();
}

void SloTracker::RefreshLocked() {
  since_refresh_ = 0;
  if (p99_gauge_ == nullptr) {
    return;
  }
  p99_gauge_->Set(P99Locked() / 1000);
  violations_gauge_->Set(violations_);
  burn_gauge_->Set(static_cast<int64_t>(BurnRateLocked() * 1000.0));
}

DurationNs SloTracker::P99Locked() const {
  if (window_.size() == 0) {
    return 0;
  }
  std::vector<DurationNs> sorted = window_.Snapshot();
  const size_t rank = sorted.size() > 1 ? (sorted.size() * 99) / 100 : 0;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank), sorted.end());
  return sorted[rank];
}

double SloTracker::BurnRateLocked() const {
  if (window_.size() == 0) {
    return 0.0;
  }
  const double rate = static_cast<double>(violations_) / static_cast<double>(window_.size());
  return rate / params_.budget_fraction;
}

DurationNs SloTracker::WindowP99() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return P99Locked();
}

double SloTracker::BurnRate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return BurnRateLocked();
}

int64_t SloTracker::violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violations_;
}

size_t SloTracker::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.size();
}

}  // namespace rmp
