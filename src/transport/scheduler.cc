#include "src/transport/scheduler.h"

#include <algorithm>
#include <chrono>

namespace rmp {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view TrafficClassName(TrafficClass c) {
  switch (c) {
    case TrafficClass::kPagein:
      return "pagein";
    case TrafficClass::kPageout:
      return "pageout";
    case TrafficClass::kControl:
      return "control";
    case TrafficClass::kBackground:
      return "background";
  }
  return "unknown";
}

TrafficClass ClassifyMessage(MessageType type) {
  switch (type) {
    case MessageType::kPageIn:
    case MessageType::kPageInReply:
    case MessageType::kPageInBatch:
    case MessageType::kPageInBatchReply:
      return TrafficClass::kPagein;
    case MessageType::kPageOut:
    case MessageType::kPageOutAck:
    case MessageType::kPageOutBatch:
    case MessageType::kPageOutBatchAck:
    case MessageType::kDeltaPageOut:
    case MessageType::kXorMerge:
    case MessageType::kXorMergeAck:
      return TrafficClass::kPageout;
    case MessageType::kHeartbeat:
    case MessageType::kHeartbeatAck:
    case MessageType::kMigrate:
    case MessageType::kMigrateReply:
      return TrafficClass::kBackground;
    default:
      return TrafficClass::kControl;
  }
}

FairShareScheduler::FairShareScheduler(SchedulerOptions options,
                                       const std::string& metric_prefix)
    : options_(options),
      queued_gauge_(*MetricsRegistry::Global().GetGauge(metric_prefix + ".queued")),
      dispatch_latency_us_(*MetricsRegistry::Global().GetHistogram(
          metric_prefix + ".dispatch_latency_us",
          HistogramOptions{1.0, 10e6, 48, /*log_scale=*/true})) {
  for (int c = 0; c < kTrafficClasses; ++c) {
    served_[c] = MetricsRegistry::Global().GetCounter(
        metric_prefix + ".served_" + std::string(TrafficClassName(static_cast<TrafficClass>(c))));
  }
  shed_ = MetricsRegistry::Global().GetCounter(metric_prefix + ".shed");
  TenantQueueLocked(0);  // The untenanted queue always exists.
}

FairShareScheduler::TenantQueue* FairShareScheduler::TenantQueueLocked(uint16_t tenant) {
  auto it = tenant_index_.find(tenant);
  if (it != tenant_index_.end()) {
    return tenants_[it->second].get();
  }
  auto queue = std::make_unique<TenantQueue>();
  queue->id = tenant;
  queue->weight = SchedulerOptions::kDefaultTenantWeight;
  for (const auto& [id, weight] : options_.tenant_weights) {
    if (id == tenant) {
      queue->weight = std::max(1, weight);
      break;
    }
  }
  queue->credit = queue->weight;
  for (int c = 0; c < kTrafficClasses; ++c) {
    queue->class_credits[c] = SchedulerOptions::kClassWeights[c];
  }
  tenant_index_.emplace(tenant, tenants_.size());
  tenants_.push_back(std::move(queue));
  return tenants_.back().get();
}

FairShareScheduler::~FairShareScheduler() {
  Stop();
  // A queued Item holds its Session, whose lane holds the Item: drop the
  // queues of sessions the owner never removed, or the cycle leaks them.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& tenant : tenants_) {
    for (auto& ring : tenant->rings) {
      for (RingEntry& entry : ring) {
        for (Lane& lane : entry.session->lanes) {
          lane.queue.clear();
        }
      }
      ring.clear();
    }
  }
  queued_gauge_.Add(-total_queued_);
}

std::shared_ptr<FairShareScheduler::Session> FairShareScheduler::AddSession(
    std::shared_ptr<void> owner, uint16_t tenant) {
  auto session = std::make_shared<Session>();
  session->owner = std::move(owner);
  session->lanes.resize(static_cast<size_t>(options_.lanes_per_session));
  std::lock_guard<std::mutex> lock(mutex_);
  session->id = next_session_id_++;
  session->tenant = tenant;
  TenantQueueLocked(tenant);
  return session;
}

void FairShareScheduler::SetSessionTenant(const std::shared_ptr<Session>& session,
                                          uint16_t tenant) {
  if (session == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (session->tenant == tenant) {
    return;
  }
  int64_t queued = 0;
  for (const Lane& lane : session->lanes) {
    queued += static_cast<int64_t>(lane.queue.size());
  }
  TenantQueue* old_queue = TenantQueueLocked(session->tenant);
  TenantQueue* new_queue = TenantQueueLocked(tenant);
  old_queue->queued = std::max<int64_t>(0, old_queue->queued - queued);
  new_queue->queued += queued;
  session->tenant = tenant;
}

void FairShareScheduler::RemoveSession(const std::shared_ptr<Session>& session) {
  if (session == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (session->dead) {
    return;
  }
  session->dead = true;
  // Drop queued items; in-service items finish (the worker holds the owner
  // backref alive through its Item copy). Ring entries for this session are
  // skipped lazily in Next.
  int64_t dropped = 0;
  for (Lane& lane : session->lanes) {
    dropped += static_cast<int64_t>(lane.queue.size());
    lane.queue.clear();
    lane.scheduled = false;
  }
  if (dropped > 0) {
    queued_gauge_.Add(-dropped);
    total_queued_ = std::max<int64_t>(0, total_queued_ - dropped);
    TenantQueue* tenant = TenantQueueLocked(session->tenant);
    tenant->queued = std::max<int64_t>(0, tenant->queued - dropped);
  }
  session->owner.reset();
}

bool FairShareScheduler::Submit(const std::shared_ptr<Session>& session, Message request) {
  return SubmitEx(session, std::move(request)) == SubmitResult::kOk;
}

SubmitResult FairShareScheduler::SubmitEx(const std::shared_ptr<Session>& session,
                                          Message request) {
  Item item;
  item.enqueue_ns = NowNanos();
  const int lane_idx = LaneOf(request);
  item.lane = lane_idx;
  item.session = session;
  const TrafficClass klass = ClassifyMessage(request.type);
  item.request = std::move(request);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || session->dead) {
      return SubmitResult::kRejected;
    }
    TenantQueue* tenant = TenantQueueLocked(session->tenant);
    if (ShedLocked(*tenant, klass)) {
      shed_->Increment();
      return SubmitResult::kShed;
    }
    item.owner = session->owner;
    Lane& lane = session->lanes[static_cast<size_t>(lane_idx)];
    lane.queue.push_back(std::move(item));
    queued_gauge_.Add(1);
    total_queued_ += 1;
    tenant->queued += 1;
    if (!lane.scheduled && !lane.running) {
      EnqueueLaneLocked(session, lane_idx);
    }
    WakeOneLocked();
  }
  return SubmitResult::kOk;
}

bool FairShareScheduler::ShedLocked(const TenantQueue& tenant, TrafficClass klass) const {
  // Shedding order mirrors the admission lanes: background first, pageout
  // under deeper overload, foreground pageins and control never — a shed
  // pagein would just come back as a retry of a blocked fault.
  if (klass == TrafficClass::kPagein || klass == TrafficClass::kControl) {
    return false;
  }
  if (options_.tenant_queue_cap > 0 && tenant.queued >= options_.tenant_queue_cap) {
    return true;
  }
  if (options_.shed_limit <= 0) {
    return false;
  }
  if (klass == TrafficClass::kBackground) {
    return total_queued_ >= static_cast<int64_t>(options_.shed_limit);
  }
  return total_queued_ >= 2 * static_cast<int64_t>(options_.shed_limit);
}

void FairShareScheduler::WakeOneLocked() {
  if (parked_.empty()) {
    return;
  }
  Waiter* waiter = parked_.back();
  parked_.pop_back();
  waiter->signaled = true;
  // Signaled under the mutex on purpose: the waiter's wait() cannot return
  // (and the worker thread cannot exit, destroying the thread-local Waiter)
  // until it reacquires the lock we hold, so the condvar stays alive for the
  // duration of the notify.
  waiter->cv.notify_one();
}

void FairShareScheduler::EnqueueLaneLocked(const std::shared_ptr<Session>& session, int lane) {
  Lane& state = session->lanes[static_cast<size_t>(lane)];
  // The lane joins the ring of the class its *head* request belongs to; a
  // lane mixing classes re-classifies every time it re-enters the ring. The
  // ring lives under the session's *current* tenant, so a lane re-entering
  // after SetSessionTenant migrates with its session.
  const TrafficClass c = ClassifyMessage(state.queue.front().request.type);
  TenantQueueLocked(session->tenant)->rings[static_cast<int>(c)].push_back(
      RingEntry{session, lane});
  state.scheduled = true;
}

bool FairShareScheduler::TenantRunnable(const TenantQueue& tenant) {
  for (const auto& ring : tenant.rings) {
    if (!ring.empty()) {
      return true;
    }
  }
  return false;
}

bool FairShareScheduler::HasRunnableLocked() const {
  for (const auto& tenant : tenants_) {
    if (TenantRunnable(*tenant)) {
      return true;
    }
  }
  return false;
}

FairShareScheduler::TenantQueue* FairShareScheduler::PickTenantLocked() {
  // Level-0 WRR, same two-pass shape as the class pick below, but scanned
  // from a rotating cursor: tenants are peers (no priority order), so ties
  // must not always break toward the lowest index.
  const size_t n = tenants_.size();
  if (n == 0) {
    return nullptr;
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      const size_t index = (tenant_cursor_ + i) % n;
      TenantQueue* tenant = tenants_[index].get();
      if (tenant->credit > 0 && TenantRunnable(*tenant)) {
        tenant_cursor_ = index;  // Next pick resumes here; credit exhaustion
                                 // is what moves the cursor on.
        return tenant;
      }
    }
    for (const auto& tenant : tenants_) {
      tenant->credit = tenant->weight;
    }
  }
  return nullptr;
}

int FairShareScheduler::PickClassLocked(TenantQueue* tenant) {
  // Two passes: first spend existing credit in priority order, then refill
  // everyone and take the highest-priority non-empty ring. The refill is the
  // fairness engine — weights bound each class's share of dispatch slots
  // under contention without ever starving a class outright.
  for (int pass = 0; pass < 2; ++pass) {
    for (int c = 0; c < kTrafficClasses; ++c) {
      if (!tenant->rings[c].empty() && tenant->class_credits[c] > 0) {
        return c;
      }
    }
    for (int c = 0; c < kTrafficClasses; ++c) {
      tenant->class_credits[c] = SchedulerOptions::kClassWeights[c];
    }
  }
  return -1;  // No runnable lane at all.
}

bool FairShareScheduler::DispatchLocked(Item* out) {
  // Stale ring entries (RemoveSession purged the lane) are skipped here, so
  // one call may pop several entries before producing an item.
  while (HasRunnableLocked()) {
    TenantQueue* tenant = PickTenantLocked();
    if (tenant == nullptr) {
      return false;
    }
    const int c = PickClassLocked(tenant);
    if (c < 0) {
      return false;
    }
    RingEntry entry = std::move(tenant->rings[c].front());
    tenant->rings[c].pop_front();
    Lane& lane = entry.session->lanes[static_cast<size_t>(entry.lane)];
    lane.scheduled = false;
    if (entry.session->dead || lane.queue.empty()) {
      continue;  // Stale: no credit spent.
    }
    tenant->credit -= 1;
    tenant->class_credits[c] -= 1;
    tenant->served += 1;
    tenant->queued = std::max<int64_t>(0, tenant->queued - 1);
    total_queued_ = std::max<int64_t>(0, total_queued_ - 1);
    *out = std::move(lane.queue.front());
    lane.queue.pop_front();
    lane.running = true;
    running_ += 1;
    queued_gauge_.Add(-1);
    served_[c]->Increment();
    dispatch_latency_us_.Observe(static_cast<double>(NowNanos() - out->enqueue_ns) / 1000.0);
    return true;
  }
  return false;
}

uint64_t FairShareScheduler::TenantServed(uint16_t tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenant_index_.find(tenant);
  return it == tenant_index_.end() ? 0 : tenants_[it->second]->served;
}

bool FairShareScheduler::Next(Item* out) {
  // Workers park LIFO: the most recently parked worker is woken first, so a
  // light load is served by a small hot subset of the pool while the rest
  // stay parked. Waking FIFO (a bare condition variable's typical order)
  // rotates every dispatch to a cold thread and measurably hurts a
  // single-core pipeline.
  static thread_local Waiter waiter;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (DispatchLocked(out)) {
      return true;
    }
    if (stopped_) {
      return false;
    }
    waiter.signaled = false;
    parked_.push_back(&waiter);
    waiter.cv.wait(lock, [&] { return waiter.signaled || stopped_; });
    if (!waiter.signaled) {
      // Woken by Stop's broadcast (or spuriously): unpark ourselves.
      auto it = std::find(parked_.begin(), parked_.end(), &waiter);
      if (it != parked_.end()) {
        parked_.erase(it);
      }
    }
  }
}

bool FairShareScheduler::TryNext(Item* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  return DispatchLocked(out);
}

bool FairShareScheduler::FinishLocked(const std::shared_ptr<Session>& session, int lane_idx) {
  Lane& lane = session->lanes[static_cast<size_t>(lane_idx)];
  lane.running = false;
  running_ -= 1;
  if (!session->dead && !lane.queue.empty() && !lane.scheduled) {
    EnqueueLaneLocked(session, lane_idx);
    return true;
  }
  return false;
}

void FairShareScheduler::Done(const Item& item) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (FinishLocked(item.session, item.lane)) {
    WakeOneLocked();
  }
}

bool FairShareScheduler::DoneAndNext(const std::shared_ptr<Session>& session, int lane,
                                     Item* out) {
  static thread_local Waiter waiter;
  std::unique_lock<std::mutex> lock(mutex_);
  FinishLocked(session, lane);
  for (;;) {
    if (DispatchLocked(out)) {
      if (HasRunnableLocked()) {
        WakeOneLocked();
      }
      return true;
    }
    if (stopped_) {
      return false;
    }
    waiter.signaled = false;
    parked_.push_back(&waiter);
    waiter.cv.wait(lock, [&] { return waiter.signaled || stopped_; });
    if (!waiter.signaled) {
      auto it = std::find(parked_.begin(), parked_.end(), &waiter);
      if (it != parked_.end()) {
        parked_.erase(it);
      }
    }
  }
}

bool FairShareScheduler::TryClaimInline(const std::shared_ptr<Session>& session,
                                        const Message& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_ || session->dead || total_queued_ > 0 || running_ > 0) {
    return false;
  }
  // Idle means every lane is empty and out of service, this one included.
  session->lanes[static_cast<size_t>(LaneOf(request))].running = true;
  running_ += 1;
  // Counted like a dispatch; with no queue wait, dispatch_latency_us has
  // nothing to observe.
  TenantQueueLocked(session->tenant)->served += 1;
  served_[static_cast<int>(ClassifyMessage(request.type))]->Increment();
  return true;
}

void FairShareScheduler::FinishInline(const std::shared_ptr<Session>& session,
                                      const Message& request, bool served) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!served) {
    // Declined: the request is about to be submitted and counted again.
    TenantQueueLocked(session->tenant)->served -= 1;
    served_[static_cast<int>(ClassifyMessage(request.type))]->Increment(-1);
  }
  if (FinishLocked(session, LaneOf(request))) {
    WakeOneLocked();
  }
}

void FairShareScheduler::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  // Under the mutex for the same lifetime reason as WakeOneLocked: a worker
  // may destroy its thread-local Waiter the moment it observes stopped_.
  for (Waiter* waiter : parked_) {
    waiter->cv.notify_one();
  }
  parked_.clear();
}

}  // namespace rmp
