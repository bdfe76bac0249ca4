// Two-level fair-share request scheduler (DESIGN.md §13).
//
// The reactor's loop threads must never block on request service, so decoded
// requests are handed to a small worker pool through this scheduler — unless
// the scheduler is idle, when the loop may claim the lane and serve a short
// request itself (TryClaimInline: run to completion, no handoff). Per-slot
// FIFO dispatch — what the thread-per-session transport did — lets a single
// saturating background stream (repair resilver, migration drains) queue
// ahead of foreground page faults. Here dispatch is fair at two levels:
//
//   Level 1: traffic classes, weighted round-robin. A foreground PAGEIN is
//            worth more scheduler credit than a PAGEOUT, which outranks
//            background repair/migration/heartbeat traffic. Weights are
//            a ratio, not a priority: background classes still drain (no
//            starvation in either direction), just slower under contention.
//   Level 2: round-robin across session lanes within a class, so one chatty
//            session cannot monopolize its class.
//
// A "lane" is the unit of ordering: requests in one lane are served FIFO and
// never concurrently. Each session splits into `lanes_per_session` lanes by
// slot (lane = slot % lanes), which reproduces the old transport's slot
//-affinity guarantee — same-slot requests stay ordered, different slots may
// be served in parallel — without a worker pool per session.
//
// Level 0 (DESIGN.md §15): tenants. Sessions carry a tenant id (bound at
// AUTH); each tenant owns its own set of class rings and the top-level pick
// is weighted round-robin across tenants, so dispatch share is
// tenant weight × class weight and a flooding tenant cannot starve another
// tenant's traffic. With every session on tenant 0 (the default) there is
// exactly one tenant queue and the scheduler reduces to the two-level form.
// Overload shedding (shed_limit / tenant_queue_cap) drops over-quota
// background and pageout work at Submit — before it eats queue memory —
// while foreground pageins and control traffic are never shed.

#ifndef SRC_TRANSPORT_SCHEDULER_H_
#define SRC_TRANSPORT_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/proto/wire.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace rmp {

// Level-1 taxonomy. Order is dispatch priority under equal credit.
enum class TrafficClass : uint8_t {
  kPagein = 0,      // Foreground faults: a thread is blocked on this reply.
  kPageout = 1,     // Dirty-page writeback: urgent but bufferable.
  kControl = 2,     // Alloc/free/load/auth/stats — small and rare.
  kBackground = 3,  // Repair, migration, heartbeats: bulk resilver traffic.
};
inline constexpr int kTrafficClasses = 4;

std::string_view TrafficClassName(TrafficClass c);

// Maps a request type to its class (replies classify with their requests so
// peer-to-peer streams schedule symmetrically).
TrafficClass ClassifyMessage(MessageType type);

struct SchedulerOptions {
  // Weighted-round-robin credits per refill, indexed by TrafficClass: 8:4:2:1
  // — under full contention foreground pagein gets ~53% of dispatch slots,
  // background ~7%.
  static constexpr int kClassWeights[kTrafficClasses] = {8, 4, 2, 1};
  // Ordering lanes per session (lane = slot % lanes_per_session). 1 = strict
  // per-session FIFO; >1 allows same-session parallelism across slots.
  int lanes_per_session = 8;

  // --- Tenant WFQ + shedding (DESIGN.md §15) ------------------------------
  // Per-tenant dispatch weights (id → weight); tenants without a row (and
  // tenant 0) weigh kDefaultTenantWeight. Ratios, not priorities: every
  // tenant keeps draining under contention.
  std::vector<std::pair<uint16_t, int>> tenant_weights;
  static constexpr int kDefaultTenantWeight = 1;
  // Overload shedding. 0 = never shed. With a limit S, background submits
  // are shed once the total backlog reaches S and pageout-class submits once
  // it reaches 2·S; pagein and control traffic is never shed.
  int shed_limit = 0;
  // Per-tenant backlog cap for sheddable (pageout/background) submits;
  // 0 = uncapped. Bounds the queue memory one flooding tenant can pin.
  int tenant_queue_cap = 0;
};

// Outcome of SubmitEx. kRejected = dead session or stopped scheduler (the
// old `false`); kShed = overload policy dropped the request — the transport
// answers RESOURCE_EXHAUSTED so the client backs off instead of retrying
// blind.
enum class SubmitResult : uint8_t { kOk, kRejected, kShed };

// Thread-safe two-level fair-share queue. Producers (loop threads) Submit,
// consumers (workers) block in Next and call Done after servicing the item;
// a lane is not eligible for dispatch again until its previous item is Done.
class FairShareScheduler {
 public:
  struct Session;

  struct Item {
    Message request;
    std::shared_ptr<Session> session;
    // Copy of the session's owner backref, taken under the scheduler lock at
    // Submit so workers can use it without racing RemoveSession's reset.
    std::shared_ptr<void> owner;
    int lane = 0;
    int64_t enqueue_ns = 0;
  };

  explicit FairShareScheduler(SchedulerOptions options = SchedulerOptions(),
                              const std::string& metric_prefix = "sched");
  ~FairShareScheduler();

  FairShareScheduler(const FairShareScheduler&) = delete;
  FairShareScheduler& operator=(const FairShareScheduler&) = delete;

  // Registers a session. `owner` is an opaque backref (the transport's
  // per-connection state) kept alive as long as items for this session are
  // in flight. `tenant` seeds the session's tenant id (0 = untenanted).
  std::shared_ptr<Session> AddSession(std::shared_ptr<void> owner, uint16_t tenant = 0);

  // Rebinds the session to `tenant` (the transport calls this when AUTH
  // binds one). Work already queued transfers its backlog accounting; lanes
  // already scheduled drain from the old tenant's rings once, then rejoin
  // under the new tenant.
  void SetSessionTenant(const std::shared_ptr<Session>& session, uint16_t tenant);

  // Marks the session dead and drops its queued (not in-service) items.
  void RemoveSession(const std::shared_ptr<Session>& session);

  // Enqueues one request. Returns false when the session is dead or the
  // scheduler stopped (the caller drops the request).
  bool Submit(const std::shared_ptr<Session>& session, Message request);
  // Like Submit, but distinguishes a dead-session rejection from an overload
  // shed so the transport can answer them differently.
  SubmitResult SubmitEx(const std::shared_ptr<Session>& session, Message request);

  // Blocks for the next item; false when stopped and drained. The item's
  // lane is held out of rotation until Done(item).
  bool Next(Item* out);
  // Like Next but never blocks: false when nothing is runnable right now.
  // Lets workers drain a burst and batch (cork) the replies per connection
  // before going back to a blocking wait.
  bool TryNext(Item* out);
  void Done(const Item& item);

  // Done + Next fused into one critical section: completes `lane` of
  // `session`, then the finishing worker claims the next runnable item for
  // itself. Done followed by Next wakes a parked peer that usually loses the
  // race to the finisher and parks again — a wasted futex wake/wait pair per
  // request in steady state. Here a peer is woken only when runnable work
  // remains after the self-dispatch, which keeps the pool work-conserving
  // without the churn.
  bool DoneAndNext(const std::shared_ptr<Session>& session, int lane, Item* out);

  // Run to completion (DESIGN.md §13): claims the lane `request` maps to in
  // `session` so the caller can serve it on its own thread, skipping the
  // queue and the worker wakeup. Granted only when the scheduler is idle —
  // nothing queued for any tenant and no lane in service — so an inline
  // dispatch never overtakes queued work, and WFQ order, lane FIFO and
  // shedding behave exactly as without it. Refused for a dead session or a
  // stopped scheduler. A granted claim counts as a dispatch in served() and
  // TenantServed(), and must be ended with FinishInline.
  bool TryClaimInline(const std::shared_ptr<Session>& session, const Message& request);
  // Ends an inline claim like Done ends a dispatch. `served` false (the
  // handler declined; the caller will Submit the request instead) also takes
  // back the claim's dispatch count.
  void FinishInline(const std::shared_ptr<Session>& session, const Message& request,
                    bool served);

  // Wakes all waiters; Next returns false once the queues are drained... and
  // immediately for items submitted after.
  void Stop();

  size_t queued() const { return queued_gauge_.value() < 0 ? 0 : static_cast<size_t>(queued_gauge_.value()); }
  int64_t served(TrafficClass c) const { return served_[static_cast<int>(c)]->value(); }
  // Items dispatched on behalf of `tenant` (fairness assertions read this).
  uint64_t TenantServed(uint16_t tenant) const;
  // Submits dropped by the overload policy since construction.
  int64_t shed_total() const { return shed_->value(); }
  const SchedulerOptions& options() const { return options_; }

  struct Lane {
    std::deque<Item> queue;   // Front = next to serve. Items carry their lane.
    bool scheduled = false;   // Present in its class ring.
    bool running = false;     // A worker is servicing this lane's head.
  };

  struct Session {
    std::shared_ptr<void> owner;
    std::vector<Lane> lanes;
    bool dead = false;
    uint64_t id = 0;
    uint16_t tenant = 0;  // Guarded by the scheduler mutex.
  };

 private:
  struct RingEntry {
    std::shared_ptr<Session> session;
    int lane;
  };

  // Level-0 unit: one tenant's class rings plus its WRR accounting. Objects
  // are heap-stable (vector of unique_ptr), so pointers survive growth.
  struct TenantQueue {
    uint16_t id = 0;
    int weight = 1;
    int credit = 1;
    std::deque<RingEntry> rings[kTrafficClasses];
    int class_credits[kTrafficClasses] = {0, 0, 0, 0};
    int64_t queued = 0;    // Items sitting in lanes of this tenant's sessions.
    uint64_t served = 0;   // Items dispatched.
  };

  // One per worker thread (thread-local in Next). Workers park on their own
  // condition variable in a LIFO stack so dispatch wakes the hottest worker
  // instead of round-robining the whole pool through the run queue.
  struct Waiter {
    std::condition_variable cv;
    bool signaled = false;  // Guarded by mutex_.
  };

  int LaneOf(const Message& request) const {
    return static_cast<int>(request.slot % static_cast<uint64_t>(options_.lanes_per_session));
  }

  // All private helpers run under mutex_.
  TenantQueue* TenantQueueLocked(uint16_t tenant);
  TenantQueue* PickTenantLocked();
  int PickClassLocked(TenantQueue* tenant);
  bool ShedLocked(const TenantQueue& tenant, TrafficClass klass) const;
  bool DispatchLocked(Item* out);
  bool HasRunnableLocked() const;
  static bool TenantRunnable(const TenantQueue& tenant);
  void EnqueueLaneLocked(const std::shared_ptr<Session>& session, int lane);
  // Returns true when the lane was re-enqueued (more queued work behind it).
  bool FinishLocked(const std::shared_ptr<Session>& session, int lane);
  // Pops and signals the most recently parked waiter, while still holding
  // mutex_ — the waiter's thread-local Waiter may be destroyed the instant
  // its wait() returns, so the notify must complete before it can.
  void WakeOneLocked();

  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::vector<Waiter*> parked_;  // LIFO stack of idle workers.
  bool stopped_ = false;
  uint64_t next_session_id_ = 1;
  // Level-0 tenant queues, created on first use (tenant 0 at construction).
  std::vector<std::unique_ptr<TenantQueue>> tenants_;
  std::unordered_map<uint16_t, size_t> tenant_index_;
  size_t tenant_cursor_ = 0;  // Round-robin start for the tenant scan.
  int64_t total_queued_ = 0;  // Backlog across all tenants (shed threshold).
  int64_t running_ = 0;       // Lanes in service, by workers or inline.

  Counter* served_[kTrafficClasses];
  Counter* shed_;
  Gauge& queued_gauge_;
  HistogramMetric& dispatch_latency_us_;
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_SCHEDULER_H_
