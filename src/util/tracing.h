// Page-lifecycle tracing (DESIGN.md §12).
//
// The paper's evaluation decomposes pageout/pagein cost stage by stage
// (queueing, wire transfer, server service, parity work); this module is the
// instrument that produces that decomposition from live runs. Each paging
// operation gets a trace id at the policy entry point; as the operation
// crosses retry/backoff, the fabric queue, the wire, protocol service, and
// parity or disk work, the charge helpers stamp spans onto it. Completed
// traces land in a bounded ring buffer (for TRACE_DUMP introspection),
// per-stage latency histograms in a MetricsRegistry (for percentiles), and —
// when an operation exceeds the slow-op threshold — a warning log line.
//
// All times are simulated TimeNs, so traces are bit-reproducible. TraceScope
// holds a pointer to the caller's running `now` variable and finalizes the
// trace with whatever value it has when the scope unwinds; a scope opened
// while another trace is active is inert (batch paths and recovery reuse the
// same primitives without double-tracing).

#ifndef SRC_UTIL_TRACING_H_
#define SRC_UTIL_TRACING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/bounded_ring.h"
#include "src/util/config.h"
#include "src/util/metrics.h"
#include "src/util/slo.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace rmp {

enum class TraceOp { kPageOut = 0, kPageIn = 1 };
inline constexpr int kNumTraceOps = 2;

// Where an operation spent its time. kService is protocol processing (the
// per-message CPU cost the paper attributes to the server and stack), kQueue
// is waiting behind earlier transfers for the shared wire, kWire the
// transfer occupancy itself.
enum class TraceStage {
  kPolicy = 0,   // Policy bookkeeping not attributed to a finer stage.
  kBackoff = 1,  // Sleeping between retry attempts.
  kQueue = 2,    // Queued behind earlier transfers on the wire Resource.
  kWire = 3,     // Wire occupancy of this transfer.
  kService = 4,  // Protocol / server service time (modeled, client view).
  kParity = 5,   // Parity compute + parity-log traffic.
  kDisk = 6,     // Local-disk reads/writes (overflow, write-through).
  // Server-side stages (DESIGN.md §17): *measured* wall-clock spans recorded
  // in the server's span ring under the request's wire trace id and stitched
  // into the client record at TRACE_DUMP time. They decompose the single
  // inferred wire+service gap the client-side stages leave.
  kServerQueue = 7,    // Scheduler queue + lane wait before a worker picked it up.
  kServerService = 8,  // Handler execution, dispatch to reply built.
  kServerStore = 9,    // Store path: hot frame / cold decompress / dedup work.
  kServerDisk = 10,    // Cold-extent spill / unspill I/O.
};
inline constexpr int kNumTraceStages = 11;
// Stages measured server-side (wall clock) rather than in simulated time.
inline constexpr bool IsServerStage(TraceStage stage) {
  return static_cast<int>(stage) >= static_cast<int>(TraceStage::kServerQueue);
}

const char* TraceOpName(TraceOp op);
const char* TraceStageName(TraceStage stage);

struct TraceSpan {
  TraceStage stage = TraceStage::kPolicy;
  TimeNs start = 0;
  DurationNs duration = 0;
};

// One completed paging operation.
struct TraceRecord {
  uint64_t id = 0;
  TraceOp op = TraceOp::kPageOut;
  uint64_t page_id = 0;
  TimeNs start = 0;
  DurationNs total = 0;
  bool ok = false;
  std::vector<TraceSpan> spans;  // In recording order.

  // Sum of span durations attributed to `stage`.
  DurationNs StageTime(TraceStage stage) const;
};

struct PageTracerOptions {
  // Records the ring holds; 0 disables the ring (Begin returns 0, stage
  // histograms still feed).
  size_t ring_capacity = 1024;
  // Operations completing in >= this much simulated time get a warning log
  // line and bump the slow-op counter; 0 disables the check.
  DurationNs slow_op_ns = 0;
  // Spans beyond this per trace are counted but not stored (a pathological
  // retry storm should not balloon a ring entry).
  size_t max_spans = 64;
  // Head sampling (DESIGN.md §17): of every 1000 operations, this many open
  // a trace (ring record + wire trace-id propagation). >= 1000 traces every
  // operation (the pre-sampling behaviour). 0 disables the tracer entirely —
  // Begin and Span become branch-and-return, no lock, no histogram — so
  // tracing-off is provably off the hot path. Sampled-out operations (0 <
  // rate < 1000) still feed the client stage histograms; only the ring
  // record and the wire stamp are sampled.
  int sample_per_1k = 1000;
};

// The `trace.*` config table over `options` (README: observability knobs).
ConfigTable TraceConfigKeys(PageTracerOptions* options);

// Not copyable; hand out pointers. Thread-safe (one mutex — tracing is for
// observability, not a contended hot path), but only one trace is active at
// a time: Begin while a trace is open returns 0, and spans recorded outside
// any open trace still feed the stage histograms.
class PageTracer {
 public:
  explicit PageTracer(MetricsRegistry* registry = nullptr,
                      const PageTracerOptions& options = PageTracerOptions());
  PageTracer(const PageTracer&) = delete;
  PageTracer& operator=(const PageTracer&) = delete;

  // Opens a trace; returns its id, or 0 if one is already active (the caller
  // treats 0 as "inert": End(0, ...) is a no-op).
  uint64_t Begin(TraceOp op, uint64_t page_id, TimeNs now);

  // Stamps a span onto the active trace (if any) and the stage histogram.
  // Zero-length spans are dropped.
  void Span(TraceStage stage, TimeNs start, TimeNs end);

  // Closes trace `id`: computes the total, pushes the record into the ring,
  // feeds the per-op total histogram, and logs if over the slow threshold.
  void End(uint64_t id, TimeNs now, bool ok);

  // Stitches one server-recorded span into this tracer (DESIGN.md §17):
  // feeds the (server) stage histogram and, when the ring still holds the
  // record whose low 32 id bits match `trace_id`, appends the span to it.
  // `start` is server wall-clock time; `duration` is what percentiles see.
  void AttachServerSpan(uint32_t trace_id, TraceStage stage, TimeNs start, DurationNs duration);

  // The low 32 bits of the currently active trace id (0 = none). ServerPeer
  // reads this atomically on every RPC to stamp the wire frame; handing out
  // the atomic keeps the hot path at one relaxed load.
  const std::atomic<uint32_t>* wire_id() const { return &wire_id_; }

  // Replaces the options at runtime (Config-driven): resizes the ring
  // (clearing it) and re-arms sampling and the slow-op threshold. Any active
  // trace is abandoned.
  void Reconfigure(const PageTracerOptions& options);

  // Completed-trace latencies additionally feed this SLO window (not owned;
  // null detaches). With sampling, the window sees the sampled subset.
  void AttachSlo(SloTracker* slo);

  bool active() const;
  size_t size() const;           // Records currently held in the ring.
  int64_t total_traces() const;  // Traces ever completed.
  int64_t dropped() const;       // Ring overwrites (oldest records lost).
  int64_t slow_ops() const;

  // Ring contents, oldest first.
  std::vector<TraceRecord> Records() const;
  // JSON array of ring records (the TRACE_DUMP payload).
  std::string ToJson() const;

  void Reset();

  PageTracerOptions options() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return options_;
  }
  int64_t sampled_out() const;  // Begins skipped by head sampling.

 private:
  PageTracerOptions options_;  // Guarded by mutex_ (Reconfigure rewrites it).
  MetricsRegistry* registry_;  // May be null: ring + log only.
  // Cached metric pointers (stable for the registry's lifetime).
  std::array<HistogramMetric*, kNumTraceStages> stage_histograms_{};
  std::array<HistogramMetric*, kNumTraceOps> total_histograms_{};
  std::array<Counter*, kNumTraceOps> op_counters_{};
  Counter* slow_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  SloTracker* slo_ = nullptr;

  // Hot-path fast flags, readable without mutex_: enabled_ is false only
  // when sampling is 0 (tracer hard-off); wire_id_ mirrors the active
  // trace's low 32 id bits for wire stamping.
  std::atomic<bool> enabled_{true};
  std::atomic<uint32_t> wire_id_{0};

  mutable std::mutex mutex_;
  bool active_ = false;
  TraceRecord current_;
  int64_t current_extra_spans_ = 0;
  uint64_t next_id_ = 1;
  uint64_t sample_seq_ = 0;  // Operations offered to Begin (sampling rotation).
  int64_t sampled_out_ = 0;
  BoundedRing<TraceRecord> ring_;
  int64_t total_traces_ = 0;
  int64_t slow_ops_ = 0;
};

// RAII trace for one policy-level PageOut/PageIn. Holds a pointer to the
// caller's running simulated-time variable so the destructor closes the
// trace at whatever time the operation actually reached, on every exit path.
// Failure is the default; call set_ok() on the success path.
class TraceScope {
 public:
  TraceScope(PageTracer* tracer, TraceOp op, uint64_t page_id, const TimeNs* now)
      : tracer_(tracer), now_(now) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Begin(op, page_id, *now_);
    }
  }
  ~TraceScope() {
    if (tracer_ != nullptr && id_ != 0) {
      tracer_->End(id_, *now_, ok_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void set_ok() { ok_ = true; }
  // Nonzero iff this scope owns the active trace.
  uint64_t id() const { return id_; }

 private:
  PageTracer* tracer_;
  const TimeNs* now_;
  uint64_t id_ = 0;
  bool ok_ = false;
};

// One server-side measured span (DESIGN.md §17). Times are the *server's*
// wall clock (steady-clock nanoseconds) — servers have no simulated time.
struct ServerSpan {
  uint32_t trace_id = 0;  // The wire trace id the request carried.
  TraceStage stage = TraceStage::kServerService;
  TimeNs start = 0;
  DurationNs duration = 0;
};

// Bounded, thread-safe ring of server-side spans. Each MemoryServer owns
// one; traced requests append, TRACE_DUMP (document 1) serializes it, and
// the client drains it for stitching. Append cost is one short mutex-guarded
// ring write, paid only by traced (sampled-in) requests.
class SpanRing {
 public:
  explicit SpanRing(size_t capacity = 4096);
  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  void Record(uint32_t trace_id, TraceStage stage, TimeNs start, DurationNs duration);

  // Ring contents, oldest first.
  std::vector<ServerSpan> Spans() const;
  // Moves the ring's contents out, oldest first, leaving it empty (the
  // stitch pull).
  std::vector<ServerSpan> Drain();

  size_t size() const;
  int64_t dropped() const;  // Ring overwrites.
  size_t capacity() const;
  void SetCapacity(size_t capacity);  // Clears the ring.

  // JSON array: [{"trace":..,"stage":"srv_service","start":..,"dur":..},...].
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  BoundedRing<ServerSpan> ring_;
};

// Per-thread scratch carrying measurements across the layers of one traced
// request: the transport worker deposits the scheduler queue delay before
// invoking the handler, and the store internals accumulate store/disk time
// while `active` — so MessageHandler::Handle needs no side channel in its
// signature. Untraced requests never touch it beyond the `active` check.
struct ServerTraceScratch {
  bool active = false;
  int64_t queue_ns = 0;  // Scheduler queue + lane wait (set by the transport).
  int64_t store_ns = 0;  // Accumulated store-path time.
  int64_t disk_ns = 0;   // Accumulated spill/unspill I/O time.
};
ServerTraceScratch& ServerScratch();

}  // namespace rmp

#endif  // SRC_UTIL_TRACING_H_
