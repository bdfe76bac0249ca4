#include "src/util/tracing.h"

#include <utility>

#include "src/util/logging.h"

namespace rmp {
namespace {

// Latencies span sub-µs control hops to multi-second degraded recoveries:
// log-scale buckets from 100 ns to 10 s keep both ends resolvable.
HistogramOptions StageHistogramOptions() {
  HistogramOptions options;
  options.lo = 100.0;
  options.hi = 10e9;
  options.buckets = 64;
  options.log_scale = true;
  return options;
}

}  // namespace

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kPageOut:
      return "pageout";
    case TraceOp::kPageIn:
      return "pagein";
  }
  return "unknown";
}

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kPolicy:
      return "policy";
    case TraceStage::kBackoff:
      return "backoff";
    case TraceStage::kQueue:
      return "queue";
    case TraceStage::kWire:
      return "wire";
    case TraceStage::kService:
      return "service";
    case TraceStage::kParity:
      return "parity";
    case TraceStage::kDisk:
      return "disk";
    case TraceStage::kServerQueue:
      return "srv_queue";
    case TraceStage::kServerService:
      return "srv_service";
    case TraceStage::kServerStore:
      return "srv_store";
    case TraceStage::kServerDisk:
      return "srv_disk";
  }
  return "unknown";
}

ConfigTable TraceConfigKeys(PageTracerOptions* options) {
  return {
      {"trace.ring", ConfigKey::kInt, &options->ring_capacity, 0, 1 << 20},
      {"trace.slow_op_us", ConfigKey::kInt, &options->slow_op_ns, 0, kNoLimit / 1e3, 1e3},
      {"trace.sample_per_1k", ConfigKey::kInt, &options->sample_per_1k, 0, 1000},
      {"trace.max_spans", ConfigKey::kInt, &options->max_spans, 1, 1 << 16},
  };
}

DurationNs TraceRecord::StageTime(TraceStage stage) const {
  DurationNs total_ns = 0;
  for (const TraceSpan& span : spans) {
    if (span.stage == stage) {
      total_ns += span.duration;
    }
  }
  return total_ns;
}

PageTracer::PageTracer(MetricsRegistry* registry, const PageTracerOptions& options)
    : options_(options), registry_(registry), ring_(options.ring_capacity) {
  enabled_.store(options.sample_per_1k > 0, std::memory_order_relaxed);
  if (registry_ != nullptr) {
    for (int s = 0; s < kNumTraceStages; ++s) {
      const std::string key =
          std::string("trace.stage.") + TraceStageName(static_cast<TraceStage>(s)) + "_ns";
      stage_histograms_[static_cast<size_t>(s)] =
          registry_->GetHistogram(key, StageHistogramOptions());
    }
    for (int o = 0; o < kNumTraceOps; ++o) {
      const std::string base = std::string("trace.") + TraceOpName(static_cast<TraceOp>(o));
      total_histograms_[static_cast<size_t>(o)] =
          registry_->GetHistogram(base + ".total_ns", StageHistogramOptions());
      op_counters_[static_cast<size_t>(o)] = registry_->GetCounter(base + ".count");
    }
    slow_counter_ = registry_->GetCounter("trace.slow_ops");
    dropped_counter_ = registry_->GetCounter("trace.dropped");
  }
}

uint64_t PageTracer::Begin(TraceOp op, uint64_t page_id, TimeNs now) {
  // Tracer hard-off (sample_per_1k == 0): one relaxed load, no lock — the
  // provably-zero-overhead configuration (DESIGN.md §17).
  if (!enabled_.load(std::memory_order_relaxed)) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ || options_.ring_capacity == 0) {
    return 0;
  }
  // Head sampling: a deterministic rotation admits sample_per_1k of every
  // 1000 operations offered, so runs stay bit-reproducible.
  ++sample_seq_;
  if (options_.sample_per_1k < 1000 &&
      static_cast<int>(sample_seq_ % 1000) >= options_.sample_per_1k) {
    ++sampled_out_;
    return 0;
  }
  active_ = true;
  current_ = TraceRecord();
  current_.id = next_id_++;
  current_.op = op;
  current_.page_id = page_id;
  current_.start = now;
  current_extra_spans_ = 0;
  wire_id_.store(static_cast<uint32_t>(current_.id), std::memory_order_relaxed);
  return current_.id;
}

void PageTracer::Span(TraceStage stage, TimeNs start, TimeNs end) {
  if (end <= start || !enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  HistogramMetric* histogram = stage_histograms_[static_cast<size_t>(stage)];
  if (histogram != nullptr) {
    histogram->Observe(static_cast<double>(end - start));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) {
    return;
  }
  if (current_.spans.size() >= options_.max_spans) {
    ++current_extra_spans_;
    return;
  }
  current_.spans.push_back(TraceSpan{stage, start, end - start});
}

void PageTracer::AttachServerSpan(uint32_t trace_id, TraceStage stage, TimeNs start,
                                  DurationNs duration) {
  if (trace_id == 0 || duration <= 0) {
    return;
  }
  HistogramMetric* histogram = stage_histograms_[static_cast<size_t>(stage)];
  if (histogram != nullptr) {
    histogram->Observe(static_cast<double>(duration));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // The matching record is usually recent: the ring searches newest-first.
  TraceRecord* record = ring_.FindNewest(
      [trace_id](const TraceRecord& r) { return static_cast<uint32_t>(r.id) == trace_id; });
  if (record != nullptr && record->spans.size() < options_.max_spans) {
    record->spans.push_back(TraceSpan{stage, start, duration});
  }
}

void PageTracer::End(uint64_t id, TimeNs now, bool ok) {
  if (id == 0) {
    return;
  }
  // What the code after the unlock reads; the record itself moves into the ring.
  TraceOp op;
  uint64_t page_id;
  DurationNs total;
  size_t spans;
  bool slow;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_ || current_.id != id) {
      return;
    }
    active_ = false;
    wire_id_.store(0, std::memory_order_relaxed);
    current_.total = now - current_.start;
    current_.ok = ok;
    if (current_extra_spans_ > 0) {
      RMP_LOG(kDebug) << "trace " << id << " overflowed span cap; " << current_extra_spans_
                      << " spans uncounted in record";
    }
    op = current_.op;
    page_id = current_.page_id;
    total = current_.total;
    spans = current_.spans.size();
    slow = options_.slow_op_ns > 0 && total >= options_.slow_op_ns;
    ++total_traces_;
    if (ring_.Push(std::move(current_)) && dropped_counter_ != nullptr) {
      dropped_counter_->Increment();
    }
    if (slow) {
      ++slow_ops_;
    }
  }
  const size_t op_index = static_cast<size_t>(op);
  if (slo_ != nullptr) {
    slo_->Record(total);
  }
  if (total_histograms_[op_index] != nullptr) {
    total_histograms_[op_index]->Observe(static_cast<double>(total));
  }
  if (op_counters_[op_index] != nullptr) {
    op_counters_[op_index]->Increment();
  }
  if (slow) {
    if (slow_counter_ != nullptr) {
      slow_counter_->Increment();
    }
    RMP_LOG(kWarning) << "slow " << TraceOpName(op) << " page=" << page_id << " trace=" << id
                      << " took " << total << " ns (threshold " << options_.slow_op_ns
                      << " ns), " << spans << " spans, ok=" << (ok ? 1 : 0);
  }
}

bool PageTracer::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

size_t PageTracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

int64_t PageTracer::total_traces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_traces_;
}

int64_t PageTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.dropped();
}

int64_t PageTracer::slow_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slow_ops_;
}

int64_t PageTracer::sampled_out() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sampled_out_;
}

void PageTracer::AttachSlo(SloTracker* slo) {
  std::lock_guard<std::mutex> lock(mutex_);
  slo_ = slo;
}

void PageTracer::Reconfigure(const PageTracerOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
  ring_.Resize(options.ring_capacity);
  active_ = false;
  current_ = TraceRecord();
  wire_id_.store(0, std::memory_order_relaxed);
  enabled_.store(options.sample_per_1k > 0, std::memory_order_relaxed);
}

std::vector<TraceRecord> PageTracer::Records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.Snapshot();
}

std::string PageTracer::ToJson() const {
  const std::vector<TraceRecord> records = Records();
  std::string out = "[";
  for (size_t r = 0; r < records.size(); ++r) {
    const TraceRecord& record = records[r];
    if (r > 0) {
      out += ",";
    }
    out += "{\"id\":" + std::to_string(record.id);
    out += ",\"op\":\"" + std::string(TraceOpName(record.op)) + "\"";
    out += ",\"page\":" + std::to_string(record.page_id);
    out += ",\"start\":" + std::to_string(record.start);
    out += ",\"total\":" + std::to_string(record.total);
    out += ",\"ok\":" + std::string(record.ok ? "true" : "false");
    out += ",\"spans\":[";
    for (size_t s = 0; s < record.spans.size(); ++s) {
      const TraceSpan& span = record.spans[s];
      if (s > 0) {
        out += ",";
      }
      out += "{\"stage\":\"" + std::string(TraceStageName(span.stage)) + "\"";
      out += ",\"start\":" + std::to_string(span.start);
      out += ",\"dur\":" + std::to_string(span.duration) + "}";
    }
    out += "]}";
  }
  out += "]";
  return out;
}

void PageTracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = false;
  current_ = TraceRecord();
  ring_ = BoundedRing<TraceRecord>(ring_.capacity());
  total_traces_ = 0;
  slow_ops_ = 0;
  sampled_out_ = 0;
  wire_id_.store(0, std::memory_order_relaxed);
}

SpanRing::SpanRing(size_t capacity) : ring_(capacity) {}

void SpanRing::Record(uint32_t trace_id, TraceStage stage, TimeNs start, DurationNs duration) {
  if (trace_id == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.Push(ServerSpan{trace_id, stage, start, duration});
}

std::vector<ServerSpan> SpanRing::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.Snapshot();
}

std::vector<ServerSpan> SpanRing::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.Drain();
}

size_t SpanRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

int64_t SpanRing::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.dropped();
}

size_t SpanRing::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.capacity();
}

void SpanRing::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.Resize(capacity);
}

std::string SpanRing::ToJson() const {
  const std::vector<ServerSpan> spans = Spans();
  std::string out = "[";
  for (size_t s = 0; s < spans.size(); ++s) {
    const ServerSpan& span = spans[s];
    if (s > 0) {
      out += ",";
    }
    out += "{\"trace\":" + std::to_string(span.trace_id);
    out += ",\"stage\":\"" + std::string(TraceStageName(span.stage)) + "\"";
    out += ",\"start\":" + std::to_string(span.start);
    out += ",\"dur\":" + std::to_string(span.duration) + "}";
  }
  out += "]";
  return out;
}

ServerTraceScratch& ServerScratch() {
  thread_local ServerTraceScratch scratch;
  return scratch;
}

}  // namespace rmp
