#include "perfbench/src/ledger.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/bytes.h"

namespace perfbench {

using rmp::Message;
using rmp::MessageType;

namespace {

// The backend op the calling thread is inside (0 = none); RPCs issued on
// the same thread are attributed to it.
thread_local uint64_t current_op = 0;

OpKind KindOf(MessageType type) {
  switch (type) {
    case MessageType::kPageIn:
    case MessageType::kPageInBatch:
      return OpKind::kPageIn;
    case MessageType::kPageOut:
    case MessageType::kPageOutBatch:
      return OpKind::kPageOut;
    default:
      return OpKind::kOther;
  }
}

const char* KindName(OpKind kind) { return kind == OpKind::kPageIn ? "pagein" : "pageout"; }

// Total length of the union of [lo, hi) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) {
      continue;
    }
    if (!open || lo > cur_hi) {
      if (open) {
        total += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) {
    total += cur_hi - cur_lo;
  }
  return total;
}

int64_t TimevalNs(const timeval& tv) {
  return static_cast<int64_t>(tv.tv_sec) * 1000000000 + static_cast<int64_t>(tv.tv_usec) * 1000;
}

constexpr double kFrameOverhead = rmp::kWirePrefixSize;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

pid_t ThreadId() { return static_cast<pid_t>(syscall(SYS_gettid)); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// --- Recorder -------------------------------------------------------------------

Recorder::Recorder(bool traced, int servers) : traced_(traced) {
  for (int i = 0; i < servers; ++i) {
    servers_.push_back(std::make_unique<ServerLog>());
  }
}

void Recorder::Reset() {
  backend_ns_ = 0;
  pagein_us_.clear();
  pageout_us_.clear();
  op_records_.clear();
  rpcs_.clear();
  inflight_max_ = 0;
  inflight_sum_ = 0;
  inflight_samples_ = 0;
  for (auto& log : servers_) {
    std::lock_guard<std::mutex> lock(log->mutex);
    log->records.clear();
  }
}

uint64_t Recorder::BeginOp() {
  current_op = next_op_++;
  return current_op;
}

void Recorder::EndOp(uint64_t id, OpKind kind, int64_t start, int64_t end) {
  current_op = 0;
  backend_ns_ += end - start;
  (kind == OpKind::kPageIn ? pagein_us_ : pageout_us_).push_back((end - start) / 1e3);
  if (traced_) {
    op_records_.push_back(OpRecord{id, kind, start, end});
  }
}

void Recorder::AddRpc(RpcRecord record, size_t inflight) {
  rpcs_.push_back(record);
  inflight_max_ = std::max(inflight_max_, static_cast<double>(inflight));
  inflight_sum_ += static_cast<double>(inflight);
  ++inflight_samples_;
}

void Recorder::AddHandler(int server, const HandlerRecord& record) {
  ServerLog& log = *servers_[server];
  std::lock_guard<std::mutex> lock(log.mutex);
  log.records.push_back(record);
}

std::map<uint64_t, HandlerRecord> Recorder::HandlersOf(int server) const {
  const ServerLog& log = *servers_[server];
  std::lock_guard<std::mutex> lock(log.mutex);
  std::map<uint64_t, HandlerRecord> out;
  for (const HandlerRecord& record : log.records) {
    out[record.request_id] = record;
  }
  return out;
}

std::vector<pid_t> Recorder::HandlerThreads() const {
  std::vector<pid_t> tids;
  for (const auto& log : servers_) {
    std::lock_guard<std::mutex> lock(log->mutex);
    for (const HandlerRecord& record : log->records) {
      tids.push_back(record.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

// --- Decorators -------------------------------------------------------------------

rmp::Result<rmp::TimeNs> TimedBackend::PageOut(rmp::TimeNs now, uint64_t page_id,
                                               std::span<const uint8_t> data) {
  const uint64_t id = recorder_->BeginOp();
  const int64_t start = NowNs();
  auto done = inner_->PageOut(now, page_id, data);
  recorder_->EndOp(id, OpKind::kPageOut, start, NowNs());
  return done;
}

rmp::Result<rmp::TimeNs> TimedBackend::PageIn(rmp::TimeNs now, uint64_t page_id,
                                              std::span<uint8_t> out) {
  const uint64_t id = recorder_->BeginOp();
  const int64_t start = NowNs();
  auto done = inner_->PageIn(now, page_id, out);
  recorder_->EndOp(id, OpKind::kPageIn, start, NowNs());
  return done;
}

rmp::Result<Message> TimedTransport::Call(const Message& request) {
  return CallAsync(request).Wait();
}

rmp::RpcFuture TimedTransport::CallAsync(Message request) {
  RpcRecord record;
  record.op = current_op;
  record.server = server_;
  record.request_id = request.request_id;
  record.kind = KindOf(request.type);
  record.request_payload = static_cast<uint32_t>(request.payload.size());
  record.s = NowNs();
  rmp::RpcFuture future = inner_->CallAsync(std::move(request));
  record.r = NowNs();
  recorder_->AddRpc(record, inner_->inflight());
  return future;
}

Message TimedHandler::Handle(const Message& request) {
  HandlerRecord record;
  record.request_id = request.request_id;
  record.request_payload = static_cast<uint32_t>(request.payload.size());
  record.e = NowNs();
  Message reply = server_->Handle(request);
  record.x = NowNs();
  record.tid = ThreadId();
  record.reply_payload = static_cast<uint32_t>(reply.payload.size());
  recorder_->AddHandler(index_, record);
  return reply;
}

// --- Ledger -----------------------------------------------------------------------

void Ledger(Recorder* recorder, int servers, bool rpc_is_op, int64_t app_ops, MetricMap* out) {
  std::vector<std::map<uint64_t, HandlerRecord>> handlers;
  for (int i = 0; i < servers; ++i) {
    handlers.push_back(recorder->HandlersOf(i));
  }
  auto find_handler = [&](const RpcRecord& rpc) -> const HandlerRecord* {
    const auto& by_id = handlers[rpc.server];
    auto it = by_id.find(rpc.request_id);
    return it == by_id.end() ? nullptr : &it->second;
  };

  struct Stages {
    std::vector<double> wall, policy, submit, req_leg, server, reply_leg;
    int64_t rpcs = 0;
  };
  Stages stages[2];  // Indexed by OpKind (pagein, pageout).
  double wire_bytes = 0;
  double crc_bytes = 0;

  for (const RpcRecord& rpc : recorder->rpcs()) {
    const HandlerRecord* h = find_handler(rpc);
    const double reply_payload = h != nullptr ? h->reply_payload : 0;
    wire_bytes += 2 * kFrameOverhead + rpc.request_payload + reply_payload;
    crc_bytes += 2 * (rpc.request_payload + reply_payload);
  }

  if (rpc_is_op) {
    for (const RpcRecord& rpc : recorder->rpcs()) {
      const HandlerRecord* h = find_handler(rpc);
      if (rpc.kind == OpKind::kOther || h == nullptr || rpc.done == 0) {
        continue;
      }
      Stages& st = stages[static_cast<int>(rpc.kind)];
      st.wall.push_back((rpc.done - rpc.s) / 1e3);
      st.policy.push_back(0);
      st.submit.push_back((rpc.r - rpc.s) / 1e3);
      st.req_leg.push_back((h->e - rpc.r) / 1e3);
      st.server.push_back((h->x - h->e) / 1e3);
      st.reply_leg.push_back((rpc.done - h->x) / 1e3);
      ++st.rpcs;
    }
  } else {
    std::map<uint64_t, std::vector<const RpcRecord*>> by_op;
    for (const RpcRecord& rpc : recorder->rpcs()) {
      if (rpc.op != 0) {
        by_op[rpc.op].push_back(&rpc);
      }
    }
    for (const OpRecord& op : recorder->op_records()) {
      if (op.kind == OpKind::kOther) {
        continue;
      }
      Stages& st = stages[static_cast<int>(op.kind)];
      int64_t submit = 0;
      int64_t req_leg = 0;
      int64_t server = 0;
      int64_t final_exit = -1;
      std::vector<std::pair<int64_t, int64_t>> covered;
      auto it = by_op.find(op.id);
      if (it != by_op.end()) {
        for (const RpcRecord* rpc : it->second) {
          ++st.rpcs;
          submit += rpc->r - rpc->s;
          const HandlerRecord* h = find_handler(*rpc);
          if (h != nullptr && h->x <= op.end) {
            // Joined inside the op: the whole request side is on its path.
            req_leg += h->e - rpc->r;
            server += h->x - h->e;
            covered.emplace_back(rpc->s, h->x);
            final_exit = std::max(final_exit, h->x);
          } else {
            // Still in flight when the op returned (a parity flush settled
            // by a later op): only its submit blocked this op.
            covered.emplace_back(rpc->s, std::min(rpc->r, op.end));
          }
        }
      }
      const int64_t rpc_time = UnionLength(covered);
      int64_t reply_leg = 0;
      if (final_exit >= 0) {
        // Handler exit → op return, minus client time already counted as
        // another RPC's submit in that window.
        std::vector<std::pair<int64_t, int64_t>> tail = covered;
        tail.emplace_back(final_exit, op.end);
        reply_leg = UnionLength(tail) - rpc_time;
      }
      const int64_t wall = op.end - op.start;
      st.wall.push_back(wall / 1e3);
      st.submit.push_back(submit / 1e3);
      st.req_leg.push_back(req_leg / 1e3);
      st.server.push_back(server / 1e3);
      st.reply_leg.push_back(reply_leg / 1e3);
      st.policy.push_back((wall - rpc_time - reply_leg) / 1e3);
    }
  }

  for (const OpKind kind : {OpKind::kPageIn, OpKind::kPageOut}) {
    const Stages& st = stages[static_cast<int>(kind)];
    const std::string k = KindName(kind);
    auto put = [&](const std::string& stage, const std::vector<double>& v) {
      (*out)["ledger." + stage + "_us." + k + ".p50"] = Percentile(v, 0.50);
      (*out)["ledger." + stage + "_us." + k + ".p99"] = Percentile(v, 0.99);
    };
    put("policy", st.policy);
    put("submit", st.submit);
    put("req_leg", st.req_leg);
    put("server", st.server);
    put("reply_leg", st.reply_leg);
    const double wall = Mean(st.wall);
    const double sum = Mean(st.policy) + Mean(st.submit) + Mean(st.req_leg) + Mean(st.server) +
                       Mean(st.reply_leg);
    (*out)["ledger.closure_pct." + k] = wall > 0 ? 100.0 * std::fabs(sum - wall) / wall : 0.0;
    const double wall_p50 = Percentile(st.wall, 0.5);
    const double sum_p50 = Percentile(st.policy, 0.5) + Percentile(st.submit, 0.5) +
                           Percentile(st.req_leg, 0.5) + Percentile(st.server, 0.5) +
                           Percentile(st.reply_leg, 0.5);
    (*out)["ledger.closure_p50_pct." + k] =
        wall_p50 > 0 ? 100.0 * std::fabs(sum_p50 - wall_p50) / wall_p50 : 0.0;
    (*out)["ledger.samples." + k] = static_cast<double>(st.wall.size());
    (*out)["policy.rpcs_per_" + k] =
        st.wall.empty() ? 0.0 : static_cast<double>(st.rpcs) / static_cast<double>(st.wall.size());
  }
  const double ops = app_ops > 0 ? static_cast<double>(app_ops) : 1.0;
  (*out)["policy.wire_bytes_per_op"] = wire_bytes / ops;
  (*out)["proto.crc_bytes_per_op"] = crc_bytes / ops;
  (*out)["transport.inflight_max"] = recorder->inflight_max();
  (*out)["transport.inflight_mean"] = recorder->inflight_mean();
}

// --- Process probes ---------------------------------------------------------------

std::map<pid_t, int64_t> ThreadCpuNs() {
  std::map<pid_t, int64_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return out;
  }
  while (dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid <= 0) {
      continue;
    }
    const std::string path = "/proc/self/task/" + std::string(entry->d_name) + "/schedstat";
    if (FILE* f = std::fopen(path.c_str(), "r")) {
      long long run_ns = 0;
      if (std::fscanf(f, "%lld", &run_ns) == 1) {
        out[tid] = run_ns;
      }
      std::fclose(f);
    }
  }
  closedir(dir);
  return out;
}

int64_t ThisThreadCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return TimevalNs(usage.ru_utime) + TimevalNs(usage.ru_stime);
}

int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalNs(usage.ru_utime) + TimevalNs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ProtoTimings(MetricMap* out) {
  rmp::PageBuffer page;
  rmp::FillPattern(page.span(), 0x5eed);
  const Message frame = rmp::MakePageOut(1, 7, page.span());
  const std::vector<uint8_t> encoded = rmp::Encode(frame);
  constexpr int kBatches = 15;
  constexpr int kCalls = 100;
  static volatile uint64_t sink = 0;  // Keeps the timed calls from being elided.
  auto time_us = [&](auto&& call) {
    std::vector<double> per_call;
    for (int b = 0; b < kBatches; ++b) {
      const int64_t start = NowNs();
      for (int i = 0; i < kCalls; ++i) {
        sink = sink + call();
      }
      per_call.push_back((NowNs() - start) / 1e3 / kCalls);
    }
    return Median(per_call);
  };
  (*out)["proto.crc_us_per_page"] = time_us([&] { return rmp::PayloadCrc(frame.payload); });
  (*out)["proto.encode_us"] = time_us([&] { return rmp::Encode(frame).size(); });
  (*out)["proto.decode_us"] = time_us([&] {
    auto decoded = rmp::Decode(encoded);
    return decoded.ok() ? decoded->payload.size() : 0;
  });
}

}  // namespace perfbench
