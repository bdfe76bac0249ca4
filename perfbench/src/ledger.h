// Outside-in instrumentation for the end-to-end benchmark.
//
// Every timestamp here is taken by the benchmark's own decorators around the
// program's public interfaces, never inside src/:
//   TimedBackend   — a PagingBackend between PagedVm and the policy;
//   TimedTransport — a Transport around each TcpTransport given to a Cluster;
//   TimedHandler   — a MessageHandler around MemoryServer::Handle.
// All of them read one clock (steady_clock), so a client submit, a server
// handler entry and the op's return can be subtracted from each other.
//
// Untraced rounds use only TimedBackend in its light form (two clock reads
// per backend call, for the pagein/pageout latency metrics). Traced rounds
// add the transport and handler decorators and keep per-RPC records, from
// which Ledger() derives the per-layer stage split of every backend op.

#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/paging_backend.h"
#include "src/server/memory_server.h"
#include "src/transport/tcp.h"

namespace perfbench {

int64_t NowNs();
pid_t ThreadId();

// Named metric values, printed in insertion-independent (sorted) order.
using MetricMap = std::map<std::string, double>;

// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// --- Records ----------------------------------------------------------------

enum class OpKind : uint8_t { kPageIn, kPageOut, kOther };

struct OpRecord {
  uint64_t id = 0;
  OpKind kind = OpKind::kOther;
  int64_t start = 0;
  int64_t end = 0;
};

// One client RPC as TimedTransport saw it: s = submit start, r = submit
// return. `done` is filled only where the benchmark itself observes the
// reply (open_rpc's collector); policy RPCs are joined inside src/.
struct RpcRecord {
  uint64_t op = 0;  // Backend op that issued it (0 = none).
  int server = 0;
  uint64_t request_id = 0;
  OpKind kind = OpKind::kOther;
  int64_t s = 0;
  int64_t r = 0;
  int64_t done = 0;
  uint32_t request_payload = 0;
};

// One request as TimedHandler saw it: e = handler entry, x = handler exit.
struct HandlerRecord {
  uint64_t request_id = 0;
  int64_t e = 0;
  int64_t x = 0;
  pid_t tid = 0;
  uint32_t request_payload = 0;
  uint32_t reply_payload = 0;
};

// Per-round store every decorator writes into. Backend and transport records
// are appended by the single client thread; handler records come from the
// servers' worker threads and are appended under a per-server mutex.
class Recorder {
 public:
  Recorder(bool traced, int servers);

  bool traced() const { return traced_; }

  // Drops everything recorded so far (set-up traffic) and starts the
  // measured phase.
  void Reset();

  // --- Backend ops (client thread) ---
  uint64_t BeginOp();  // Sets the thread's current op for RPC attribution.
  void EndOp(uint64_t id, OpKind kind, int64_t start, int64_t end);
  const std::vector<double>& op_us(OpKind kind) const {
    return kind == OpKind::kPageIn ? pagein_us_ : pageout_us_;
  }
  int64_t backend_ns() const { return backend_ns_; }

  // --- RPCs ---
  void AddRpc(RpcRecord record, size_t inflight);
  std::vector<RpcRecord>& rpcs() { return rpcs_; }
  const std::vector<OpRecord>& op_records() const { return op_records_; }
  double inflight_max() const { return inflight_max_; }
  double inflight_mean() const {
    return inflight_samples_ > 0 ? inflight_sum_ / inflight_samples_ : 0.0;
  }

  // --- Handlers (server worker threads) ---
  void AddHandler(int server, const HandlerRecord& record);
  // Handler records of `server`, keyed by request id. Call after the
  // servers are quiescent.
  std::map<uint64_t, HandlerRecord> HandlersOf(int server) const;
  std::vector<pid_t> HandlerThreads() const;

 private:
  struct ServerLog {
    mutable std::mutex mutex;
    std::vector<HandlerRecord> records;
  };

  const bool traced_;
  uint64_t next_op_ = 1;
  int64_t backend_ns_ = 0;
  std::vector<double> pagein_us_;
  std::vector<double> pageout_us_;
  std::vector<OpRecord> op_records_;
  std::vector<RpcRecord> rpcs_;
  double inflight_max_ = 0;
  double inflight_sum_ = 0;
  int64_t inflight_samples_ = 0;
  std::vector<std::unique_ptr<ServerLog>> servers_;
};

// --- Decorators ----------------------------------------------------------------

class TimedBackend final : public rmp::PagingBackend {
 public:
  TimedBackend(rmp::PagingBackend* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  rmp::Result<rmp::TimeNs> PageOut(rmp::TimeNs now, uint64_t page_id,
                                   std::span<const uint8_t> data) override;
  rmp::Result<rmp::TimeNs> PageIn(rmp::TimeNs now, uint64_t page_id,
                                  std::span<uint8_t> out) override;
  const rmp::BackendStats& stats() const override { return inner_->stats(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  rmp::PagingBackend* inner_;
  Recorder* recorder_;
};

class TimedTransport final : public rmp::Transport {
 public:
  TimedTransport(std::unique_ptr<rmp::TcpTransport> inner, int server, Recorder* recorder)
      : inner_(std::move(inner)), server_(server), recorder_(recorder) {}

  // Same as TcpTransport::Call (CallAsync().Wait()), with the submit return
  // observed in between.
  rmp::Result<rmp::Message> Call(const rmp::Message& request) override;
  rmp::RpcFuture CallAsync(rmp::Message request) override;
  rmp::Status SendOneWay(const rmp::Message& request) override {
    return inner_->SendOneWay(request);
  }
  bool connected() const override { return inner_->connected(); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<rmp::TcpTransport> inner_;
  const int server_;
  Recorder* recorder_;
};

class TimedHandler final : public rmp::MessageHandler {
 public:
  TimedHandler(std::shared_ptr<rmp::MemoryServer> server, int index, Recorder* recorder)
      : server_(std::move(server)), index_(index), recorder_(recorder) {}

  rmp::Message Handle(const rmp::Message& request) override;

 private:
  std::shared_ptr<rmp::MemoryServer> server_;
  const int index_;
  Recorder* recorder_;
};

// --- Derived metrics ------------------------------------------------------------

// Per-layer stage split of every recorded backend op (or, when
// `rpc_is_op`, of every RPC the benchmark joined itself). Fills
// ledger.{policy,submit,req_leg,server,reply_leg}_us.<kind>.{p50,p99},
// ledger.closure_pct.<kind>, ledger.closure_p50_pct.<kind>,
// policy.rpcs_per_<kind>, policy.wire_bytes_per_op, proto.crc_bytes_per_op,
// transport.inflight_{max,mean}. `app_ops` is the denominator of the per-op
// byte counts.
void Ledger(Recorder* recorder, int servers, bool rpc_is_op, int64_t app_ops, MetricMap* out);

// CPU time (ns) of every thread of this process, by thread id, from
// /proc/self/task/<tid>/schedstat.
std::map<pid_t, int64_t> ThreadCpuNs();
// CPU time (ns) of the calling thread (RUSAGE_THREAD).
int64_t ThisThreadCpuNs();
// CPU time (ns) of the whole process (RUSAGE_SELF, all threads).
int64_t ProcessCpuNs();
// Peak resident set of the process in MB (ru_maxrss).
double PeakRssMb();

// Median per-call time (µs) of the public wire primitives on a captured
// 8 KB PAGEOUT frame: proto.crc_us_per_page, proto.encode_us,
// proto.decode_us.
void ProtoTimings(MetricMap* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
