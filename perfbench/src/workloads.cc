#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/core/no_reliability.h"
#include "src/core/parity_logging.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/vm/paged_vm.h"
#include "src/vm/vm_array.h"
#include "src/workloads/data_kernels.h"

namespace perfbench {

namespace {

using rmp::kPageSize;
using rmp::Message;
using rmp::MessageType;

// --- Workload shapes -------------------------------------------------------------

// rand_fault: PARITY_LOGGING on 3 data + 1 parity server.
constexpr int kRandServers = 4;
constexpr size_t kRandParityPeer = 3;
constexpr uint64_t kRandPages = 8192;
constexpr uint32_t kRandFrames = 1024;
constexpr uint64_t kRandWritePct = 30;
constexpr int64_t kRandWarmOps = 2000;
constexpr int64_t kRandOps = 12000;

// vm_qsort: NO_RELIABILITY on 2 servers, 1M uint64_t over 512 frames.
constexpr int kSortServers = 2;
constexpr uint64_t kSortElements = 1 << 20;
constexpr uint64_t kSortPages = kSortElements * sizeof(uint64_t) / kPageSize;
constexpr uint32_t kSortFrames = 512;

// open_rpc: bare PAGEIN/PAGEOUT RPCs (70/30) to 2 servers.
constexpr int kOpenServers = 2;
constexpr uint64_t kOpenSlots = 512;  // Per server.
constexpr uint64_t kOpenPageInPct = 70;
constexpr double kOpenWarmS = 0.1;
constexpr size_t kPreloadWindow = 32;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Pattern seed of (page, version): every rand_fault write stamps it, every
// read checks it byte for byte.
uint64_t Stamp(uint64_t seed, uint64_t page, uint64_t version) {
  return Mix(seed ^ Mix(page * 0x9e3779b97f4a7c15ULL + version + 1));
}

void Fail(RoundResult* out, const std::string& what) {
  ++out->failed;
  if (out->first_error.empty()) {
    out->first_error = what;
  }
}

// CPU of the measured phase, split by thread role.
struct CpuSnapshot {
  int64_t process = 0;
  int64_t client = 0;
  std::map<pid_t, int64_t> threads;
};

CpuSnapshot TakeCpu(bool per_thread) {
  CpuSnapshot snap;
  snap.process = ProcessCpuNs();
  snap.client = ThisThreadCpuNs();
  if (per_thread) {
    snap.threads = ThreadCpuNs();
  }
  return snap;
}

// cpu.client_us_per_op (the driving thread), cpu.workers_us_per_op (threads
// seen inside TimedHandler), cpu.loops_us_per_op (every other thread: the
// reactor loops, and open_rpc's collectors). `exited_ns` is the CPU of other
// threads that started and ended between the two snapshots.
void CpuLayers(const CpuSnapshot& before, const CpuSnapshot& after, const Recorder& recorder,
               double ops, int64_t exited_ns, MetricMap* out) {
  const std::vector<pid_t> handlers = recorder.HandlerThreads();
  const pid_t self = ThreadId();
  double workers = 0;
  double loops = static_cast<double>(exited_ns);
  for (const auto& [tid, ns] : after.threads) {
    auto it = before.threads.find(tid);
    const double delta = static_cast<double>(ns - (it != before.threads.end() ? it->second : 0));
    if (tid == self) {
      continue;
    }
    if (std::binary_search(handlers.begin(), handlers.end(), tid)) {
      workers += delta;
    } else {
      loops += delta;
    }
  }
  (*out)["cpu.client_us_per_op"] = (after.client - before.client) / 1e3 / ops;
  (*out)["cpu.workers_us_per_op"] = workers / 1e3 / ops;
  (*out)["cpu.loops_us_per_op"] = loops / 1e3 / ops;
}

// vm.* and policy.* counters of a measured phase of a PagedVm workload.
// `run_ns` is the time spent inside PagedVm calls (vm_qsort: the whole
// QuicksortVm run, whose element compares are inseparable from it).
void VmLayers(const rmp::VmStats& v0, const rmp::VmStats& v1, const rmp::BackendStats& b0,
              const rmp::BackendStats& b1, int64_t run_ns, const Recorder& recorder,
              MetricMap* out) {
  const double accesses = static_cast<double>(v1.accesses - v0.accesses);
  const double self_ns = static_cast<double>(run_ns - recorder.backend_ns());
  (*out)["vm.self_ns_per_access"] = accesses > 0 ? self_ns / accesses : 0.0;
  (*out)["vm.self_share"] = run_ns > 0 ? self_ns / static_cast<double>(run_ns) : 0.0;
  (*out)["vm.faults"] = static_cast<double>(v1.faults - v0.faults);
  (*out)["vm.pageins"] = static_cast<double>(v1.pageins - v0.pageins);
  (*out)["vm.pageouts"] = static_cast<double>(v1.pageouts - v0.pageouts);
  (*out)["vm.hit_ratio"] = accesses > 0 ? (v1.hits - v0.hits) / accesses : 0.0;
  const double pageouts = static_cast<double>(b1.pageouts - b0.pageouts);
  const double pageins = static_cast<double>(b1.pageins - b0.pageins);
  const double transfers = static_cast<double>(b1.page_transfers - b0.page_transfers);
  // A pagein on the failure-free path moves exactly one page; the rest of
  // the transfers belong to pageouts (data pages plus parity flushes).
  (*out)["policy.transfers_per_pageout"] = pageouts > 0 ? (transfers - pageins) / pageouts : 0.0;
  (*out)["policy.retries"] = static_cast<double>(b1.retries - b0.retries);
}

}  // namespace

int InputsPerRun(const std::string& workload) { return workload == "vm_qsort" ? 8 : 1; }

// --- rand_fault ---------------------------------------------------------------------

RoundResult RunRandFault(const Deployment& deployment, uint64_t seed, bool traced) {
  RoundResult out;
  Recorder recorder(traced, kRandServers);
  const int64_t setup_start = NowNs();
  auto rig_or = Rig::Start(kRandServers, deployment, &recorder);
  if (!rig_or.ok()) {
    out.attempted = 1;
    Fail(&out, "rig: " + rig_or.status().ToString());
    return out;
  }
  std::unique_ptr<Rig> rig = std::move(*rig_or);
  {
    rmp::ParityLoggingBackend backend(rig->TakeCluster(), std::make_shared<rmp::NetworkFabric>(),
                                      rmp::RemotePagerParams{}, kRandParityPeer);
    TimedBackend timed(&backend, &recorder);
    rmp::PagedVm vm({.virtual_pages = kRandPages, .physical_frames = kRandFrames}, &timed);
    std::vector<uint64_t> versions(kRandPages, 0);
    rmp::PageBuffer buf;
    rmp::TimeNs now = 0;
    rmp::Rng rng(seed);

    // One access: a whole-page write of a fresh stamp or a whole-page read
    // checked against the page's current stamp. Returns its wall time (ns).
    auto access = [&](uint64_t page, bool write) -> int64_t {
      const uint64_t addr = page * kPageSize;
      if (write) {
        rmp::FillPattern(buf.span(), Stamp(seed, page, ++versions[page]));
      }
      const int64_t start = NowNs();
      const rmp::Status status =
          write ? vm.Write(&now, addr, buf.span()) : vm.Read(&now, addr, buf.span());
      const int64_t wall = NowNs() - start;
      if (!status.ok()) {
        Fail(&out, "page " + std::to_string(page) + ": " + status.ToString());
      } else if (!write && !rmp::CheckPattern(buf.span(), Stamp(seed, page, versions[page]))) {
        Fail(&out, "page " + std::to_string(page) + ": stamp mismatch");
      }
      return wall;
    };

    // Set-up: every page written once (so later faults page in), then a
    // warm-up stretch of the measured mix.
    for (uint64_t page = 0; page < kRandPages; ++page) {
      access(page, /*write=*/true);
    }
    for (int64_t i = 0; i < kRandWarmOps; ++i) {
      const uint64_t page = rng.Below(kRandPages);
      access(page, rng.Below(100) < kRandWritePct);
    }
    out.setup_s = (NowNs() - setup_start) / 1e9;
    const int64_t setup_failures = out.failed;

    recorder.Reset();
    const rmp::VmStats v0 = vm.stats();
    const rmp::BackendStats b0 = backend.stats();
    const CpuSnapshot cpu0 = TakeCpu(traced);
    const int64_t run_start = NowNs();
    int64_t access_ns = 0;  // Inside PagedVm only, without the stamping.
    for (int64_t i = 0; i < kRandOps; ++i) {
      const uint64_t page = rng.Below(kRandPages);
      const bool write = rng.Below(100) < kRandWritePct;
      const int64_t faults = vm.stats().faults;
      const int64_t wall = access(page, write);
      access_ns += wall;
      if (vm.stats().faults != faults) {
        out.fault_us.push_back(wall / 1e3);
      }
    }
    const int64_t run_ns = NowNs() - run_start;
    const CpuSnapshot cpu1 = TakeCpu(traced);
    out.peak_rss_mb = PeakRssMb();

    out.attempted = kRandOps + setup_failures;
    out.run_s = run_ns / 1e9;
    out.throughput_ops_s = kRandOps / out.run_s;
    out.cpu_us_per_op = (cpu1.process - cpu0.process) / 1e3 / kRandOps;
    out.pagein_us = recorder.op_us(OpKind::kPageIn);
    out.pageout_us = recorder.op_us(OpKind::kPageOut);
    const rmp::VmStats& v1 = vm.stats();
    out.fingerprint["accesses"] = v1.accesses - v0.accesses;
    out.fingerprint["faults"] = v1.faults - v0.faults;
    out.fingerprint["pageins"] = v1.pageins - v0.pageins;
    out.fingerprint["pageouts"] = v1.pageouts - v0.pageouts;
    out.fingerprint["page_transfers"] = backend.stats().page_transfers - b0.page_transfers;

    if (traced) {
      VmLayers(v0, v1, b0, backend.stats(), access_ns, recorder, &out.layer);
      Ledger(&recorder, kRandServers, /*rpc_is_op=*/false, kRandOps, &out.layer);
      CpuLayers(cpu0, cpu1, recorder, kRandOps, 0, &out.layer);
      out.layer["server.physical_per_logical"] = rig->PhysicalPerLogical();
    }
  }
  return out;
}

// --- vm_qsort -------------------------------------------------------------------------

namespace {

// ChecksumVm of the sorted array, computed in ordinary memory from the same
// FillRandom stream.
uint64_t SortedReferenceChecksum(uint64_t seed) {
  static std::map<uint64_t, uint64_t> cache;
  auto it = cache.find(seed);
  if (it != cache.end()) {
    return it->second;
  }
  std::vector<uint64_t> data(kSortElements);
  rmp::Rng rng(seed);
  for (uint64_t& v : data) {
    v = rng.Next();
  }
  std::sort(data.begin(), data.end());
  uint64_t sum = 0;
  for (uint64_t i = 0; i < data.size(); ++i) {
    sum += data[i] * 0x9e3779b97f4a7c15ULL + i;
  }
  cache[seed] = sum;
  return sum;
}

}  // namespace

RoundResult RunVmQsort(const Deployment& deployment, uint64_t seed, bool traced) {
  RoundResult out;
  const uint64_t expected = SortedReferenceChecksum(seed);
  Recorder recorder(traced, kSortServers);
  const int64_t setup_start = NowNs();
  auto rig_or = Rig::Start(kSortServers, deployment, &recorder);
  if (!rig_or.ok()) {
    out.attempted = 1;
    Fail(&out, "rig: " + rig_or.status().ToString());
    return out;
  }
  std::unique_ptr<Rig> rig = std::move(*rig_or);
  {
    rmp::NoReliabilityBackend backend(rig->TakeCluster(), std::make_shared<rmp::NetworkFabric>(),
                                      rmp::RemotePagerParams{});
    TimedBackend timed(&backend, &recorder);
    rmp::PagedVm vm({.virtual_pages = kSortPages, .physical_frames = kSortFrames}, &timed);
    rmp::VmArray<uint64_t> array(&vm, 0, kSortElements);
    rmp::TimeNs now = 0;

    rmp::Status status = rmp::FillRandom(&array, &now, seed);
    out.setup_s = (NowNs() - setup_start) / 1e9;
    if (!status.ok()) {
      out.attempted = 1;
      Fail(&out, "fill: " + status.ToString());
    } else {
      recorder.Reset();
      const rmp::VmStats v0 = vm.stats();
      const rmp::BackendStats b0 = backend.stats();
      const CpuSnapshot cpu0 = TakeCpu(traced);
      const int64_t run_start = NowNs();
      status = rmp::QuicksortVm(&array, &now);
      const int64_t run_ns = NowNs() - run_start;
      const CpuSnapshot cpu1 = TakeCpu(traced);
      out.peak_rss_mb = PeakRssMb();
      const rmp::VmStats v1 = vm.stats();
      const int64_t accesses = v1.accesses - v0.accesses;

      out.attempted = accesses;
      out.run_s = run_ns / 1e9;
      out.throughput_ops_s = accesses / out.run_s;
      out.cpu_us_per_op = (cpu1.process - cpu0.process) / 1e3 / static_cast<double>(accesses);
      out.pagein_us = recorder.op_us(OpKind::kPageIn);
      out.pageout_us = recorder.op_us(OpKind::kPageOut);
      out.fingerprint["accesses"] = accesses;
      out.fingerprint["faults"] = v1.faults - v0.faults;
      out.fingerprint["pageins"] = v1.pageins - v0.pageins;
      out.fingerprint["pageouts"] = v1.pageouts - v0.pageouts;
      out.fingerprint["page_transfers"] = backend.stats().page_transfers - b0.page_transfers;
      if (traced) {
        VmLayers(v0, v1, b0, backend.stats(), run_ns, recorder, &out.layer);
        Ledger(&recorder, kSortServers, /*rpc_is_op=*/false, accesses, &out.layer);
        CpuLayers(cpu0, cpu1, recorder, static_cast<double>(accesses), 0, &out.layer);
        out.layer["server.physical_per_logical"] = rig->PhysicalPerLogical();
      }

      // Verification reads every element back through the pager.
      if (!status.ok()) {
        Fail(&out, "sort: " + status.ToString());
      } else if (rmp::Status sorted = rmp::VerifySorted(array, &now); !sorted.ok()) {
        Fail(&out, "verify: " + sorted.ToString());
      } else {
        auto checksum = rmp::ChecksumVm(array, &now);
        if (!checksum.ok()) {
          Fail(&out, "checksum: " + checksum.status().ToString());
        } else if (*checksum != expected) {
          Fail(&out, "checksum differs from the in-memory sort");
        }
      }
    }
  }
  return out;
}

// --- open_rpc ---------------------------------------------------------------------------

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

uint64_t SlotSeed(uint64_t seed, int server, uint64_t slot) {
  return Mix(seed ^ Mix((static_cast<uint64_t>(server) << 40) + slot + 1));
}

struct StepResult {
  std::vector<double> all_us;
  std::vector<double> pagein_us;
  std::vector<double> pageout_us;
  std::vector<double> late_us;
  int64_t sent = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t pageins = 0;
  std::string first_error;
  int64_t start = 0;
  int64_t last_due = 0;
  int64_t last_done = 0;
  int64_t collector_ns = 0;  // CPU of the step's collector thread.
  // Traced: reply observed by the collector, keyed by (server, request id).
  std::unordered_map<uint64_t, int64_t> done;

  double Achieved() const {
    return last_done > start ? completed / ((last_done - start) / 1e9) : 0.0;
  }
  // Met the limit with no growing backlog: the p99 from due time is within
  // the limit, and so is the drain after the last due time.
  bool Passed(double p99_limit_us) const {
    return failed == 0 && completed == sent && Percentile(all_us, 0.99) <= p99_limit_us &&
           (last_done - last_due) / 1e3 <= p99_limit_us;
  }
};

uint64_t DoneKey(int server, uint64_t request_id) {
  return (static_cast<uint64_t>(server) << 56) | request_id;
}

// One generator (the calling thread, spin-waiting to each due time) and one
// collector thread joining the replies. Every request is timed from its due
// time, so a stalled generator or a growing queue shows up in the latency.
class OpenLoop {
 public:
  OpenLoop(std::vector<std::unique_ptr<rmp::Transport>>* transports,
           const std::vector<std::vector<rmp::PageBuffer>>* patterns,
           const std::vector<uint64_t>* first_slot, uint64_t seed, bool traced)
      : transports_(transports),
        patterns_(patterns),
        first_slot_(first_slot),
        seed_(seed),
        traced_(traced),
        next_id_(transports->size(), 1000) {}

  StepResult Run(double rate, double seconds, uint64_t step_seed) {
    struct Pending {
      int64_t due = 0;
      rmp::RpcFuture future;
      bool pagein = false;
      int server = 0;
      uint64_t slot = 0;
      uint64_t request_id = 0;
    };
    StepResult res;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool producer_done = false;

    auto complete = [&](Pending& p, int64_t at) {
      auto reply = p.future.Wait();
      bool good = false;
      if (!reply.ok()) {
        if (res.first_error.empty()) {
          res.first_error = reply.status().ToString();
        }
      } else if (reply->status_code() != rmp::ErrorCode::kOk) {
        if (res.first_error.empty()) {
          res.first_error = std::string(rmp::ErrorCodeName(reply->status_code()));
        }
      } else if (p.pagein) {
        const uint64_t index = p.slot - (*first_slot_)[p.server];
        good = reply->type == MessageType::kPageInReply && reply->payload.size() == kPageSize &&
               rmp::CheckPattern(reply->payload, SlotSeed(seed_, p.server, index));
        if (!good && res.first_error.empty()) {
          res.first_error = "pagein reply does not match the slot's pattern";
        }
      } else {
        good = reply->type == MessageType::kPageOutAck;
      }
      ++res.completed;
      res.failed += good ? 0 : 1;
      res.last_done = at;
      const double us = (at - p.due) / 1e3;
      res.all_us.push_back(us);
      (p.pagein ? res.pagein_us : res.pageout_us).push_back(us);
      if (traced_) {
        res.done[DoneKey(p.server, p.request_id)] = at;
      }
    };

    std::thread collector([&] {
      std::deque<Pending> local;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (local.empty()) {
            cv.wait(lock, [&] { return !queue.empty() || producer_done; });
          }
          while (!queue.empty()) {
            local.push_back(std::move(queue.front()));
            queue.pop_front();
          }
          if (local.empty() && producer_done) {
            // The thread is gone before the caller's next CPU snapshot.
            res.collector_ns = ThisThreadCpuNs();
            break;
          }
        }
        bool any = false;
        for (auto it = local.begin(); it != local.end();) {
          if (it->future.ready()) {
            complete(*it, NowNs());
            it = local.erase(it);
            any = true;
          } else {
            ++it;
          }
        }
        if (!any && !local.empty()) {
          local.front().future.Wait();
          complete(local.front(), NowNs());
          local.pop_front();
        }
      }
    });

    rmp::Rng rng(step_seed);
    const int64_t count = std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
    const double interval_ns = 1e9 / rate;
    res.start = NowNs() + 100000;
    for (int64_t i = 0; i < count; ++i) {
      const int64_t due = res.start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      res.last_due = due;
      while (NowNs() < due) {
        CpuRelax();
      }
      Pending p;
      p.due = due;
      p.server = static_cast<int>(rng.Below(transports_->size()));
      const uint64_t index = rng.Below(kOpenSlots);
      p.slot = (*first_slot_)[p.server] + index;
      p.pagein = rng.Below(100) < kOpenPageInPct;
      p.request_id = ++next_id_[p.server];
      Message request = p.pagein ? rmp::MakePageIn(p.request_id, p.slot)
                                 : rmp::MakePageOut(p.request_id, p.slot,
                                                    (*patterns_)[p.server][index].span());
      res.late_us.push_back((NowNs() - due) / 1e3);
      p.future = (*transports_)[p.server]->CallAsync(std::move(request));
      res.pageins += p.pagein ? 1 : 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(p));
      }
      cv.notify_one();
    }
    res.sent = count;
    {
      std::lock_guard<std::mutex> lock(mutex);
      producer_done = true;
    }
    cv.notify_one();
    collector.join();
    return res;
  }

 private:
  std::vector<std::unique_ptr<rmp::Transport>>* transports_;
  const std::vector<std::vector<rmp::PageBuffer>>* patterns_;
  const std::vector<uint64_t>* first_slot_;
  const uint64_t seed_;
  const bool traced_;
  std::vector<uint64_t> next_id_;
};

}  // namespace

RoundResult RunOpenRpc(const Deployment& deployment, uint64_t seed, bool traced) {
  RoundResult out;
  Recorder recorder(traced, kOpenServers);
  const int64_t setup_start = NowNs();
  auto rig_or = Rig::Start(kOpenServers, deployment, &recorder);
  if (!rig_or.ok()) {
    out.attempted = 1;
    Fail(&out, "rig: " + rig_or.status().ToString());
    return out;
  }
  std::unique_ptr<Rig> rig = std::move(*rig_or);
  {
    std::vector<std::unique_ptr<rmp::Transport>> transports = rig->TakeTransports();
    std::vector<uint64_t> first_slot(kOpenServers, 0);
    std::vector<std::vector<rmp::PageBuffer>> patterns(kOpenServers);
    // Set-up: one swap extent per server, every slot written with its fixed
    // pattern (pipelined, kPreloadWindow in flight).
    for (int s = 0; s < kOpenServers; ++s) {
      auto reply = transports[s]->Call(rmp::MakeAllocRequest(1, kOpenSlots));
      if (!reply.ok() || reply->status_code() != rmp::ErrorCode::kOk ||
          reply->count != kOpenSlots) {
        out.attempted = 1;
        Fail(&out, "alloc on server " + std::to_string(s) + " failed");
        return out;
      }
      first_slot[s] = reply->slot;
      patterns[s].resize(kOpenSlots);
      std::vector<rmp::RpcFuture> window;
      for (uint64_t i = 0; i < kOpenSlots; ++i) {
        rmp::FillPattern(patterns[s][i].span(), SlotSeed(seed, s, i));
        window.push_back(transports[s]->CallAsync(
            rmp::MakePageOut(2 + i, first_slot[s] + i, patterns[s][i].span())));
        if (window.size() == kPreloadWindow || i + 1 == kOpenSlots) {
          for (auto& future : window) {
            auto ack = future.Wait();
            if (!ack.ok() || ack->status_code() != rmp::ErrorCode::kOk) {
              Fail(&out, "preload pageout failed");
            }
          }
          window.clear();
        }
      }
    }
    OpenLoop loop(&transports, &patterns, &first_slot, seed, traced);
    StepResult warm = loop.Run(deployment.rates[0], kOpenWarmS, seed ^ 0x77);
    out.setup_s = (NowNs() - setup_start) / 1e9;
    out.failed += warm.failed;

    // The three fixed rates.
    recorder.Reset();
    const int64_t ins0 = rig->ServedPageIns();
    const int64_t outs0 = rig->ServedPageOuts();
    const CpuSnapshot cpu0 = TakeCpu(traced);
    StepResult steps[3];
    for (int j = 0; j < 3; ++j) {
      steps[j] = loop.Run(deployment.rates[j], deployment.step_s[j], seed + 1 + j);
    }
    const CpuSnapshot cpu1 = TakeCpu(traced);
    out.peak_rss_mb = PeakRssMb();
    int64_t sent = 0;
    int64_t pageins = 0;
    double best_rate = 0;
    std::vector<double> late;
    for (int j = 0; j < 3; ++j) {
      const StepResult& st = steps[j];
      sent += st.sent;
      pageins += st.pageins;
      out.failed += st.failed + (st.sent - st.completed);
      if (!st.first_error.empty() && out.first_error.empty()) {
        out.first_error = st.first_error;
      }
      out.open_us[j] = st.all_us;
      out.open_pagein_us[j] = st.pagein_us;
      out.open_pageout_us[j] = st.pageout_us;
      late.insert(late.end(), st.late_us.begin(), st.late_us.end());
      if (st.Passed(deployment.p99_limit_us)) {
        best_rate = std::max(best_rate, st.Achieved());
      }
    }
    out.attempted = sent;
    out.run_s = (steps[2].last_done - steps[0].start) / 1e9;
    // The generator's spin-wait is not the program's CPU.
    const int64_t generator_ns = cpu1.client - cpu0.client;
    out.cpu_us_per_op = (cpu1.process - cpu0.process - generator_ns) / 1e3 / sent;
    out.fingerprint["sent"] = sent;
    out.fingerprint["pageins"] = pageins;
    // Exact here: every reply has been collected. (The VM workloads count
    // page transfers at the client instead, as a policy can leave a parity
    // flush in flight.)
    out.fingerprint["srv_pageins"] = rig->ServedPageIns() - ins0;
    out.fingerprint["srv_pageouts"] = rig->ServedPageOuts() - outs0;

    if (traced) {
      std::unordered_map<uint64_t, int64_t> done;
      for (const StepResult& st : steps) {
        done.insert(st.done.begin(), st.done.end());
      }
      for (RpcRecord& rpc : recorder.rpcs()) {
        auto it = done.find(DoneKey(rpc.server, rpc.request_id));
        rpc.done = it != done.end() ? it->second : 0;
      }
      Ledger(&recorder, kOpenServers, /*rpc_is_op=*/true, sent, &out.layer);
      int64_t collectors_ns = 0;
      for (const StepResult& st : steps) {
        collectors_ns += st.collector_ns;
      }
      CpuLayers(cpu0, cpu1, recorder, static_cast<double>(sent), collectors_ns, &out.layer);
      out.layer["gen.late_p99_us"] = Percentile(late, 0.99);
      out.layer["gen.late_max_us"] = Percentile(late, 1.0);
      out.layer["server.physical_per_logical"] = rig->PhysicalPerLogical();
      out.layer["policy.transfers_per_pageout"] = 1;  // No policy: one page per PAGEOUT.
      out.layer["policy.retries"] = 0;
    }

    // Highest offered rate meeting the p99 limit: log-scale bisection
    // between the lowest fixed rate and 8x the highest.
    double lo = deployment.rates[0];
    double hi = deployment.rates[2] * 8;
    for (int k = 0; k < deployment.search_steps; ++k) {
      recorder.Reset();
      const double mid = std::sqrt(lo * hi);
      const StepResult st = loop.Run(mid, deployment.search_step_s, seed + 100 + k);
      out.attempted += st.sent;
      if (st.failed > 0 || st.completed != st.sent) {
        Fail(&out, "search step failed: " + st.first_error);
      }
      if (st.Passed(deployment.p99_limit_us)) {
        lo = mid;
        best_rate = std::max(best_rate, st.Achieved());
      } else {
        hi = mid;
      }
    }
    out.throughput_ops_s = best_rate;
  }
  return out;
}

}  // namespace perfbench
