// Transport throughput/latency: blocking Call() vs pipelined CallAsync() at
// queue depths {1, 4, 16}, over the in-process transport and a loopback TCP
// connection. The pipelined TCP numbers are the point of the exercise: one
// connection carrying many outstanding pageouts amortizes the per-request
// round trip that the paper's single blocking daemon pays in full.
//
// Each configuration emits one BENCH_transport.json-compatible line:
//   BENCH_transport.json: {"transport":"tcp","mode":"pipelined","depth":16,...}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSlots = 64;  // > max depth, so no two in-flight ops share a slot.

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Percentile(std::vector<double>* latencies, double q) {
  if (latencies->empty()) {
    return 0.0;
  }
  std::sort(latencies->begin(), latencies->end());
  const size_t index = static_cast<size_t>(q * static_cast<double>(latencies->size() - 1));
  return (*latencies)[index];
}

struct BenchRow {
  double pages_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Pages out `ops` pages round-robin over kSlots slots. `depth` == 0 uses the
// blocking Call(); otherwise up to `depth` CallAsync requests stay in flight
// and the oldest is joined FIFO when the window fills.
BenchRow RunPageouts(Transport* transport, uint64_t first_slot, int ops, int depth,
                     std::vector<double>* out_latencies = nullptr) {
  PageBuffer page;
  FillPattern(page.span(), 42);
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(ops));
  std::deque<std::pair<RpcFuture, Clock::time_point>> window;
  uint64_t request_id = 1000;

  const auto join_oldest = [&] {
    auto [future, issued] = std::move(window.front());
    window.pop_front();
    auto reply = future.Wait();
    if (!reply.ok() || reply->status_code() != ErrorCode::kOk) {
      std::fprintf(stderr, "pageout failed: %s\n", reply.status().ToString().c_str());
      std::exit(1);
    }
    latencies.push_back(Micros(Clock::now() - issued));
  };

  const auto start = Clock::now();
  for (int i = 0; i < ops; ++i) {
    const uint64_t slot = first_slot + static_cast<uint64_t>(i % kSlots);
    if (depth == 0) {
      const auto issued = Clock::now();
      auto reply = transport->Call(MakePageOut(++request_id, slot, page.span()));
      if (!reply.ok() || reply->status_code() != ErrorCode::kOk) {
        std::fprintf(stderr, "pageout failed: %s\n", reply.status().ToString().c_str());
        std::exit(1);
      }
      latencies.push_back(Micros(Clock::now() - issued));
      continue;
    }
    if (window.size() >= static_cast<size_t>(depth)) {
      join_oldest();
    }
    window.emplace_back(transport->CallAsync(MakePageOut(++request_id, slot, page.span())),
                        Clock::now());
  }
  while (!window.empty()) {
    join_oldest();
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();

  BenchRow row;
  row.pages_per_sec = static_cast<double>(ops) / seconds;
  row.p50_us = Percentile(&latencies, 0.50);
  row.p99_us = Percentile(&latencies, 0.99);
  if (out_latencies != nullptr) {
    *out_latencies = std::move(latencies);
  }
  return row;
}


void Report(const char* transport, int depth, const BenchRow& row) {
  const char* mode = depth == 0 ? "blocking" : "pipelined";
  std::printf("%-7s %-9s depth %2d   %9.0f pages/s   p50 %7.1f us   p99 %7.1f us\n", transport,
              mode, depth == 0 ? 1 : depth, row.pages_per_sec, row.p50_us, row.p99_us);
  const std::string config = std::string(transport) + "/" + mode + "/depth" +
                             std::to_string(depth == 0 ? 1 : depth);
  EmitBenchResult("transport", config, "pages_per_sec", row.pages_per_sec, "pages/s");
  EmitBenchResult("transport", config, "p50_latency", row.p50_us, "us");
  EmitBenchResult("transport", config, "p99_latency", row.p99_us, "us");
}

uint64_t AllocSlots(Transport* transport) {
  auto alloc = transport->Call(MakeAllocRequest(1, kSlots));
  if (!alloc.ok() || alloc->status_code() != ErrorCode::kOk) {
    std::fprintf(stderr, "alloc failed: %s\n", alloc.status().ToString().c_str());
    std::exit(1);
  }
  return alloc->slot;
}

// Many concurrent sessions, each a modest pipelined stream: the fan-out shape
// a remote memory server actually faces (one lane per faulting client), as
// opposed to the single fat pipe above. Thread-per-session pays `sessions`
// idle reader threads plus a worker pool per session here; the reactor
// multiplexes everything onto a fixed loop+worker pool.
void RunMultiSession(uint16_t port, MemoryServer* server, int sessions, int per_session_ops,
                     int depth) {
  std::vector<std::unique_ptr<TcpTransport>> clients;
  std::vector<uint64_t> first_slots;
  for (int s = 0; s < sessions; ++s) {
    auto client = TcpTransport::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect %d failed: %s\n", s, client.status().ToString().c_str());
      std::exit(1);
    }
    const uint64_t first_slot = AllocSlots(client->get());
    for (uint64_t i = 0; i < kSlots; ++i) {
      server->SetSlotDelayForTest(first_slot + i, 100);
    }
    first_slots.push_back(first_slot);
    clients.push_back(std::move(*client));
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(sessions));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      RunPageouts(clients[static_cast<size_t>(s)].get(), first_slots[static_cast<size_t>(s)],
                  per_session_ops, depth, &latencies[static_cast<size_t>(s)]);
    });
  }
  while (ready.load() < sessions) {
    std::this_thread::yield();
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> pooled;
  for (auto& per_session : latencies) {
    pooled.insert(pooled.end(), per_session.begin(), per_session.end());
  }
  BenchRow row;
  row.pages_per_sec = static_cast<double>(sessions) * per_session_ops / seconds;
  row.p50_us = Percentile(&pooled, 0.50);
  row.p99_us = Percentile(&pooled, 0.99);
  std::printf("tcp     multisess x%-3d depth %2d  %9.0f pages/s   p50 %7.1f us   p99 %7.1f us\n",
              sessions, depth, row.pages_per_sec, row.p50_us, row.p99_us);
  const std::string config = "tcp/multisession/sessions" + std::to_string(sessions);
  EmitBenchResult("transport", config, "pages_per_sec", row.pages_per_sec, "pages/s");
  EmitBenchResult("transport", config, "p50_latency", row.p50_us, "us");
  EmitBenchResult("transport", config, "p99_latency", row.p99_us, "us");
}

int Main() {
  const int depths[] = {0, 1, 4, 16};  // 0 == blocking Call().

  {
    MemoryServerParams params;
    params.name = "inproc-bench";
    params.capacity_pages = kSlots + 16;
    MemoryServer server(params);
    InProcTransport transport(&server);
    const uint64_t first_slot = AllocSlots(&transport);
    for (const int depth : depths) {
      Report("inproc", depth, RunPageouts(&transport, first_slot, /*ops=*/20000, depth));
    }
  }

  {
    MemoryServerParams params;
    params.name = "tcp-bench";
    params.capacity_pages = kSlots + 16;
    auto server = std::make_shared<MemoryServer>(params);
    auto started = TcpServer::Start(0, TcpServer::ForwardTo(server),
                                    /*required_token=*/"", /*session_workers=*/16);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", started.status().ToString().c_str());
      return 1;
    }
    auto client = TcpTransport::Connect("127.0.0.1", (*started)->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", client.status().ToString().c_str());
      return 1;
    }
    const uint64_t first_slot = AllocSlots(client->get());
    // Loopback round trips are ~20 us — far below any real network — so the
    // blocking baseline would look unrealistically good. Emulate a LAN-like
    // per-request service time; the delay sleeps outside the server mutex, so
    // pipelined requests to distinct slots overlap it.
    constexpr int64_t kServiceMicros = 100;
    for (uint64_t s = 0; s < kSlots; ++s) {
      server->SetSlotDelayForTest(first_slot + s, kServiceMicros);
    }
    BenchRow blocking;
    BenchRow deep;
    for (const int depth : depths) {
      // 12000 ops so the p99 rests on the 120th-worst sample, not the 40th:
      // shared-box scheduling noise at 4000 ops swung single-run p99 by ±25%,
      // which is useless against diff_bench's 10% gate.
      const BenchRow row = RunPageouts(client->get(), first_slot, /*ops=*/12000, depth);
      Report("tcp", depth, row);
      if (depth == 0) {
        blocking = row;
      }
      if (depth == 16) {
        deep = row;
      }
    }
    std::printf("tcp pipelined(16) / blocking speedup: %.2fx\n",
                deep.pages_per_sec / blocking.pages_per_sec);
  }

  {
    constexpr int kSessions = 32;
    MemoryServerParams params;
    params.name = "tcp-multi-bench";
    params.capacity_pages = kSlots * (kSessions + 1);
    auto server = std::make_shared<MemoryServer>(params);
    auto started = TcpServer::Start(0, TcpServer::ForwardTo(server),
                                    /*required_token=*/"", /*session_workers=*/16);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", started.status().ToString().c_str());
      return 1;
    }
    RunMultiSession((*started)->port(), server.get(), kSessions, /*per_session_ops=*/500,
                    /*depth=*/4);
  }
  return 0;
}

}  // namespace
}  // namespace rmp

int main() { return rmp::Main(); }
