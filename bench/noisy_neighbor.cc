// Noisy-neighbor QoS: a well-behaved tenant's latency while a flooding
// tenant saturates the same server, with the multi-tenant QoS machinery
// (DESIGN.md §15) off vs on.
//
// The victim runs one connection of blocking pageouts — the latency-critical
// shape of a faulting client — while the hog keeps `kHogSessions` pipelined
// connections full of pageouts. With QoS off everything lands in one tenant
// queue and the victim's single request waits behind the hog's whole backlog
// (the starvation the paper's single-daemon design never had to face). With
// QoS on, tenant WFQ weights plus the per-tenant queue cap bound how much of
// the hog's flood can sit ahead of the victim, and a server-side rate cap on
// the hog shows admission control doing the same job one layer down.
//
// Configs emitted to BENCH_noisy_neighbor.json:
//   victim_alone     — no hog; the reference latency.
//   qos_off          — hog flooding, both untenanted (tenant 0, one queue).
//   qos_on/w1        — tenants bound, equal WFQ weights, queue cap + shed.
//   qos_on/w4        — victim weighted 4:1 over the hog.
//   qos_on/ratecap   — 4:1 weights plus a server-side rate cap on the hog.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/memory_server.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSlots = 64;          // Per-connection slot span.
constexpr int kHogSessions = 4;     // The hog's connection fan-out.
constexpr int kHogDepth = 16;       // Pipelined pageouts in flight per hog session.
constexpr uint16_t kVictimTenant = 1;
constexpr uint16_t kHogTenant = 2;
// Loopback pageouts complete in a few microseconds, so with the real handler
// the scheduler queue never builds and every config looks the same. Emulate a
// network-like per-page service time (the delay sleeps outside the server
// mutex, so distinct slots overlap): 16 workers / 5 ms ≈ 3.2k pages/s of
// service capacity, far below what the hog's 64-deep pipeline can deliver, so
// the excess queues in the scheduler — exactly the contention QoS arbitrates.
// The long service time also keeps frame volume low enough that the shared
// 1-core CI box's loop threads stay unsaturated; at sub-ms service times the
// bench degenerates into measuring raw CPU contention, which no dispatch
// policy can fix.
constexpr int64_t kServiceMicros = 5000;
constexpr int kServiceWorkers = 16;

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

uint64_t AllocSlots(Transport* transport) {
  auto alloc = transport->Call(MakeAllocRequest(1, kSlots));
  if (!alloc.ok() || alloc->status_code() != ErrorCode::kOk) {
    std::fprintf(stderr, "alloc failed: %s\n", alloc.status().ToString().c_str());
    std::exit(1);
  }
  return alloc->slot;
}

struct ScenarioResult {
  double victim_pages_per_sec = 0;
  double victim_p50_us = 0;
  double victim_p99_us = 0;
  double hog_pages_per_sec = 0;  // Granted (kOk) pageouts only.
  double hog_denied_per_sec = 0; // Rate-denied or shed.
};

struct Scenario {
  std::string config;
  bool hog = true;
  uint16_t victim_tenant = 0;  // 0 = untenanted (QoS off on the wire).
  uint16_t hog_tenant = 0;
  TcpServerOptions options;
  TenantPolicyParams policy;
};

ScenarioResult RunScenario(const Scenario& scenario, double measure_seconds) {
  MemoryServerParams params;
  params.name = "noisy-bench";
  params.capacity_pages = static_cast<uint64_t>(kSlots) * (kHogSessions + 2) + 64;
  params.tenants = scenario.policy;
  auto server = std::make_shared<MemoryServer>(params);
  TcpServerOptions options = scenario.options;
  options.service_workers = kServiceWorkers;
  auto started = TcpServer::Start(0, TcpServer::ForwardTo(server), options);
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", started.status().ToString().c_str());
    std::exit(1);
  }
  const uint16_t port = (*started)->port();

  auto victim = TcpTransport::Connect("127.0.0.1", port, "", scenario.victim_tenant);
  if (!victim.ok()) {
    std::fprintf(stderr, "victim connect failed: %s\n", victim.status().ToString().c_str());
    std::exit(1);
  }
  const uint64_t victim_first = AllocSlots(victim->get());
  for (int i = 0; i < kSlots; ++i) {
    server->SetSlotDelayForTest(victim_first + static_cast<uint64_t>(i), kServiceMicros);
  }

  std::vector<std::unique_ptr<TcpTransport>> hogs;
  std::vector<uint64_t> hog_first;
  if (scenario.hog) {
    for (int s = 0; s < kHogSessions; ++s) {
      auto hog = TcpTransport::Connect("127.0.0.1", port, "", scenario.hog_tenant);
      if (!hog.ok()) {
        std::fprintf(stderr, "hog connect failed: %s\n", hog.status().ToString().c_str());
        std::exit(1);
      }
      const uint64_t first = AllocSlots(hog->get());
      for (int i = 0; i < kSlots; ++i) {
        // Jitter the hog's service times around the mean: identical delays
        // make the in-service ops free their workers in 5 ms convoys, and the
        // victim's measured wait becomes the convoy phase instead of the
        // scheduler's dispatch decision.
        const int64_t jitter = (s * kSlots + i) * 211 % (kServiceMicros / 2);
        server->SetSlotDelayForTest(first + static_cast<uint64_t>(i),
                                    kServiceMicros * 3 / 4 + jitter);
      }
      hog_first.push_back(first);
      hogs.push_back(std::move(*hog));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hog_granted{0};
  std::atomic<uint64_t> hog_denied{0};
  std::vector<std::thread> hog_threads;
  for (size_t s = 0; s < hogs.size(); ++s) {
    hog_threads.emplace_back([&, s] {
      PageBuffer page;
      FillPattern(page.span(), 7);
      std::deque<RpcFuture> window;
      uint64_t request_id = 1'000'000 * (s + 1);
      uint64_t granted = 0;
      uint64_t denied = 0;
      const auto join_oldest = [&] {
        auto reply = window.front().Wait();
        window.pop_front();
        // Rate denials (RESOURCE_EXHAUSTED) and sheds are the QoS layer
        // working as intended — count them, don't die on them.
        if (reply.ok() && reply->status_code() == ErrorCode::kOk) {
          ++granted;
        } else {
          ++denied;
        }
      };
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (window.size() >= kHogDepth) {
          join_oldest();
        }
        const uint64_t slot = hog_first[s] + (i++ % kSlots);
        window.push_back(hogs[s]->CallAsync(MakePageOut(++request_id, slot, page.span())));
      }
      while (!window.empty()) {
        join_oldest();
      }
      hog_granted.fetch_add(granted);
      hog_denied.fetch_add(denied);
    });
  }

  // Let the flood reach steady state before measuring the victim.
  if (scenario.hog) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Fixed measurement window rather than a fixed op count: a starved victim
  // at fixed ops would stretch the qos_off config into minutes.
  PageBuffer page;
  FillPattern(page.span(), 42);
  std::vector<double> latencies;
  uint64_t request_id = 100;
  uint64_t ops = 0;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(measure_seconds));
  while (Clock::now() < deadline) {
    const uint64_t slot = victim_first + (ops++ % kSlots);
    const auto issued = Clock::now();
    auto reply = (*victim)->Call(MakePageOut(++request_id, slot, page.span()));
    if (!reply.ok() || reply->status_code() != ErrorCode::kOk) {
      std::fprintf(stderr, "victim pageout failed: %s\n", reply.status().ToString().c_str());
      std::exit(1);
    }
    latencies.push_back(Micros(Clock::now() - issued));
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();

  stop.store(true);
  for (auto& t : hog_threads) {
    t.join();
  }

  ScenarioResult result;
  result.victim_pages_per_sec = static_cast<double>(ops) / seconds;
  result.victim_p50_us = Percentile(&latencies, 0.50);
  result.victim_p99_us = Percentile(&latencies, 0.99);
  result.hog_pages_per_sec = static_cast<double>(hog_granted.load()) / seconds;
  result.hog_denied_per_sec = static_cast<double>(hog_denied.load()) / seconds;
  return result;
}

void Report(const Scenario& scenario, const ScenarioResult& row) {
  std::printf("%-16s victim %8.0f pages/s   p50 %7.1f us   p99 %7.1f us   hog %8.0f ok/s %8.0f denied/s\n",
              scenario.config.c_str(), row.victim_pages_per_sec, row.victim_p50_us,
              row.victim_p99_us, row.hog_pages_per_sec, row.hog_denied_per_sec);
  EmitBenchResult("noisy_neighbor", scenario.config, "victim_pages_per_sec",
                  row.victim_pages_per_sec, "pages/s");
  EmitBenchResult("noisy_neighbor", scenario.config, "victim_p50_latency", row.victim_p50_us,
                  "us");
  EmitBenchResult("noisy_neighbor", scenario.config, "victim_p99_latency", row.victim_p99_us,
                  "us");
  EmitBenchResult("noisy_neighbor", scenario.config, "hog_pages_per_sec", row.hog_pages_per_sec,
                  "pages/s");
}

TenantPolicyParams GenerousPolicy(uint64_t hog_rate) {
  // Quotas well past both working sets, so the enforcement path (attribution,
  // token-bucket checks) is on but only the optional hog rate cap ever denies.
  TenantPolicyParams policy;
  policy.tenants.push_back(TenantQuota{.id = kVictimTenant,
                                       .memory_quota_pages = 4096,
                                       .rate_pages_per_sec = 0,
                                       .burst_pages = 256});
  policy.tenants.push_back(TenantQuota{.id = kHogTenant,
                                       .memory_quota_pages = 4096,
                                       .rate_pages_per_sec = hog_rate,
                                       .burst_pages = 256});
  return policy;
}

TcpServerOptions QosOptions(int victim_weight) {
  TcpServerOptions options;
  options.scheduler.tenant_weights = {{kVictimTenant, victim_weight}, {kHogTenant, 1}};
  // Bound the hog's queued backlog: the victim's request can wait behind at
  // most tenant_queue_cap hog entries even before weights kick in.
  options.scheduler.tenant_queue_cap = 128;
  options.scheduler.shed_limit = 512;
  return options;
}

int Main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const double measure_seconds = quick ? 0.3 : 2.0;

  std::vector<Scenario> scenarios;
  {
    Scenario s;
    s.config = "victim_alone";
    s.hog = false;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.config = "qos_off";
    scenarios.push_back(std::move(s));
  }
  const auto qos_scenario = [](const char* config, int victim_weight, uint64_t hog_rate) {
    Scenario s;
    s.config = config;
    s.victim_tenant = kVictimTenant;
    s.hog_tenant = kHogTenant;
    s.options = QosOptions(victim_weight);
    s.policy = GenerousPolicy(hog_rate);
    return s;
  };
  scenarios.push_back(qos_scenario("qos_on/w1", 1, 0));
  scenarios.push_back(qos_scenario("qos_on/w4", 4, 0));
  scenarios.push_back(qos_scenario("qos_on/ratecap", 4, /*hog_rate=*/1000));

  ScenarioResult alone;
  ScenarioResult off;
  ScenarioResult best;
  for (const auto& scenario : scenarios) {
    const ScenarioResult row = RunScenario(scenario, measure_seconds);
    Report(scenario, row);
    if (scenario.config == "victim_alone") {
      alone = row;
    } else if (scenario.config == "qos_off") {
      off = row;
    } else if (scenario.config == "qos_on/w4") {
      best = row;
    }
  }
  if (alone.victim_p99_us > 0) {
    std::printf("victim p99 inflation: qos_off %.2fx   qos_on/w4 %.2fx\n",
                off.victim_p99_us / alone.victim_p99_us,
                best.victim_p99_us / alone.victim_p99_us);
  }
  return 0;
}

}  // namespace
}  // namespace rmp

int main(int argc, char** argv) { return rmp::Main(argc, argv); }
