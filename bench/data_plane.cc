// Data-plane fast-path microbenches, covering the three layers the sharded
// store / SIMD / batching work touches:
//
//   1. XOR kernel GB/s: the portable scalar loop vs the runtime-dispatched
//      SIMD path (XorBytes) that parity policies fold pages with.
//   2. Server store ops/s at 1/4/16 threads, with the page store configured
//      as one lock stripe (the old global-mutex server) vs the default
//      sharded layout, under a modeled per-page service time (see
//      kStoreServiceMicros for why the bench models it).
//   3. Pageout wire cost at batch=1 (one PAGEOUT message per page) vs
//      batch=32 (one PAGEOUT_BATCH frame), over the in-process transport and
//      a loopback TCP connection.
//   4. Compressed cold tier: effective capacity (logical/physical bytes) and
//      cold pagein p50 across a compressibility sweep (store.hot_pages small,
//      promotion off, so reads stay on the decompress path), a dedup run
//      (many stores, few distinct contents), and a flat tier-off pagein
//      baseline for the added-latency comparison.
//
// Every row is also emitted through EmitBenchResult, so results land in
// BENCH_data_plane.json. `--quick` shrinks the iteration counts to smoke-test
// size (the ctest target runs that mode).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// --- 1. XOR kernels ---------------------------------------------------------

double XorGigabytesPerSec(void (*kernel)(uint8_t*, const uint8_t*, size_t), int iters) {
  std::vector<uint8_t> dst(kPageSize);
  std::vector<uint8_t> src(kPageSize);
  FillPattern(dst, 1);
  FillPattern(src, 2);
  const auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    kernel(dst.data(), src.data(), kPageSize);
  }
  const double seconds = Seconds(Clock::now() - start);
  // Defeat dead-code elimination: the accumulated page must stay observable.
  volatile uint8_t sink = dst[0];
  (void)sink;
  return static_cast<double>(iters) * static_cast<double>(kPageSize) / seconds / 1e9;
}

void BenchXor(bool quick) {
  const int iters = quick ? 20000 : 500000;
  const double scalar = XorGigabytesPerSec(&XorBytesScalar, iters);
  const double simd = XorGigabytesPerSec(&XorBytes, iters);
  std::printf("xor  scalar %7.2f GB/s\n", scalar);
  std::printf("xor  %-6s %7.2f GB/s   speedup %.2fx\n", std::string(XorBytesImplName()).c_str(),
              simd, simd / scalar);
  EmitBenchResult("data_plane", "xor/scalar", "throughput", scalar, "GB/s");
  EmitBenchResult("data_plane", "xor/" + std::string(XorBytesImplName()), "throughput", simd,
                  "GB/s");
}

// --- 2. Sharded vs single-mutex server --------------------------------------

constexpr int kSlotsPerThread = 64;
// Modeled per-page service time, held under the slot's shard lock. On a host
// with fewer cores than worker threads (the CI container has one), the raw
// memcpys of concurrent stores time-slice onto the same core and wall clock
// cannot tell one mutex from sixteen. A slot's service time, in contrast,
// sleeps — so striped shards overlap it exactly the way multi-core memcpys
// overlap on real hardware, while the single-mutex baseline serializes every
// operation behind it. This measures the serialization that lock granularity
// controls, independent of how many cores the bench host happens to have.
constexpr int64_t kStoreServiceMicros = 20;

double ServerOpsPerSec(uint32_t shards, int threads, int ops_per_thread) {
  MemoryServerParams params;
  params.name = "bench";
  params.capacity_pages = 1 << 16;
  params.store_shards = shards;
  params.store_service_micros = kStoreServiceMicros;
  MemoryServer server(params);
  auto first = server.Allocate(static_cast<uint64_t>(threads) * kSlotsPerThread);
  if (!first.ok()) {
    std::fprintf(stderr, "alloc failed: %s\n", first.status().ToString().c_str());
    std::exit(1);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PageBuffer page;
      FillPattern(page.span(), static_cast<uint64_t>(t) + 7);
      const uint64_t base = *first + static_cast<uint64_t>(t) * kSlotsPerThread;
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < ops_per_thread; ++i) {
        // Even i stores a slot, odd i loads it back, so every load hits.
        const uint64_t slot = base + static_cast<uint64_t>((i / 2) % kSlotsPerThread);
        if (i % 2 == 0) {
          if (!server.Store(slot, page.span()).ok()) {
            std::exit(1);
          }
        } else {
          if (!server.Load(slot).ok()) {
            std::exit(1);
          }
        }
      }
    });
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) {
    worker.join();
  }
  const double seconds = Seconds(Clock::now() - start);
  return static_cast<double>(threads) * static_cast<double>(ops_per_thread) / seconds;
}

void BenchServerStore(bool quick) {
  const int ops = quick ? 2000 : 40000;
  for (const int threads : {1, 4, 16}) {
    const double single = ServerOpsPerSec(/*shards=*/1, threads, ops / threads);
    const double sharded = ServerOpsPerSec(/*shards=*/16, threads, ops / threads);
    std::printf("server t=%-2d  1-shard %9.0f ops/s   16-shard %9.0f ops/s   speedup %.2fx\n",
                threads, single, sharded, sharded / single);
    const std::string suffix = "/t" + std::to_string(threads);
    EmitBenchResult("data_plane", "server/shards1" + suffix, "ops_per_sec", single, "ops/s");
    EmitBenchResult("data_plane", "server/shards16" + suffix, "ops_per_sec", sharded, "ops/s");
  }
}

// --- 3. Batched vs single-page pageouts -------------------------------------

constexpr int kWireSlots = 64;
constexpr int kBatch = 32;

double PageoutPagesPerSec(Transport* transport, uint64_t first_slot, int batch, int total_pages) {
  PageBuffer page;
  FillPattern(page.span(), 42);
  uint64_t request_id = 1000;
  const auto start = Clock::now();
  if (batch == 1) {
    for (int i = 0; i < total_pages; ++i) {
      const uint64_t slot = first_slot + static_cast<uint64_t>(i % kWireSlots);
      auto reply = transport->Call(MakePageOut(++request_id, slot, page.span()));
      if (!reply.ok() || reply->status_code() != ErrorCode::kOk) {
        std::fprintf(stderr, "pageout failed: %s\n", reply.status().ToString().c_str());
        std::exit(1);
      }
    }
  } else {
    std::vector<uint64_t> slots(static_cast<size_t>(batch));
    std::vector<uint8_t> payload(static_cast<size_t>(batch) * kPageSize);
    for (int j = 0; j < batch; ++j) {
      std::memcpy(payload.data() + static_cast<size_t>(j) * kPageSize, page.data(), kPageSize);
    }
    for (int i = 0; i < total_pages; i += batch) {
      for (int j = 0; j < batch; ++j) {
        slots[static_cast<size_t>(j)] = first_slot + static_cast<uint64_t>((i + j) % kWireSlots);
      }
      auto reply = transport->Call(MakePageOutBatch(++request_id, slots, payload));
      if (!reply.ok() || reply->status_code() != ErrorCode::kOk) {
        std::fprintf(stderr, "batch pageout failed: %s\n", reply.status().ToString().c_str());
        std::exit(1);
      }
    }
  }
  const double seconds = Seconds(Clock::now() - start);
  return static_cast<double>(total_pages) / seconds;
}

uint64_t AllocWireSlots(Transport* transport) {
  auto alloc = transport->Call(MakeAllocRequest(1, kWireSlots));
  if (!alloc.ok() || alloc->status_code() != ErrorCode::kOk) {
    std::fprintf(stderr, "alloc failed: %s\n", alloc.status().ToString().c_str());
    std::exit(1);
  }
  return alloc->slot;
}

void ReportBatchPair(const char* transport_name, double single, double batched) {
  std::printf("%-7s batch=1 %9.0f pages/s   batch=%d %9.0f pages/s   speedup %.2fx\n",
              transport_name, single, kBatch, batched, batched / single);
  const std::string prefix = std::string(transport_name) + "/batch";
  EmitBenchResult("data_plane", prefix + "1", "pages_per_sec", single, "pages/s");
  EmitBenchResult("data_plane", prefix + std::to_string(kBatch), "pages_per_sec", batched,
                  "pages/s");
}

void BenchBatchedPageouts(bool quick) {
  {
    MemoryServerParams params;
    params.name = "inproc-bench";
    params.capacity_pages = kWireSlots + 16;
    MemoryServer server(params);
    InProcTransport transport(&server);
    const uint64_t first_slot = AllocWireSlots(&transport);
    const int pages = quick ? 4096 : 131072;
    const double single = PageoutPagesPerSec(&transport, first_slot, 1, pages);
    const double batched = PageoutPagesPerSec(&transport, first_slot, kBatch, pages);
    ReportBatchPair("inproc", single, batched);
  }
  {
    MemoryServerParams params;
    params.name = "tcp-bench";
    params.capacity_pages = kWireSlots + 16;
    auto server = std::make_shared<MemoryServer>(params);
    auto started = TcpServer::Start(0, TcpServer::ForwardTo(server),
                                    /*required_token=*/"", /*session_workers=*/4);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", started.status().ToString().c_str());
      std::exit(1);
    }
    auto client = TcpTransport::Connect("127.0.0.1", (*started)->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", client.status().ToString().c_str());
      std::exit(1);
    }
    const uint64_t first_slot = AllocWireSlots(client->get());
    const int pages = quick ? 2048 : 32768;
    const double single = PageoutPagesPerSec(client->get(), first_slot, 1, pages);
    const double batched = PageoutPagesPerSec(client->get(), first_slot, kBatch, pages);
    ReportBatchPair("tcp", single, batched);
  }
}

// --- 4. Compressed cold tier --------------------------------------------------

struct ComprSpec {
  const char* name;
  unsigned compr_min;  // FillCompressiblePage knobs: percent of the page that
  unsigned compr_max;  // is a zero run, drawn per page from [min, max].
};

MemoryServerParams TierBenchParams(const char* name, uint64_t capacity_pages, uint32_t hot_pages) {
  MemoryServerParams params;
  params.name = name;
  params.capacity_pages = capacity_pages;
  params.store_shards = 4;
  params.tier.hot_page_limit = hot_pages;
  // Promotion off: repeated loads stay cold, so the pagein numbers measure
  // the decompress + verify path rather than a warmed hot set.
  params.tier.promote_after_hits = 0;
  return params;
}

uint64_t StoreSweepPages(MemoryServer* server, int pages, uint64_t seed0, const ComprSpec& spec) {
  auto first = server->Allocate(static_cast<uint64_t>(pages));
  if (!first.ok()) {
    std::fprintf(stderr, "tier alloc failed: %s\n", first.status().ToString().c_str());
    std::exit(1);
  }
  PageBuffer page;
  for (int i = 0; i < pages; ++i) {
    FillCompressiblePage(page.span(), seed0 + static_cast<uint64_t>(i), spec.compr_min,
                         spec.compr_max);
    if (!server->Store(*first + static_cast<uint64_t>(i), page.span()).ok()) {
      std::exit(1);
    }
  }
  return *first;
}

double PageinP50Micros(MemoryServer* server, uint64_t first_slot, int pages, int reads) {
  std::vector<double> micros;
  micros.reserve(static_cast<size_t>(reads));
  for (int i = 0; i < reads; ++i) {
    // Stride through the slots so consecutive reads don't share an extent.
    const uint64_t slot = first_slot + static_cast<uint64_t>((i * 17) % pages);
    const auto start = Clock::now();
    auto loaded = server->Load(slot);
    const double us = Seconds(Clock::now() - start) * 1e6;
    if (!loaded.ok()) {
      std::fprintf(stderr, "tier load failed: %s\n", loaded.status().ToString().c_str());
      std::exit(1);
    }
    micros.push_back(us);
  }
  std::sort(micros.begin(), micros.end());
  return micros[micros.size() / 2];
}

void BenchCompressedTier(bool quick) {
  const int pages = quick ? 192 : 1024;
  const int reads = quick ? 384 : 4096;

  // Flat baseline: same store, tier off, so the pagein delta isolates what
  // the decompress path adds.
  {
    MemoryServer flat(TierBenchParams("flat-bench", static_cast<uint64_t>(pages) + 64,
                                      /*hot_pages=*/0));
    const uint64_t first = StoreSweepPages(&flat, pages, 5000, {"c50", 45, 55});
    const double p50 = PageinP50Micros(&flat, first, pages, reads);
    std::printf("tier flat       pagein p50 %6.2f us   (tier off)\n", p50);
    EmitBenchResult("data_plane", "tier/flat/pagein_p50", "latency", p50, "us");
  }

  const ComprSpec sweep[] = {{"c25", 20, 30}, {"c50", 45, 55}, {"c75", 70, 80}, {"random", 0, 0}};
  for (const ComprSpec& spec : sweep) {
    MemoryServer server(TierBenchParams("tier-bench", static_cast<uint64_t>(pages) + 64,
                                        /*hot_pages=*/64));
    const uint64_t first = StoreSweepPages(&server, pages, 9000, spec);
    const double ratio =
        static_cast<double>(server.logical_bytes()) / static_cast<double>(server.physical_bytes());
    const double p50 = PageinP50Micros(&server, first, pages, reads);
    std::printf("tier %-10s capacity %5.2fx   pagein p50 %6.2f us\n", spec.name, ratio, p50);
    const std::string prefix = std::string("tier/") + spec.name;
    EmitBenchResult("data_plane", prefix + "/capacity", "effective_capacity", ratio, "x");
    EmitBenchResult("data_plane", prefix + "/pagein_p50", "latency", p50, "us");
  }

  // Dedup: many stores, 16 distinct contents — physical bytes track the
  // distinct set, so the ratio shows the refcounted index working.
  {
    MemoryServer server(TierBenchParams("dedup-bench", static_cast<uint64_t>(pages) + 64,
                                        /*hot_pages=*/64));
    auto first = server.Allocate(static_cast<uint64_t>(pages));
    if (!first.ok()) {
      std::exit(1);
    }
    PageBuffer page;
    for (int i = 0; i < pages; ++i) {
      FillCompressiblePage(page.span(), 7000 + static_cast<uint64_t>(i % 16), 45, 55);
      if (!server.Store(*first + static_cast<uint64_t>(i), page.span()).ok()) {
        std::exit(1);
      }
    }
    const double ratio =
        static_cast<double>(server.logical_bytes()) / static_cast<double>(server.physical_bytes());
    std::printf("tier dedup      capacity %5.2fx   (16 distinct contents)\n", ratio);
    EmitBenchResult("data_plane", "tier/dedup/capacity", "effective_capacity", ratio, "x");
  }
}

int Main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    }
  }
  BenchXor(quick);
  BenchServerStore(quick);
  BenchBatchedPageouts(quick);
  BenchCompressedTier(quick);
  return 0;
}

}  // namespace
}  // namespace rmp

int main(int argc, char** argv) { return rmp::Main(argc, argv); }
