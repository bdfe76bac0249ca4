// Microbenchmarks of the primitives everything else is built on: the XOR
// kernel behind the parity policies, CRC-32C, wire encode/decode, the page
// pattern generator, and the hot VM/server paths.

#include <benchmark/benchmark.h>

#include "src/core/testbed.h"
#include "src/proto/wire.h"
#include "src/server/memory_server.h"
#include "src/util/bytes.h"
#include "src/util/checksum.h"
#include "src/util/checksum_internal.h"
#include "src/vm/paged_vm.h"
#include "src/vm/vm_array.h"

namespace rmp {
namespace {

void BM_XorPage(benchmark::State& state) {
  PageBuffer a;
  PageBuffer b;
  FillPattern(a.span(), 1);
  FillPattern(b.span(), 2);
  for (auto _ : state) {
    a.XorWith(b.span());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_XorPage);

void BM_Crc32cPage(benchmark::State& state) {
  PageBuffer page;
  FillPattern(page.span(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(page.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_Crc32cPage);

// The slice-by-8 fallback Crc32c uses on CPUs without SSE4.2 and PCLMUL.
void BM_Crc32cPageSoftware(benchmark::State& state) {
  PageBuffer page;
  FillPattern(page.span(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum_internal::Crc32cSoftware(0xffffffffu, page.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_Crc32cPageSoftware);

void BM_FillPattern(benchmark::State& state) {
  PageBuffer page;
  uint64_t seed = 0;
  for (auto _ : state) {
    FillPattern(page.span(), seed++);
    benchmark::DoNotOptimize(page.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_FillPattern);

void BM_EncodePageOut(benchmark::State& state) {
  PageBuffer page;
  FillPattern(page.span(), 4);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    EncodeTo(MakePageOut(1, 2, page.span()), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_EncodePageOut);

void BM_DecodePageOut(benchmark::State& state) {
  PageBuffer page;
  FillPattern(page.span(), 5);
  const std::vector<uint8_t> encoded = Encode(MakePageOut(1, 2, page.span()));
  for (auto _ : state) {
    auto decoded = Decode(std::span<const uint8_t>(encoded));
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_DecodePageOut);

void BM_ServerStoreLoad(benchmark::State& state) {
  MemoryServerParams params;
  params.capacity_pages = 1024;
  MemoryServer server(params);
  auto slot = server.Allocate(1);
  PageBuffer page;
  FillPattern(page.span(), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Store(*slot, page.span()).ok());
    auto loaded = server.Load(*slot);
    benchmark::DoNotOptimize(loaded.ok());
  }
}
BENCHMARK(BM_ServerStoreLoad);

// A VM whose 64 pages all fit in its 64 frames: after its first touch, every
// access to a page hits.
std::unique_ptr<Testbed> HitOnlyTestbed() {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 1;
  return Testbed::Create(params).value();
}

constexpr VmParams kHitOnlyVm{.virtual_pages = 64, .physical_frames = 64};

void BM_VmTouchHit(benchmark::State& state) {
  auto testbed = HitOnlyTestbed();
  PagedVm vm(kHitOnlyVm, &testbed->backend());
  TimeNs now = 0;
  uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Touch(&now, page, false).ok());
    page = (page + 1) % 64;
  }
}
BENCHMARK(BM_VmTouchHit);

// Sequential element reads: all but one access per page hit the VM's
// translation cache.
void BM_VmArrayGetSequential(benchmark::State& state) {
  auto testbed = HitOnlyTestbed();
  PagedVm vm(kHitOnlyVm, &testbed->backend());
  VmArray<uint64_t> array(&vm, 0, 64 * kPageSize / sizeof(uint64_t));
  TimeNs now = 0;
  uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.Get(&now, index));
    index = (index + 1) % array.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VmArrayGetSequential);

// Reads alternating between two resident pages, like a Hoare partition's i
// and j scans: every access misses the translation cache but hits the page
// table.
void BM_VmArrayGetTwoPages(benchmark::State& state) {
  auto testbed = HitOnlyTestbed();
  PagedVm vm(kHitOnlyVm, &testbed->backend());
  VmArray<uint64_t> array(&vm, 0, 64 * kPageSize / sizeof(uint64_t));
  const uint64_t per_page = kPageSize / sizeof(uint64_t);
  TimeNs now = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.Get(&now, i));
    benchmark::DoNotOptimize(array.Get(&now, array.size() - 1 - i));
    i = (i + 1) % per_page;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_VmArrayGetTwoPages);

void BM_InProcPageOutRpc(benchmark::State& state) {
  MemoryServerParams params;
  params.capacity_pages = 4096;
  MemoryServer server(params);
  InProcTransport transport(&server);
  auto slot = server.Allocate(1);
  PageBuffer page;
  FillPattern(page.span(), 7);
  uint64_t request_id = 0;
  for (auto _ : state) {
    auto reply = transport.Call(MakePageOut(++request_id, *slot, page.span()));
    benchmark::DoNotOptimize(reply.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_InProcPageOutRpc);

}  // namespace
}  // namespace rmp

BENCHMARK_MAIN();
