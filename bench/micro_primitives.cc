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

void BM_VmTouchHit(benchmark::State& state) {
  MemoryServerParams server_params;
  server_params.capacity_pages = 4096;
  MemoryServer server(server_params);
  InProcTransport transport(&server);
  // Direct VM over a tiny backend; all touches hit.
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 1;
  auto testbed = Testbed::Create(params);
  VmParams vm_params;
  vm_params.virtual_pages = 64;
  vm_params.physical_frames = 64;
  PagedVm vm(vm_params, &(*testbed)->backend());
  TimeNs now = 0;
  uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Touch(&now, page, false).ok());
    page = (page + 1) % 64;
  }
}
BENCHMARK(BM_VmTouchHit);

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
