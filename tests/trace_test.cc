#include "src/vm/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/testbed.h"
#include "src/model/run_simulator.h"
#include "src/workloads/workload.h"

namespace rmp {
namespace {

std::string TempTracePath(const char* tag) {
  return ::testing::TempDir() + "/rmp_trace_" + tag + ".bin";
}

TEST(TraceTest, RecordsAccessesFromVm) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 1;
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok());
  VmParams vm_params;
  vm_params.virtual_pages = 16;
  vm_params.physical_frames = 4;
  PagedVm vm(vm_params, &(*bed)->backend());
  AccessTrace trace;
  trace.AttachTo(&vm);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 3, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 7, false).ok());
  vm.SetAccessObserver(nullptr);
  ASSERT_TRUE(vm.Touch(&now, 9, true).ok());  // Not recorded.
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.vpage(0), 3u);
  EXPECT_TRUE(trace.is_write(0));
  EXPECT_EQ(trace.vpage(1), 7u);
  EXPECT_FALSE(trace.is_write(1));
  EXPECT_EQ(trace.MaxPageExclusive(), 8u);
  EXPECT_EQ(trace.CountWrites(), 1);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  AccessTrace trace;
  for (uint64_t i = 0; i < 1000; ++i) {
    trace.Add(i * 7 % 113, i % 3 == 0);
  }
  const std::string path = TempTracePath("roundtrip");
  ASSERT_TRUE(trace.Save(path).ok());
  auto loaded = AccessTrace::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == trace);
  std::remove(path.c_str());
}

TEST(TraceTest, EmptyTraceRoundTrips) {
  AccessTrace trace;
  const std::string path = TempTracePath("empty");
  ASSERT_TRUE(trace.Save(path).ok());
  auto loaded = AccessTrace::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(TraceTest, CorruptFileDetected) {
  AccessTrace trace;
  trace.Add(1, true);
  trace.Add(2, false);
  const std::string path = TempTracePath("corrupt");
  ASSERT_TRUE(trace.Save(path).ok());
  // Flip one byte in the events region.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 16 + 3, SEEK_SET);
  std::fputc(0x5a, f);
  std::fclose(f);
  auto loaded = AccessTrace::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorruption);
  std::remove(path.c_str());
}

TEST(TraceTest, VersionOneFileIsRefusedByVersionNotChecksum) {
  // Version 1 sealed the events with IEEE CRC32. Such a file must fail on
  // its version field, not as a checksum mismatch against CRC-32C.
  AccessTrace trace;
  trace.Add(5, true);
  const std::string path = TempTracePath("v1");
  ASSERT_TRUE(trace.Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint32_t v1 = 1;
  std::fseek(f, 4, SEEK_SET);  // The version follows the 4-byte magic.
  ASSERT_EQ(std::fwrite(&v1, sizeof(v1), 1, f), 1u);
  std::fclose(f);
  auto loaded = AccessTrace::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kProtocol);
  EXPECT_NE(loaded.status().ToString().find("unsupported trace version 1"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(TraceTest, TruncatedFileDetected) {
  AccessTrace trace;
  for (int i = 0; i < 10; ++i) {
    trace.Add(static_cast<uint64_t>(i), false);
  }
  const std::string path = TempTracePath("truncated");
  ASSERT_TRUE(trace.Save(path).ok());
  ASSERT_EQ(::truncate(path.c_str(), 24), 0);
  auto loaded = AccessTrace::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(TraceTest, NotATraceFileDetected) {
  const std::string path = TempTracePath("garbage");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  auto loaded = AccessTrace::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// The headline capability: record a workload's reference stream once, then
// replay it against a different policy and get the identical fault stream.
TEST(TraceTest, RecordedWorkloadReplaysIdentically) {
  const auto fft = MakeFft(2.0);  // Small: ~256 pages.
  // Record against NO_RELIABILITY.
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 2;
  params.server_capacity_pages = 512;
  auto record_bed = Testbed::Create(params);
  ASSERT_TRUE(record_bed.ok());
  VmParams vm_params;
  vm_params.virtual_pages = PagesForBytes(fft->info().data_bytes) + 16;
  vm_params.physical_frames = 64;
  AccessTrace trace;
  VmStats recorded_stats;
  {
    PagedVm vm(vm_params, &(*record_bed)->backend());
    trace.AttachTo(&vm);
    TimeNs now = 0;
    ASSERT_TRUE(fft->Run(&vm, &now).ok());
    recorded_stats = vm.stats();
  }
  ASSERT_EQ(static_cast<int64_t>(trace.size()), fft->access_count());

  // Replay against PARITY_LOGGING: same reference stream, same fault counts
  // (replacement is deterministic), different backend underneath.
  TestbedParams replay_params;
  replay_params.policy = Policy::kParityLogging;
  replay_params.data_servers = 4;
  replay_params.server_capacity_pages = 512;
  auto replay_bed = Testbed::Create(replay_params);
  ASSERT_TRUE(replay_bed.ok());
  PagedVm replay_vm(vm_params, &(*replay_bed)->backend());
  TimeNs now = 0;
  ASSERT_TRUE(trace.Replay(&replay_vm, &now, fft->info().user_seconds).ok());
  EXPECT_EQ(replay_vm.stats().accesses, recorded_stats.accesses);
  EXPECT_EQ(replay_vm.stats().faults, recorded_stats.faults);
  EXPECT_EQ(replay_vm.stats().pageouts, recorded_stats.pageouts);
  EXPECT_EQ(replay_vm.stats().pageins, recorded_stats.pageins);
}

}  // namespace
}  // namespace rmp
