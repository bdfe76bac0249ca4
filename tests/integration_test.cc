// Full-stack integration: workload -> PagedVm -> policy backend -> servers,
// with timing models attached, plus the pager running over REAL TCP sockets
// end to end — the complete shape of the paper's deployment.

#include <gtest/gtest.h>

#include "src/core/parity_logging.h"
#include "src/core/testbed.h"
#include "src/model/run_simulator.h"
#include "src/net/ethernet_model.h"
#include "src/server/memory_server.h"
#include "src/transport/tcp.h"
#include "src/workloads/workload.h"

namespace rmp {
namespace {

// --- Simulated full stack ------------------------------------------------------

TEST(IntegrationTest, PaperHeadlineGaussRemoteBeatsDisk) {
  auto gauss = MakeGauss();
  auto network = std::make_shared<EthernetModel>();

  TestbedParams remote_params;
  remote_params.policy = Policy::kNoReliability;
  remote_params.data_servers = 2;
  remote_params.server_capacity_pages = 8192;
  remote_params.network = network;
  auto remote = Testbed::Create(remote_params);
  ASSERT_TRUE(remote.ok());

  TestbedParams disk_params;
  disk_params.policy = Policy::kDisk;
  auto disk = Testbed::Create(disk_params);
  ASSERT_TRUE(disk.ok());

  RunConfig config;
  config.physical_frames = 2304;
  auto remote_run = SimulateRun(*gauss, &(*remote)->backend(), config);
  auto disk_run = SimulateRun(*gauss, &(*disk)->backend(), config);
  ASSERT_TRUE(remote_run.ok());
  ASSERT_TRUE(disk_run.ok());
  // Paper: NO_RELIABILITY up to 96% faster than DISK on GAUSS. Require a
  // conservative 1.5x.
  EXPECT_GT(disk_run->etime_s, remote_run->etime_s * 1.5)
      << "disk " << disk_run->etime_s << " vs remote " << remote_run->etime_s;
}

TEST(IntegrationTest, ReliabilityOrderingHoldsOnFft) {
  auto fft = MakeFft(24.0);
  auto network = std::make_shared<EthernetModel>();
  auto run_policy = [&](Policy policy, int servers) -> double {
    TestbedParams params;
    params.policy = policy;
    params.data_servers = servers;
    params.server_capacity_pages = 8192;
    params.network = network;
    auto bed = Testbed::Create(params);
    EXPECT_TRUE(bed.ok());
    RunConfig config;
    config.physical_frames = 2304;
    auto run = SimulateRun(*fft, &(*bed)->backend(), config);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->etime_s;
  };
  const double no_rel = run_policy(Policy::kNoReliability, 2);
  const double parity = run_policy(Policy::kParityLogging, 4);
  const double mirror = run_policy(Policy::kMirroring, 2);
  EXPECT_LT(no_rel, parity);
  EXPECT_LT(parity, mirror);
  // "PARITY LOGGING performs very close to NO RELIABILITY."
  EXPECT_LT(parity / no_rel, 1.25);
}

TEST(IntegrationTest, WorkloadSurvivesCrashWithTimingAttached) {
  auto filter = MakeFilter();
  TestbedParams params;
  params.policy = Policy::kParityLogging;
  params.data_servers = 4;
  params.server_capacity_pages = 2048;
  params.network = std::make_shared<EthernetModel>();
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok());
  // Run the first half of the workload, crash, run a fresh run to
  // completion on the same (recovered) backend.
  RunConfig config;
  config.physical_frames = 1024;  // 8 MB: FILTER pages heavily.
  auto first = SimulateRun(*filter, &(*bed)->backend(), config);
  ASSERT_TRUE(first.ok());
  (*bed)->CrashServer(1);
  TimeNs now = 0;
  ASSERT_TRUE((*bed)->parity_logging()->Recover(1, &now).ok());
  auto second = SimulateRun(*filter, &(*bed)->backend(), config);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE((*bed)->parity_logging()->CheckInvariants().ok());
}

// --- The pager over real TCP ---------------------------------------------------

struct TcpFixture {
  std::vector<std::shared_ptr<MemoryServer>> servers;
  std::vector<std::unique_ptr<TcpServer>> listeners;

  Result<Cluster> Start(int count) {
    Cluster cluster;
    for (int i = 0; i < count; ++i) {
      MemoryServerParams params;
      params.name = "tcp-ws" + std::to_string(i);
      params.capacity_pages = 512;
      servers.push_back(std::make_shared<MemoryServer>(params));
      auto listener = TcpServer::Start(0, TcpServer::ForwardTo(servers.back()));
      if (!listener.ok()) {
        return listener.status();
      }
      auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
      if (!transport.ok()) {
        return transport.status();
      }
      listeners.push_back(std::move(*listener));
      cluster.AddPeer(params.name, std::move(*transport));
    }
    return cluster;
  }
};

TEST(IntegrationTest, ParityLoggingOverRealTcpWithCrash) {
  TcpFixture fixture;
  auto cluster = fixture.Start(4);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  RemotePagerParams pager_params;
  pager_params.alloc_extent_pages = 16;
  ParityLoggingBackend pager(std::move(*cluster), std::make_shared<NetworkFabric>(),
                             pager_params, /*parity_peer=*/3);
  PageBuffer page;
  for (uint64_t p = 0; p < 60; ++p) {
    FillPattern(page.span(), p);
    auto done = pager.PageOut(0, p, page.span());
    ASSERT_TRUE(done.ok()) << p << ": " << done.status().ToString();
  }
  // Kill one server process outright.
  fixture.servers[1]->Crash();
  fixture.listeners[1]->Shutdown();
  for (uint64_t p = 0; p < 60; ++p) {
    auto done = pager.PageIn(0, p, page.span());
    ASSERT_TRUE(done.ok()) << p << ": " << done.status().ToString();
    EXPECT_TRUE(CheckPattern(page.span(), p)) << p;
  }
  EXPECT_TRUE(pager.CheckInvariants().ok());
}

TEST(IntegrationTest, VmOverTcpCluster) {
  TcpFixture fixture;
  auto cluster = fixture.Start(3);
  ASSERT_TRUE(cluster.ok());
  RemotePagerParams pager_params;
  pager_params.alloc_extent_pages = 16;
  ParityLoggingBackend pager(std::move(*cluster), std::make_shared<NetworkFabric>(),
                             pager_params, /*parity_peer=*/2);
  VmParams vm_params;
  vm_params.virtual_pages = 64;
  vm_params.physical_frames = 8;
  PagedVm vm(vm_params, &pager);
  TimeNs now = 0;
  // Write a recognizable byte into each of 64 pages through 8 frames.
  for (uint64_t p = 0; p < 64; ++p) {
    const auto byte = static_cast<uint8_t>(p * 3 + 1);
    ASSERT_TRUE(vm.Write(&now, p * kPageSize, std::span<const uint8_t>(&byte, 1)).ok());
  }
  for (uint64_t p = 0; p < 64; ++p) {
    uint8_t byte = 0;
    ASSERT_TRUE(vm.Read(&now, p * kPageSize, std::span<uint8_t>(&byte, 1)).ok());
    EXPECT_EQ(byte, static_cast<uint8_t>(p * 3 + 1)) << p;
  }
  EXPECT_GT(vm.stats().pageouts, 40);
}

}  // namespace
}  // namespace rmp
