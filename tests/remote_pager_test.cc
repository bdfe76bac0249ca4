// Unit tests of the shared policy machinery in RemotePagerBase: slot
// acquisition with extent fallback, selection modes, and transfer-time
// accounting through the fabric.

#include "src/core/remote_pager.h"

#include <gtest/gtest.h>

#include "src/net/ethernet_model.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"

namespace rmp {
namespace {

// Minimal concrete policy exposing the protected helpers.
class ProbePager : public RemotePagerBase {
 public:
  ProbePager(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
             const RemotePagerParams& params)
      : RemotePagerBase(std::move(cluster), std::move(fabric), params) {}

  Result<TimeNs> PageOut(TimeNs now, uint64_t, std::span<const uint8_t>) override { return now; }
  Result<TimeNs> PageIn(TimeNs now, uint64_t, std::span<uint8_t>) override { return now; }
  std::string Name() const override { return "PROBE"; }

  using RemotePagerBase::ChargeControl;
  using RemotePagerBase::ChargePageTransfer;
  using RemotePagerBase::ChargePageTransferAsync;
  using RemotePagerBase::PickPeer;
  using RemotePagerBase::TakeSlotOn;
};

struct Rig {
  explicit Rig(std::vector<uint64_t> capacities,
               RemotePagerParams params = RemotePagerParams(),
               std::shared_ptr<const NetworkModel> network = nullptr) {
    Cluster cluster;
    for (size_t i = 0; i < capacities.size(); ++i) {
      MemoryServerParams server_params;
      server_params.name = "s";
      server_params.name += std::to_string(i);
      server_params.capacity_pages = capacities[i];
      servers.push_back(std::make_unique<MemoryServer>(server_params));
      cluster.AddPeer(server_params.name,
                      std::make_unique<InProcTransport>(servers.back().get()));
    }
    auto fabric = network != nullptr ? std::make_shared<NetworkFabric>(network)
                                     : std::make_shared<NetworkFabric>();
    pager = std::make_unique<ProbePager>(std::move(cluster), fabric, params);
  }

  std::vector<std::unique_ptr<MemoryServer>> servers;
  std::unique_ptr<ProbePager> pager;
};

TEST(RemotePagerTest, TakeSlotAllocatesExtentOnDemand) {
  RemotePagerParams params;
  params.alloc_extent_pages = 8;
  Rig rig({64}, params);
  TimeNs now = 0;
  auto slot = rig.pager->TakeSlotOn(0, &now);
  ASSERT_TRUE(slot.ok());
  // One extent granted, 7 slots pooled.
  EXPECT_EQ(rig.pager->cluster().peer(0).pooled_slots(), 7u);
  EXPECT_EQ(rig.servers[0]->free_pages(), 56u);
}

TEST(RemotePagerTest, SingleSlotFallbackWhenExtentDenied) {
  RemotePagerParams params;
  params.alloc_extent_pages = 16;
  Rig rig({5}, params);  // Extent of 16 can never be granted.
  TimeNs now = 0;
  for (int i = 0; i < 5; ++i) {
    auto slot = rig.pager->TakeSlotOn(0, &now);
    ASSERT_TRUE(slot.ok()) << i;  // Single-slot grants keep working.
  }
  EXPECT_EQ(rig.pager->TakeSlotOn(0, &now).status().code(), ErrorCode::kNoSpace);
}

TEST(RemotePagerTest, TakeSlotRespectsNoNewExtents) {
  RemotePagerParams params;
  params.alloc_extent_pages = 4;
  Rig rig({64}, params);
  TimeNs now = 0;
  ASSERT_TRUE(rig.pager->TakeSlotOn(0, &now).ok());
  rig.pager->cluster().peer(0).set_no_new_extents(true);
  // Pool still has 3 slots.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.pager->TakeSlotOn(0, &now).ok());
  }
  EXPECT_EQ(rig.pager->TakeSlotOn(0, &now).status().code(), ErrorCode::kNoSpace);
  EXPECT_EQ(rig.servers[0]->free_pages(), 60u);  // No new server-side grants.
}

TEST(RemotePagerTest, RoundRobinSelectionCycles) {
  RemotePagerParams params;
  params.selection = ServerSelection::kRoundRobin;
  Rig rig({64, 64, 64}, params);
  TimeNs now = 0;
  std::vector<size_t> picks;
  for (int i = 0; i < 6; ++i) {
    auto pick = rig.pager->PickPeer(&now);
    ASSERT_TRUE(pick.ok());
    picks.push_back(*pick);
  }
  EXPECT_EQ(picks, (std::vector<size_t>{1, 2, 0, 1, 2, 0}));
}

TEST(RemotePagerTest, MostFreeSelectionPrefersEmptierServer) {
  RemotePagerParams params;
  params.selection = ServerSelection::kMostFree;
  params.alloc_extent_pages = 32;
  Rig rig({32, 128}, params);
  TimeNs now = 0;
  auto pick = rig.pager->PickPeer(&now);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);
  // Consuming an extent from s1 flips the preference via local accounting.
  ASSERT_TRUE(rig.pager->TakeSlotOn(1, &now).ok());
  ASSERT_TRUE(rig.pager->TakeSlotOn(1, &now).ok());  // known_free s1: 128-32... still 96.
  pick = rig.pager->PickPeer(&now);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);  // 96 > 32 still.
  // Three more extents drain s1's advantage.
  rig.pager->cluster().peer(1).set_known_free_pages(16);
  pick = rig.pager->PickPeer(&now);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 0u);
}

TEST(RemotePagerTest, ChargesAccumulateInStats) {
  Rig rig({64}, RemotePagerParams(), std::make_shared<EthernetModel>());
  TimeNs now = 0;
  now = rig.pager->ChargePageTransfer(now);
  EXPECT_NEAR(ToMillis(now), 11.28, 0.3);  // protocol + wire.
  now = rig.pager->ChargePageTransferAsync(now);
  EXPECT_EQ(rig.pager->stats().page_transfers, 2);
  EXPECT_GT(rig.pager->stats().protocol_time, 0);
  EXPECT_GT(rig.pager->stats().wire_time, 0);
}

TEST(RemotePagerTest, NoModelChargesNothing) {
  Rig rig({64});
  TimeNs now = Millis(7);
  EXPECT_EQ(rig.pager->ChargePageTransfer(now), Millis(7));
  EXPECT_EQ(rig.pager->ChargeControl(now), Millis(7));
}

}  // namespace
}  // namespace rmp
