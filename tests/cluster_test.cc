#include "src/core/cluster.h"

#include <gtest/gtest.h>

#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"

namespace rmp {
namespace {

// A peer wired to a real in-process MemoryServer.
struct PeerFixture {
  explicit PeerFixture(uint64_t capacity) {
    MemoryServerParams params;
    params.capacity_pages = capacity;
    server = std::make_unique<MemoryServer>(params);
    transport = new InProcTransport(server.get());
    peer = std::make_unique<ServerPeer>("peer", std::unique_ptr<Transport>(transport));
  }
  std::unique_ptr<MemoryServer> server;
  InProcTransport* transport;  // Owned by peer.
  std::unique_ptr<ServerPeer> peer;
};

TEST(ServerPeerTest, AllocExtentFillsPool) {
  PeerFixture f(128);
  ASSERT_TRUE(f.peer->AllocExtent(16).ok());
  EXPECT_EQ(f.peer->pooled_slots(), 16u);
  auto slot = f.peer->TakeSlot();
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(f.peer->pooled_slots(), 15u);
}

TEST(ServerPeerTest, EmptyPoolIsNotFound) {
  PeerFixture f(128);
  EXPECT_EQ(f.peer->TakeSlot().status().code(), ErrorCode::kNotFound);
}

TEST(ServerPeerTest, ReturnedSlotsReusedFirst) {
  PeerFixture f(128);
  ASSERT_TRUE(f.peer->AllocExtent(4).ok());
  auto slot = f.peer->TakeSlot();
  f.peer->ReturnSlot(*slot);
  auto again = f.peer->TakeSlot();
  EXPECT_EQ(*again, *slot);
}

TEST(ServerPeerTest, PageOutAndInRoundTrip) {
  PeerFixture f(128);
  ASSERT_TRUE(f.peer->AllocExtent(4).ok());
  auto slot = f.peer->TakeSlot();
  PageBuffer page;
  FillPattern(page.span(), 50);
  auto advise = f.peer->PageOutTo(*slot, page.span());
  ASSERT_TRUE(advise.ok());
  EXPECT_FALSE(*advise);
  PageBuffer in;
  ASSERT_TRUE(f.peer->PageInFrom(*slot, in.span()).ok());
  EXPECT_EQ(in, page);
  EXPECT_EQ(f.peer->pages_sent(), 1);
  EXPECT_EQ(f.peer->pages_fetched(), 1);
}

TEST(ServerPeerTest, AllocDenialSurfacesNoSpace) {
  PeerFixture f(4);
  EXPECT_EQ(f.peer->AllocExtent(8).code(), ErrorCode::kNoSpace);
  EXPECT_TRUE(f.peer->alive());  // Denial is not death.
}

TEST(ServerPeerTest, TransportFailureMarksDead) {
  PeerFixture f(128);
  f.transport->Disconnect();
  EXPECT_EQ(f.peer->AllocExtent(4).code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(f.peer->alive());
}

TEST(ServerPeerTest, CrashedServerReplyMarksDead) {
  PeerFixture f(128);
  ASSERT_TRUE(f.peer->AllocExtent(4).ok());
  auto slot = f.peer->TakeSlot();
  f.server->Crash();  // Transport still up; server replies UNAVAILABLE.
  PageBuffer page;
  EXPECT_EQ(f.peer->PageOutTo(*slot, page.span()).status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(f.peer->alive());
}

TEST(ServerPeerTest, QueryLoadUpdatesKnownFree) {
  PeerFixture f(100);
  auto load = f.peer->QueryLoad();
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->free_pages, 100u);
  EXPECT_EQ(f.peer->known_free_pages(), 100u);
  ASSERT_TRUE(f.peer->AllocExtent(60).ok());
  load = f.peer->QueryLoad();
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->free_pages, 40u);
}

TEST(ServerPeerTest, FreeOnReturnsCapacity) {
  PeerFixture f(16);
  ASSERT_TRUE(f.peer->AllocExtent(16).ok());
  auto slot = f.peer->TakeSlot();
  ASSERT_TRUE(f.peer->FreeOn(*slot, 1).ok());
  EXPECT_EQ(f.server->free_pages(), 1u);
}

// The single full-revival path: after a server comes back (restart or healed
// partition + repair), Reset() must discard every piece of state from the
// peer's previous life — mark_alive() alone would revive it with a poisoned
// slot pool and latched ADVISE_STOP.
TEST(ServerPeerTest, ResetDropsPoolAndStaleAdvice) {
  PeerFixture f(128);
  ASSERT_TRUE(f.peer->AllocExtent(8).ok());
  ASSERT_TRUE(f.peer->TakeSlot().ok());
  f.peer->set_stopped(true);
  f.peer->set_no_new_extents(true);
  f.peer->set_known_free_pages(77);
  f.peer->mark_dead();

  f.peer->Reset();
  EXPECT_TRUE(f.peer->alive());
  EXPECT_FALSE(f.peer->stopped());
  EXPECT_FALSE(f.peer->no_new_extents());
  EXPECT_EQ(f.peer->pooled_slots(), 0u);  // Stale extents are gone.
  EXPECT_EQ(f.peer->known_free_pages(), 0u);
  EXPECT_TRUE(f.peer->usable());
  // Fresh extents are granted on demand, exactly like a brand-new peer.
  ASSERT_TRUE(f.peer->AllocExtent(4).ok());
  EXPECT_TRUE(f.peer->TakeSlot().ok());
}

TEST(ServerPeerTest, DeltaAndXorMergeRpcs) {
  PeerFixture f(32);
  ASSERT_TRUE(f.peer->AllocExtent(4).ok());
  auto data_slot = f.peer->TakeSlot();
  auto parity_slot = f.peer->TakeSlot();
  PageBuffer v1;
  FillPattern(v1.span(), 1);
  auto delta = f.peer->DeltaPageOutTo(*data_slot, v1.span());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, v1);  // Old content was zero.
  ASSERT_TRUE(f.peer->XorMergeOn(*parity_slot, delta->span()).ok());
  auto parity = f.server->Load(*parity_slot);
  ASSERT_TRUE(parity.ok());
  EXPECT_EQ(*parity, v1);
}

// --- Cluster selection -------------------------------------------------------

class ClusterFixture : public ::testing::Test {
 protected:
  void AddServer(uint64_t capacity) {
    MemoryServerParams params;
    params.name = "s";
    params.name += std::to_string(servers_.size());
    params.capacity_pages = capacity;
    servers_.push_back(std::make_unique<MemoryServer>(params));
    auto transport = std::make_unique<InProcTransport>(servers_.back().get());
    transports_.push_back(transport.get());
    cluster_.AddPeer(params.name, std::move(transport));
  }

  Cluster cluster_;
  std::vector<std::unique_ptr<MemoryServer>> servers_;
  std::vector<InProcTransport*> transports_;
};

TEST_F(ClusterFixture, MostPromisingPicksLargestFree) {
  AddServer(10);
  AddServer(100);
  AddServer(50);
  auto best = cluster_.MostPromising(/*refresh=*/true);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, 1u);
}

TEST_F(ClusterFixture, MostPromisingSkipsStoppedAndDead) {
  AddServer(100);
  AddServer(50);
  cluster_.peer(0).set_stopped(true);
  auto best = cluster_.MostPromising(true);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, 1u);
  cluster_.peer(1).mark_dead();
  EXPECT_FALSE(cluster_.MostPromising(true).ok());
}

TEST_F(ClusterFixture, NextUsableRoundRobins) {
  AddServer(10);
  AddServer(10);
  AddServer(10);
  size_t cursor = 0;
  EXPECT_EQ(*cluster_.NextUsable(&cursor), 1u);
  EXPECT_EQ(*cluster_.NextUsable(&cursor), 2u);
  EXPECT_EQ(*cluster_.NextUsable(&cursor), 0u);
  EXPECT_EQ(*cluster_.NextUsable(&cursor), 1u);
}

TEST_F(ClusterFixture, NextUsableSkipsUnusable) {
  AddServer(10);
  AddServer(10);
  AddServer(10);
  cluster_.peer(1).set_stopped(true);
  size_t cursor = 0;
  EXPECT_EQ(*cluster_.NextUsable(&cursor), 2u);
  EXPECT_EQ(*cluster_.NextUsable(&cursor), 0u);
}

TEST_F(ClusterFixture, AnyUsableReflectsState) {
  AddServer(10);
  EXPECT_TRUE(cluster_.AnyUsable());
  cluster_.peer(0).set_stopped(true);
  EXPECT_FALSE(cluster_.AnyUsable());
  cluster_.peer(0).set_stopped(false);
  cluster_.peer(0).mark_dead();
  EXPECT_FALSE(cluster_.AnyUsable());
}

TEST_F(ClusterFixture, RefreshDetectsAdviseStop) {
  AddServer(10);
  // Fill the server past its advise threshold directly.
  ASSERT_TRUE(servers_[0]->Allocate(10).ok());
  auto best = cluster_.MostPromising(/*refresh=*/true);
  // The server advised stop and the client holds no pooled slots for it:
  // nothing is usable. The peer is flagged no-new-extents, not dead.
  EXPECT_FALSE(best.ok());
  EXPECT_TRUE(cluster_.peer(0).no_new_extents());
  EXPECT_FALSE(cluster_.peer(0).usable());
  EXPECT_TRUE(cluster_.peer(0).alive());
}

TEST_F(ClusterFixture, AdvisedPeerWithPooledSlotsStaysUsable) {
  AddServer(10);
  ASSERT_TRUE(cluster_.peer(0).AllocExtent(4).ok());
  cluster_.peer(0).set_no_new_extents(true);
  // Already-granted slots keep the peer usable until the pool drains.
  EXPECT_TRUE(cluster_.peer(0).usable());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster_.peer(0).TakeSlot().ok());
  }
  EXPECT_FALSE(cluster_.peer(0).usable());
}

}  // namespace
}  // namespace rmp
