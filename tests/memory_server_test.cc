#include "src/server/memory_server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rmp {
namespace {

MemoryServerParams SmallServer(uint64_t capacity = 64) {
  MemoryServerParams params;
  params.name = "test-server";
  params.capacity_pages = capacity;
  return params;
}

TEST(MemoryServerTest, AllocateGrantsDistinctRuns) {
  MemoryServer server(SmallServer());
  auto a = server.Allocate(8);
  auto b = server.Allocate(8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(server.free_pages(), 64u - 16u);
}

TEST(MemoryServerTest, DeniesBeyondCapacity) {
  MemoryServer server(SmallServer(10));
  EXPECT_TRUE(server.Allocate(10).ok());
  auto denied = server.Allocate(1);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), ErrorCode::kNoSpace);
  EXPECT_EQ(server.stats().denials, 1);
}

TEST(MemoryServerTest, ZeroPageAllocationRejected) {
  MemoryServer server(SmallServer());
  EXPECT_EQ(server.Allocate(0).status().code(), ErrorCode::kInvalidArgument);
}

TEST(MemoryServerTest, StoreAndLoadRoundTrip) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  PageBuffer page;
  FillPattern(page.span(), 5);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  auto loaded = server.Load(*slot);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, page);
}

TEST(MemoryServerTest, LoadOfEmptySlotIsNotFound) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  EXPECT_EQ(server.Load(*slot).status().code(), ErrorCode::kNotFound);
}

TEST(MemoryServerTest, StoreToUnallocatedSlotRejected) {
  MemoryServer server(SmallServer());
  PageBuffer page;
  EXPECT_EQ(server.Store(1000, page.span()).code(), ErrorCode::kInvalidArgument);
}

TEST(MemoryServerTest, StoreWrongSizeRejected) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  std::vector<uint8_t> tiny(16, 0);
  EXPECT_EQ(server.Store(*slot, std::span<const uint8_t>(tiny)).code(),
            ErrorCode::kInvalidArgument);
}

TEST(MemoryServerTest, FreeReleasesCapacityAndPages) {
  MemoryServer server(SmallServer(8));
  auto slot = server.Allocate(8);
  PageBuffer page;
  FillPattern(page.span(), 1);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  ASSERT_TRUE(server.Free(*slot, 8).ok());
  EXPECT_EQ(server.free_pages(), 8u);
  EXPECT_FALSE(server.Holds(*slot));
  // Freed slots are reused.
  auto again = server.Allocate(8);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *slot);
}

TEST(MemoryServerTest, AdviseStopNearCapacity) {
  MemoryServerParams params = SmallServer(100);
  params.advise_stop_fraction = 0.9;
  MemoryServer server(params);
  EXPECT_FALSE(server.ShouldAdviseStop());
  ASSERT_TRUE(server.Allocate(90).ok());
  EXPECT_TRUE(server.ShouldAdviseStop());
}

TEST(MemoryServerTest, NativeLoadShrinksCapacity) {
  MemoryServer server(SmallServer(100));
  EXPECT_EQ(server.capacity_pages(), 100u);
  server.SetNativeLoad(0.5);
  EXPECT_EQ(server.capacity_pages(), 50u);
  server.SetNativeLoad(1.0);
  EXPECT_EQ(server.capacity_pages(), 0u);
  EXPECT_TRUE(server.ShouldAdviseStop());
}

TEST(MemoryServerTest, CrashDropsEverything) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(4);
  PageBuffer page;
  FillPattern(page.span(), 2);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  server.Crash();
  EXPECT_TRUE(server.crashed());
  EXPECT_EQ(server.live_pages(), 0u);
  EXPECT_EQ(server.Load(*slot).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.Store(*slot, page.span()).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.Allocate(1).status().code(), ErrorCode::kUnavailable);
}

TEST(MemoryServerTest, RestartComesBackEmpty) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(4);
  server.Crash();
  server.Restart();
  EXPECT_FALSE(server.crashed());
  EXPECT_EQ(server.live_pages(), 0u);
  EXPECT_EQ(server.free_pages(), 64u);  // All capacity reclaimed.
  (void)slot;
}

TEST(MemoryServerTest, DeltaStoreReturnsOldXorNew) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  PageBuffer v1;
  PageBuffer v2;
  FillPattern(v1.span(), 10);
  FillPattern(v2.span(), 11);
  // First store: old is the zero page, so the delta equals v1.
  auto delta1 = server.DeltaStore(*slot, v1.span());
  ASSERT_TRUE(delta1.ok());
  EXPECT_EQ(*delta1, v1);
  // Second store: delta = v1 ^ v2.
  auto delta2 = server.DeltaStore(*slot, v2.span());
  ASSERT_TRUE(delta2.ok());
  PageBuffer expected(v1.span());
  expected.XorWith(v2.span());
  EXPECT_EQ(*delta2, expected);
  EXPECT_EQ(*server.Load(*slot), v2);
}

TEST(MemoryServerTest, XorMergeFoldsIntoStored) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  PageBuffer a;
  PageBuffer b;
  FillPattern(a.span(), 20);
  FillPattern(b.span(), 21);
  ASSERT_TRUE(server.XorMerge(*slot, a.span()).ok());  // Zero ^ a = a.
  ASSERT_TRUE(server.XorMerge(*slot, b.span()).ok());
  PageBuffer expected(a.span());
  expected.XorWith(b.span());
  EXPECT_EQ(*server.Load(*slot), expected);
}

TEST(MemoryServerTest, SingleShardConfigKeepsSemantics) {
  MemoryServerParams params = SmallServer();
  params.store_shards = 1;
  MemoryServer server(params);
  EXPECT_EQ(server.shard_count(), 1u);
  auto slot = server.Allocate(2);
  PageBuffer page;
  FillPattern(page.span(), 9);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  EXPECT_EQ(*server.Load(*slot), page);
  ASSERT_TRUE(server.Free(*slot, 2).ok());
  EXPECT_FALSE(server.Holds(*slot));
}

TEST(MemoryServerTest, FramesRecycledAcrossFreeAndRealloc) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(8);
  PageBuffer page;
  for (uint64_t i = 0; i < 8; ++i) {
    FillPattern(page.span(), i);
    ASSERT_TRUE(server.Store(*slot + i, page.span()).ok());
  }
  ASSERT_TRUE(server.Free(*slot, 8).ok());
  // The recycled frames must not leak their old bytes through the
  // absent-slot-reads-as-zero parity primitives.
  auto again = server.Allocate(8);
  ASSERT_TRUE(again.ok());
  PageBuffer delta;
  FillPattern(delta.span(), 99);
  ASSERT_TRUE(server.XorMerge(*again, delta.span()).ok());
  EXPECT_EQ(*server.Load(*again), delta);  // zero ^ delta, not stale ^ delta.
}

TEST(MemoryServerTest, HoldsOnlyStoredSlots) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(5);
  PageBuffer page;
  ASSERT_TRUE(server.Store(*slot + 3, page.span()).ok());
  ASSERT_TRUE(server.Store(*slot + 1, page.span()).ok());
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(server.Holds(*slot + i), i == 1 || i == 3) << i;
  }
  EXPECT_EQ(server.live_pages(), 2u);
}

// Wire-protocol dispatch.
TEST(MemoryServerHandleTest, AllocAndDenial) {
  MemoryServer server(SmallServer(4));
  Message reply = server.Handle(MakeAllocRequest(1, 4));
  EXPECT_EQ(reply.type, MessageType::kAllocReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kOk);
  EXPECT_EQ(reply.count, 4u);
  reply = server.Handle(MakeAllocRequest(2, 1));
  EXPECT_EQ(reply.status_code(), ErrorCode::kNoSpace);
}

TEST(MemoryServerHandleTest, PageOutInRoundTrip) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  PageBuffer page;
  FillPattern(page.span(), 30);
  const Message ack = server.Handle(MakePageOut(2, alloc.slot, page.span()));
  EXPECT_EQ(ack.type, MessageType::kPageOutAck);
  EXPECT_EQ(ack.status_code(), ErrorCode::kOk);
  const Message reply = server.Handle(MakePageIn(3, alloc.slot));
  EXPECT_EQ(reply.type, MessageType::kPageInReply);
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(reply.payload), 30));
}

TEST(MemoryServerHandleTest, LoadReport) {
  MemoryServer server(SmallServer(100));
  const Message report = server.Handle(MakeLoadQuery(1));
  EXPECT_EQ(report.type, MessageType::kLoadReport);
  EXPECT_EQ(report.count, 100u);
  EXPECT_EQ(report.aux, 100u);
  EXPECT_FALSE(report.advise_stop());
}

TEST(MemoryServerHandleTest, AdviseStopPiggybackedOnAck) {
  MemoryServerParams params = SmallServer(10);
  params.advise_stop_fraction = 0.5;
  MemoryServer server(params);
  const Message alloc = server.Handle(MakeAllocRequest(1, 6));
  PageBuffer page;
  const Message ack = server.Handle(MakePageOut(2, alloc.slot, page.span()));
  EXPECT_TRUE(ack.advise_stop());
}

TEST(MemoryServerHandleTest, UnknownRequestYieldsErrorReply) {
  MemoryServer server(SmallServer());
  Message bogus;
  bogus.type = MessageType::kAllocReply;  // A reply is not a valid request.
  bogus.request_id = 9;
  const Message reply = server.Handle(bogus);
  EXPECT_EQ(reply.type, MessageType::kErrorReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kProtocol);
  EXPECT_EQ(reply.request_id, 9u);
}

TEST(MemoryServerHandleTest, PageOutBatchRoundTrip) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 3));
  std::vector<uint64_t> slots;
  std::vector<uint8_t> pages;
  for (uint64_t i = 0; i < 3; ++i) {
    slots.push_back(alloc.slot + i);
    PageBuffer page;
    FillPattern(page.span(), 50 + i);
    pages.insert(pages.end(), page.span().begin(), page.span().end());
  }
  const Message ack = server.Handle(MakePageOutBatch(2, slots, pages));
  EXPECT_EQ(ack.type, MessageType::kPageOutBatchAck);
  EXPECT_EQ(ack.status_code(), ErrorCode::kOk);
  EXPECT_EQ(ack.count, 3u);

  const Message reply = server.Handle(MakePageInBatch(3, slots));
  EXPECT_EQ(reply.type, MessageType::kPageInBatchReply);
  ASSERT_EQ(reply.status_code(), ErrorCode::kOk);
  ASSERT_TRUE(ValidateBatch(reply).ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(CheckPattern(BatchPage(reply, i), 50 + i)) << i;
  }
}

TEST(MemoryServerHandleTest, PageBatchesRoundTripAndCountEachPage) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 4));
  std::vector<uint64_t> slots;
  std::vector<uint8_t> pages;
  for (uint64_t i = 0; i < 4; ++i) {
    slots.push_back(alloc.slot + i);
    PageBuffer page;
    FillPattern(page.span(), 70 + i);
    pages.insert(pages.end(), page.span().begin(), page.span().end());
  }
  const Message ack = server.Handle(MakePageOutBatch(2, slots, pages));
  ASSERT_EQ(ack.status_code(), ErrorCode::kOk);
  EXPECT_EQ(ack.count, 4u);
  EXPECT_EQ(server.stats().pageouts_served, 4);
  EXPECT_EQ(server.stats().bytes_stored, 4 * kPageSize);

  const Message reply = server.Handle(MakePageInBatch(3, slots));
  ASSERT_EQ(reply.status_code(), ErrorCode::kOk);
  EXPECT_EQ(reply.count, 4u);
  EXPECT_EQ(reply.payload, pages);
  EXPECT_EQ(server.stats().pageins_served, 4);
  EXPECT_EQ(server.stats().batch_requests, 2);
}

TEST(MemoryServerHandleTest, PageOutBatchStopsAtFirstBadSlot) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 2));
  const std::vector<uint64_t> slots = {alloc.slot, 1000, alloc.slot + 1};
  std::vector<uint8_t> pages(3 * kPageSize, 0xcd);
  const Message ack = server.Handle(MakePageOutBatch(2, slots, pages));
  EXPECT_EQ(ack.status_code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ack.count, 1u);
  EXPECT_EQ(ack.aux, 1u);
  EXPECT_TRUE(server.Holds(alloc.slot));
  EXPECT_FALSE(server.Holds(alloc.slot + 1));
}

TEST(MemoryServerHandleTest, PageOutBatchReportsFailingIndex) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  const std::vector<uint64_t> slots = {alloc.slot, 5000};
  std::vector<uint8_t> pages(2 * kPageSize, 0xee);
  const Message ack = server.Handle(MakePageOutBatch(2, slots, pages));
  EXPECT_EQ(ack.type, MessageType::kPageOutBatchAck);
  EXPECT_EQ(ack.status_code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ack.count, 1u);  // One page made it in.
  EXPECT_EQ(ack.aux, 1u);    // Entry 1 failed.
}

TEST(MemoryServerHandleTest, PageInBatchMissReportsFailingIndex) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 2));
  PageBuffer page;
  server.Handle(MakePageOut(2, alloc.slot, page.span()));
  const std::vector<uint64_t> slots = {alloc.slot, alloc.slot + 1};  // +1 never stored.
  const Message reply = server.Handle(MakePageInBatch(3, slots));
  EXPECT_EQ(reply.type, MessageType::kPageInBatchReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kNotFound);
  EXPECT_EQ(reply.aux, 1u);
  EXPECT_TRUE(reply.payload.empty());
}

TEST(MemoryServerHandleTest, MalformedBatchRejected) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  const std::vector<uint64_t> slots = {alloc.slot};
  Message bad = MakePageOutBatch(2, slots, std::vector<uint8_t>(kPageSize, 0));
  bad.count = 2;  // Lies about the entry count.
  const Message reply = server.Handle(bad);
  EXPECT_EQ(reply.type, MessageType::kErrorReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kProtocol);
}

// --- Denial shapes -----------------------------------------------------------
// Every slot-addressed op under every gate denial, pinned field by field. A
// denied request gets the reply its op expects, so clients that read only the
// status keep working: the slot echoed for single-slot ops, ADVISE_STOP only
// on rate-limited pageout-shaped replies, the epoch only on stale ones, and
// the requester's tenant echoed.

enum class Denial { kStaleEpoch, kRateLimited, kForeignSlot, kUnknownTenant };

constexpr uint16_t kOwner = 7;     // Owns the target slot.
constexpr uint16_t kNeighbour = 9;  // Owns a slot of its own; may not touch the owner's.
constexpr uint16_t kStranger = 99;  // No quota row; refused under strict policy.
constexpr uint64_t kMapEpoch = 2;   // In force at the server; stale requests carry 1.

struct DenialShape {
  MessageType op;
  Denial denial;
  MessageType reply;
  bool echoes_slot;
  ErrorCode status;
  bool advise_stop;
  uint64_t count;
  uint64_t aux;
};

constexpr MessageType kSlotOps[] = {
    MessageType::kAllocRequest, MessageType::kFreeRequest, MessageType::kPageOut,
    MessageType::kPageIn,       MessageType::kDeltaPageOut, MessageType::kXorMerge,
    MessageType::kMigrate,      MessageType::kPageOutBatch, MessageType::kPageInBatch,
};

// Request `op` against slots.back() (batches: against every slot, in order).
Message SlotOpRequest(MessageType op, const std::vector<uint64_t>& slots,
                      std::span<const uint8_t> page) {
  constexpr uint64_t kId = 100;
  switch (op) {
    case MessageType::kAllocRequest:
      return MakeAllocRequest(kId, 1);
    case MessageType::kFreeRequest:
      return MakeFreeRequest(kId, slots.back(), 1);
    case MessageType::kPageIn:
      return MakePageIn(kId, slots.back());
    case MessageType::kMigrate:
      return MakeMigrate(kId, slots.back());
    case MessageType::kPageOutBatch: {
      std::vector<uint8_t> pages;
      for (size_t i = 0; i < slots.size(); ++i) {
        pages.insert(pages.end(), page.begin(), page.end());
      }
      return MakePageOutBatch(kId, slots, pages);
    }
    case MessageType::kPageInBatch:
      return MakePageInBatch(kId, slots);
    default: {  // PAGEOUT, DELTA_PAGEOUT and XOR_MERGE carry one page.
      Message request = MakePageOut(kId, slots.back(), page);
      request.type = op;
      return request;
    }
  }
}

TEST(MemoryServerHandleTest, DenialsTakeTheShapeOfTheirOp) {
  using enum MessageType;
  constexpr ErrorCode kStale = ErrorCode::kStaleEpoch;
  constexpr ErrorCode kRate = ErrorCode::kResourceExhausted;
  constexpr ErrorCode kRefused = ErrorCode::kFailedPrecondition;
  const DenialShape kShapes[] = {
      // op, denial, reply, echoes slot, status, ADVISE_STOP, count, aux
      {kAllocRequest, Denial::kStaleEpoch, kAllocReply, false, kStale, false, 0, 0},
      {kFreeRequest, Denial::kStaleEpoch, kFreeReply, true, kStale, false, 0, 0},
      {kPageOut, Denial::kStaleEpoch, kPageOutAck, true, kStale, false, 0, 0},
      {kPageIn, Denial::kStaleEpoch, kPageInReply, true, kStale, false, 0, 0},
      {kDeltaPageOut, Denial::kStaleEpoch, kPageInReply, true, kStale, false, 0, 0},
      {kXorMerge, Denial::kStaleEpoch, kXorMergeAck, true, kStale, false, 0, 0},
      {kMigrate, Denial::kStaleEpoch, kMigrateReply, true, kStale, false, 0, 0},
      {kPageOutBatch, Denial::kStaleEpoch, kPageOutBatchAck, false, kStale, false, 0, 0},
      {kPageInBatch, Denial::kStaleEpoch, kPageInBatchReply, false, kStale, false, 0, 0},
      // ALLOC and FREE are control traffic: never rate-gated.
      {kPageOut, Denial::kRateLimited, kPageOutAck, true, kRate, true, 0, 0},
      {kPageIn, Denial::kRateLimited, kPageInReply, true, kRate, false, 0, 0},
      {kDeltaPageOut, Denial::kRateLimited, kPageInReply, true, kRate, false, 0, 0},
      {kXorMerge, Denial::kRateLimited, kXorMergeAck, true, kRate, false, 0, 0},
      {kMigrate, Denial::kRateLimited, kMigrateReply, true, kRate, false, 0, 0},
      {kPageOutBatch, Denial::kRateLimited, kPageOutBatchAck, false, kRate, true, 0, 0},
      {kPageInBatch, Denial::kRateLimited, kPageInBatchReply, false, kRate, false, 0, 0},
      // ALLOC names no slot. Batches are {own slot, foreign slot}: entry 0 is
      // served, entry 1 fails and its index comes back in aux.
      {kFreeRequest, Denial::kForeignSlot, kFreeReply, true, kRefused, false, 0, 0},
      {kPageOut, Denial::kForeignSlot, kPageOutAck, true, kRefused, false, 0, 0},
      {kPageIn, Denial::kForeignSlot, kPageInReply, true, kRefused, false, 0, 0},
      {kDeltaPageOut, Denial::kForeignSlot, kPageInReply, true, kRefused, false, 0, 0},
      {kXorMerge, Denial::kForeignSlot, kXorMergeAck, true, kRefused, false, 0, 0},
      {kMigrate, Denial::kForeignSlot, kMigrateReply, true, kRefused, false, 0, 0},
      {kPageOutBatch, Denial::kForeignSlot, kPageOutBatchAck, false, kRefused, false, 1, 1},
      {kPageInBatch, Denial::kForeignSlot, kPageInBatchReply, false, kRefused, false, 0, 1},
      // An unknown tenant under strict policy gets the catch-all error reply.
      {kAllocRequest, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kFreeRequest, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kPageOut, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kPageIn, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kDeltaPageOut, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kXorMerge, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kMigrate, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kPageOutBatch, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
      {kPageInBatch, Denial::kUnknownTenant, kErrorReply, false, kRefused, false, 0, 0},
  };
  for (const DenialShape& shape : kShapes) {
    SCOPED_TRACE(std::string(MessageTypeName(shape.op)) + " denial " +
                 std::to_string(static_cast<int>(shape.denial)));
    // The owner's bucket holds one token, which its own setup pageout spends.
    TenantQuota owner{.id = kOwner};
    if (shape.denial == Denial::kRateLimited) {
      owner.rate_pages_per_sec = 1;
      owner.burst_pages = 1;
    }
    MemoryServerParams params = SmallServer();
    params.tenants.tenants = {owner, {.id = kNeighbour}};
    params.tenants.strict = shape.denial == Denial::kUnknownTenant;
    MemoryServer server(params);
    PageBuffer kept;
    FillPattern(kept.span(), 3);
    uint64_t slots[2] = {};  // The owner's, then the neighbour's.
    for (const uint16_t tenant : {kOwner, kNeighbour}) {
      Message alloc = MakeAllocRequest(1, 1);
      alloc.tenant = tenant;
      const Message granted = server.Handle(alloc);
      ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
      Message out = MakePageOut(2, granted.slot, kept.span());
      out.tenant = tenant;
      ASSERT_EQ(server.Handle(out).status_code(), ErrorCode::kOk);
      slots[tenant == kOwner ? 0 : 1] = granted.slot;
    }
    const uint64_t target = slots[0];
    if (shape.denial == Denial::kStaleEpoch) {
      const ClusterMap map =
          ClusterMap::Build(kMapEpoch, 64, {{0, 1, ClusterMember::State::kActive}});
      ASSERT_EQ(server.Handle(MakeMapPublish(3, kMapEpoch, map.Serialize())).status_code(),
                ErrorCode::kOk);
    }

    PageBuffer other;
    FillPattern(other.span(), 4);
    std::vector<uint64_t> batch = {target};
    uint16_t tenant = kOwner;
    if (shape.denial == Denial::kForeignSlot) {
      tenant = kNeighbour;
      batch = {slots[1], target};
    } else if (shape.denial == Denial::kUnknownTenant) {
      tenant = kStranger;
    }
    Message request = SlotOpRequest(shape.op, batch, other.span());
    request.tenant = tenant;
    request.epoch = shape.denial == Denial::kStaleEpoch ? kMapEpoch - 1 : 0;
    const Message reply = server.Handle(request);

    EXPECT_EQ(reply.type, shape.reply);
    EXPECT_EQ(reply.request_id, request.request_id);
    EXPECT_EQ(reply.slot, shape.echoes_slot ? target : 0u);
    EXPECT_EQ(reply.status_code(), shape.status);
    EXPECT_EQ(reply.advise_stop(), shape.advise_stop);
    EXPECT_EQ(reply.epoch, shape.denial == Denial::kStaleEpoch ? kMapEpoch : 0u);
    EXPECT_EQ(reply.tenant, tenant);
    EXPECT_EQ(reply.count, shape.count);
    EXPECT_EQ(reply.aux, shape.aux);
    EXPECT_TRUE(reply.payload.empty());
    // A denial leaves the owner's page as it was.
    auto held = server.Load(target);
    ASSERT_TRUE(held.ok());
    EXPECT_EQ(*held, kept);
  }
}

TEST(MemoryServerHandleTest, StaleDenialWithTenantPolicyOffEchoesNoTenant) {
  // Policy off: the tenant field is ignored on the way in and not echoed.
  MemoryServer server(SmallServer());
  const Message granted = server.Handle(MakeAllocRequest(1, 1));
  ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
  const ClusterMap map = ClusterMap::Build(kMapEpoch, 64, {{0, 1, ClusterMember::State::kActive}});
  ASSERT_EQ(server.Handle(MakeMapPublish(2, kMapEpoch, map.Serialize())).status_code(),
            ErrorCode::kOk);
  PageBuffer page;
  for (const MessageType op : kSlotOps) {
    SCOPED_TRACE(MessageTypeName(op));
    Message request = SlotOpRequest(op, {granted.slot}, page.span());
    request.tenant = kOwner;
    request.epoch = kMapEpoch - 1;
    const Message reply = server.Handle(request);
    EXPECT_EQ(reply.status_code(), ErrorCode::kStaleEpoch);
    EXPECT_EQ(reply.epoch, kMapEpoch);
    EXPECT_EQ(reply.tenant, 0u);
    EXPECT_FALSE(reply.advise_stop());
  }
  EXPECT_EQ(server.stats().stale_epoch_rejections, std::size(kSlotOps));
}

TEST(MemoryServerHandleTest, StatsCount) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 2));
  PageBuffer page;
  server.Handle(MakePageOut(2, alloc.slot, page.span()));
  server.Handle(MakePageIn(3, alloc.slot));
  EXPECT_EQ(server.stats().pageouts_served, 1);
  EXPECT_EQ(server.stats().pageins_served, 1);
  EXPECT_EQ(server.stats().allocations, 1);
  EXPECT_EQ(server.stats().bytes_stored, kPageSize);
}

}  // namespace
}  // namespace rmp
