// Compressed cold-tier conformance: CLOCK demotion/promotion, zero-page
// elision, dedup refcount lifecycle under free/overwrite, extent spill
// round-trips, logical-vs-physical accounting, and the read-modify-write
// (parity) paths against cold pages. Everything here runs the tier through
// the same public MemoryServer API the wire protocol uses — the tier must be
// invisible except in the occupancy numbers.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/server/memory_server.h"
#include "src/util/bytes.h"
#include "src/util/config.h"
#include "src/workloads/workload.h"

namespace rmp {
namespace {

MemoryServerParams TierParams(uint64_t hot_pages, uint64_t capacity = 4096) {
  MemoryServerParams params;
  params.name = "tier-server";
  params.capacity_pages = capacity;
  params.store_shards = 1;  // One shard keeps demotion order deterministic.
  params.tier.hot_page_limit = hot_pages;
  params.tier.promote_after_hits = 0;  // Most tests want cold to stay cold.
  return params;
}

PageBuffer MakePage(uint64_t seed, unsigned compressible_pct) {
  PageBuffer page;
  FillCompressiblePage(page.span(), seed, compressible_pct, compressible_pct);
  return page;
}

// Allocates `count` slots and stores MakePage(seed0 + i, pct) in each.
std::vector<uint64_t> StorePages(MemoryServer* server, uint64_t count, uint64_t seed0,
                                 unsigned pct) {
  auto first = server->Allocate(count);
  EXPECT_TRUE(first.ok()) << first.status().message();
  std::vector<uint64_t> slots;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t slot = *first + i;
    EXPECT_TRUE(server->Store(slot, MakePage(seed0 + i, pct).span()).ok());
    slots.push_back(slot);
  }
  return slots;
}

TEST(TierTest, TierOffLeavesEverythingHot) {
  MemoryServerParams params;
  params.name = "plain";
  params.capacity_pages = 1024;
  MemoryServer server(params);
  StorePages(&server, 100, 1, 50);
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_EQ(occ.hot_pages, 100u);
  EXPECT_EQ(occ.cold_pages, 0u);
  EXPECT_EQ(occ.zero_pages, 0u);
  EXPECT_EQ(occ.physical_bytes, occ.logical_bytes);
  EXPECT_EQ(server.stats().demotions, 0);
}

TEST(TierTest, DemotionCompressesAndRoundTrips) {
  MemoryServer server(TierParams(8));
  const auto slots = StorePages(&server, 120, 100, 50);
  EXPECT_GT(server.stats().demotions.load(), 0u);
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_LE(occ.hot_pages, 8u);
  EXPECT_GE(occ.cold_pages, 100u);
  // Half-compressible pages must cost well under their logical size.
  EXPECT_LT(occ.physical_bytes, occ.logical_bytes * 3 / 4);
  for (size_t i = 0; i < slots.size(); ++i) {
    auto page = server.Load(slots[i]);
    ASSERT_TRUE(page.ok()) << page.status().message();
    EXPECT_EQ(*page, MakePage(100 + i, 50)) << "slot " << slots[i];
  }
}

TEST(TierTest, HighlyCompressiblePagesDoubleEffectiveCapacity) {
  MemoryServer server(TierParams(1));
  StorePages(&server, 150, 500, 60);
  const TierOccupancy occ = server.tier_occupancy();
  ASSERT_GT(occ.physical_bytes, 0u);
  EXPECT_GT(static_cast<double>(occ.logical_bytes) / static_cast<double>(occ.physical_bytes), 2.0);
}

TEST(TierTest, ZeroPagesAreElided) {
  MemoryServer server(TierParams(8));
  auto first = server.Allocate(50);
  ASSERT_TRUE(first.ok());
  const PageBuffer zeros;
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(server.Store(*first + i, zeros.span()).ok());
  }
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_EQ(occ.zero_pages, 50u);
  EXPECT_EQ(occ.hot_pages, 0u);
  EXPECT_EQ(occ.physical_bytes, 0u);
  EXPECT_EQ(occ.logical_bytes, 50u * kPageSize);
  EXPECT_EQ(server.stats().zero_elisions, 50);
  auto page = server.Load(*first + 7);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->IsZero());
  // Overwriting an elided page with data brings it back as a normal page.
  ASSERT_TRUE(server.Store(*first + 7, MakePage(1, 0).span()).ok());
  auto reread = server.Load(*first + 7);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(*reread, MakePage(1, 0));
}

TEST(TierTest, DedupSharesIdenticalPages) {
  MemoryServer server(TierParams(1));
  auto first = server.Allocate(20);
  ASSERT_TRUE(first.ok());
  const PageBuffer same = MakePage(42, 30);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.Store(*first + i, same.span()).ok());
  }
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_GE(occ.cold_pages, 19u);
  EXPECT_EQ(occ.unique_cold_entries, 1u);  // One payload, many refs.
  EXPECT_GE(server.stats().dedup_hits.load(), 18u);
  for (uint64_t i = 0; i < 20; ++i) {
    auto page = server.Load(*first + i);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, same);
  }
}

TEST(TierTest, DedupRefcountSurvivesFreeAndOverwrite) {
  MemoryServer server(TierParams(1));
  auto first = server.Allocate(12);
  ASSERT_TRUE(first.ok());
  const PageBuffer same = MakePage(7, 40);
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(server.Store(*first + i, same.span()).ok());
  }
  // Free half of the sharers: the payload must survive for the rest.
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.Free(*first + i, 1).ok());
  }
  EXPECT_EQ(server.tier_occupancy().unique_cold_entries, 1u);
  auto held = server.Load(*first + 8);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(*held, same);
  // Overwrite the rest with distinct content: the shared entry's refcount
  // walks down and the entry (and its extent bytes) must eventually vanish.
  for (uint64_t i = 6; i < 12; ++i) {
    ASSERT_TRUE(server.Store(*first + i, MakePage(1000 + i, 40).span()).ok());
  }
  // Demote the overwrites too, then check nothing still references `same`.
  const std::vector<uint64_t> demoters = StorePages(&server, 4, 2000, 0);
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_LE(occ.unique_cold_entries, occ.cold_pages);
  for (uint64_t i = 6; i < 12; ++i) {
    auto page = server.Load(*first + i);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, MakePage(1000 + i, 40));
  }
  // Freeing every slot must drain the cold tier completely.
  for (uint64_t slot = *first; slot <= demoters.back(); ++slot) {
    if (server.Holds(slot)) {
      ASSERT_TRUE(server.Free(slot, 1).ok());
    }
  }
  const TierOccupancy drained = server.tier_occupancy();
  EXPECT_EQ(drained.unique_cold_entries, 0u);
  EXPECT_EQ(drained.cold_physical_bytes, 0u);
  EXPECT_EQ(drained.logical_bytes, 0u);
}

TEST(TierTest, ColdPagePromotesAfterRepeatedHits) {
  MemoryServerParams params = TierParams(4);
  params.tier.promote_after_hits = 2;
  MemoryServer server(params);
  const auto slots = StorePages(&server, 40, 300, 50);
  const uint64_t victim = slots.front();
  ASSERT_FALSE(server.tier_occupancy().cold_pages == 0u);
  // Two cold hits cross the promotion threshold.
  for (int i = 0; i < 2; ++i) {
    auto page = server.Load(victim);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, MakePage(300, 50));
  }
  EXPECT_GE(server.stats().promotions.load(), 1u);
  auto after = server.Load(victim);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, MakePage(300, 50));
}

TEST(TierTest, ExtentsSpillToDiskAndComeBack) {
  MemoryServerParams params = TierParams(4);
  params.tier.cold_budget_bytes = 1;  // Clamps to one extent per shard.
  params.tier.spill_blocks = 4096;
  MemoryServer server(params);
  // Incompressible pages fill extents fast (stored raw, 8 KB apiece).
  const auto slots = StorePages(&server, 200, 700, 0);
  EXPECT_GT(server.stats().spills.load(), 0u);
  EXPECT_GT(server.stats().incompressible.load(), 0u);
  EXPECT_GT(server.tier_occupancy().spilled_bytes, 0u);
  for (size_t i = 0; i < slots.size(); ++i) {
    auto page = server.Load(slots[i]);
    ASSERT_TRUE(page.ok()) << page.status().message();
    ASSERT_EQ(*page, MakePage(700 + i, 0)) << "slot " << slots[i];
  }
  EXPECT_GT(server.stats().unspills.load(), 0u);
  // Freeing everything must return the spill blocks too.
  for (const uint64_t slot : slots) {
    ASSERT_TRUE(server.Free(slot, 1).ok());
  }
  EXPECT_EQ(server.tier_occupancy().spilled_bytes, 0u);
}

TEST(TierTest, OvercommitAdmitsBeyondPhysicalCapacity) {
  MemoryServerParams params = TierParams(8, /*capacity=*/64);
  params.tier.logical_overcommit = 2.0;
  MemoryServer server(params);
  EXPECT_EQ(server.capacity_pages(), 128u);
  auto run = server.Allocate(100);
  EXPECT_TRUE(run.ok());
  // Without overcommit the same request is denied.
  MemoryServer plain(TierParams(8, 64));
  EXPECT_FALSE(plain.Allocate(100).ok());
}

TEST(TierTest, DeltaStoreAndXorMergeMaterializeColdPages) {
  MemoryServer server(TierParams(1));
  auto first = server.Allocate(1);
  ASSERT_TRUE(first.ok());
  const PageBuffer old_page = MakePage(11, 50);
  ASSERT_TRUE(server.Store(*first, old_page.span()).ok());
  StorePages(&server, 8, 5000, 50);  // Push the slot cold.
  ASSERT_GT(server.tier_occupancy().cold_pages, 0u);

  // DeltaStore against the cold page must return old XOR new.
  const PageBuffer new_page = MakePage(12, 50);
  auto delta = server.DeltaStore(*first, new_page.span());
  ASSERT_TRUE(delta.ok()) << delta.status().message();
  PageBuffer expected = old_page;
  expected.XorWith(new_page.span());
  EXPECT_EQ(*delta, expected);
  auto stored = server.Load(*first);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, new_page);

  // Demote again, then fold a delta in: parity-server path on a cold slot.
  StorePages(&server, 8, 6000, 50);
  const PageBuffer fold = MakePage(13, 50);
  ASSERT_TRUE(server.XorMerge(*first, fold.span()).ok());
  auto merged = server.Load(*first);
  ASSERT_TRUE(merged.ok());
  PageBuffer want = new_page;
  want.XorWith(fold.span());
  EXPECT_EQ(*merged, want);
}

TEST(TierTest, CrashDropsTheColdTier) {
  MemoryServerParams params = TierParams(4);
  params.tier.cold_budget_bytes = 1;
  params.tier.spill_blocks = 1024;
  MemoryServer server(params);
  StorePages(&server, 100, 900, 0);
  server.Crash();
  EXPECT_EQ(server.live_pages(), 0u);
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_EQ(occ.logical_bytes, 0u);
  EXPECT_EQ(occ.physical_bytes, 0u);
  EXPECT_EQ(occ.spilled_bytes, 0u);
  server.Restart();
  const auto slots = StorePages(&server, 20, 950, 50);
  auto page = server.Load(slots.front());
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(*page, MakePage(950, 50));
}

// PAGEIN, PAGEIN_BATCH and MIGRATE write the page straight into the reply
// payload, from whichever tier holds it: a zero-elided slot reads back as
// zeroes and a cold slot decompresses into the payload.
TEST(TierTest, WireReadsServeZeroAndColdSlots) {
  MemoryServer server(TierParams(4));
  auto zero_slot = server.Allocate(1);
  ASSERT_TRUE(zero_slot.ok());
  ASSERT_TRUE(server.Store(*zero_slot, PageBuffer().span()).ok());
  const auto slots = StorePages(&server, 40, 1100, 50);
  const TierOccupancy occ = server.tier_occupancy();
  ASSERT_EQ(occ.zero_pages, 1u);
  ASSERT_GE(occ.cold_pages, 30u);
  uint64_t request_id = 0;

  const Message zero = server.Handle(MakePageIn(++request_id, *zero_slot));
  ASSERT_EQ(zero.status_code(), ErrorCode::kOk);
  EXPECT_EQ(zero.slot, *zero_slot);
  EXPECT_EQ(PageBuffer(std::span<const uint8_t>(zero.payload)), PageBuffer());
  for (size_t i = 0; i < slots.size(); ++i) {
    const Message reply = server.Handle(MakePageIn(++request_id, slots[i]));
    ASSERT_EQ(reply.status_code(), ErrorCode::kOk) << "slot " << slots[i];
    ASSERT_EQ(reply.payload.size(), kPageSize);
    EXPECT_EQ(PageBuffer(std::span<const uint8_t>(reply.payload)), MakePage(1100 + i, 50))
        << "slot " << slots[i];
  }

  const uint64_t batch[3] = {slots[0], *zero_slot, slots[1]};
  const Message batched = server.Handle(MakePageInBatch(++request_id, batch));
  ASSERT_EQ(batched.status_code(), ErrorCode::kOk);
  ASSERT_EQ(batched.payload.size(), 3 * kPageSize);
  const std::span<const uint8_t> pages(batched.payload);
  EXPECT_EQ(PageBuffer(pages.subspan(0, kPageSize)), MakePage(1100, 50));
  EXPECT_EQ(PageBuffer(pages.subspan(kPageSize, kPageSize)), PageBuffer());
  EXPECT_EQ(PageBuffer(pages.subspan(2 * kPageSize, kPageSize)), MakePage(1101, 50));

  const Message migrated = server.Handle(MakeMigrate(++request_id, slots[2]));
  ASSERT_EQ(migrated.status_code(), ErrorCode::kOk);
  EXPECT_EQ(PageBuffer(std::span<const uint8_t>(migrated.payload)), MakePage(1102, 50));
  EXPECT_FALSE(server.Holds(slots[2]));

  const Message missing = server.Handle(MakePageIn(++request_id, slots[2]));
  EXPECT_EQ(missing.status_code(), ErrorCode::kNotFound);
  EXPECT_TRUE(missing.payload.empty());
}

TEST(TierTest, StatsJsonCarriesTierGauges) {
  MemoryServer server(TierParams(8));
  StorePages(&server, 60, 1100, 50);
  const std::string json = server.StatsJson();
  for (const char* key :
       {"server.logical_bytes", "server.physical_bytes", "server.hot_pages", "server.cold_pages",
        "server.zero_pages", "server.cold_unique", "server.cold_spilled_bytes",
        "server.tier_demotions", "server.dedup_hits", "server.compress_us"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(TierTest, LogicalAndPhysicalBytesDisagreeOnlyWithTier) {
  MemoryServer tiered(TierParams(4));
  StorePages(&tiered, 80, 1300, 70);
  EXPECT_LT(tiered.physical_bytes(), tiered.logical_bytes());
  MemoryServerParams plain_params;
  plain_params.capacity_pages = 1024;
  MemoryServer plain(plain_params);
  StorePages(&plain, 80, 1300, 70);
  EXPECT_EQ(plain.physical_bytes(), plain.logical_bytes());
}

TEST(TierTest, ApplyStoreConfigReadsTierKnobs) {
  auto config = Config::Parse(
      "store.shards = 4\n"
      "store.hot_pages = 256\n"
      "store.compress = false\n"
      "store.dedup = false\n"
      "store.promote_hits = 5\n"
      "store.cold_budget_kb = 1024\n"
      "store.spill_blocks = 2048\n"
      "store.overcommit = 1.5\n");
  ASSERT_TRUE(config.ok());
  MemoryServerParams params;
  ASSERT_TRUE(ApplyConfig(*config, StoreConfigKeys(&params)).ok());
  EXPECT_EQ(params.store_shards, 4u);
  EXPECT_EQ(params.tier.hot_page_limit, 256u);
  EXPECT_FALSE(params.tier.compress);
  EXPECT_FALSE(params.tier.dedup);
  EXPECT_EQ(params.tier.promote_after_hits, 5u);
  EXPECT_EQ(params.tier.cold_budget_bytes, 1024u * 1024u);
  EXPECT_EQ(params.tier.spill_blocks, 2048u);
  EXPECT_DOUBLE_EQ(params.tier.logical_overcommit, 1.5);
  // Malformed values surface as errors instead of silently defaulting.
  auto bad = Config::Parse("store.hot_pages = lots\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ApplyConfig(*bad, StoreConfigKeys(&params)).ok());
}

TEST(TierTest, CompressionDisabledStoresRawButStillTiers) {
  MemoryServerParams params = TierParams(4);
  params.tier.compress = false;
  MemoryServer server(params);
  const auto slots = StorePages(&server, 50, 1500, 80);
  const TierOccupancy occ = server.tier_occupancy();
  EXPECT_GT(occ.cold_pages, 0u);
  EXPECT_EQ(occ.zero_pages, 0u);  // Elision rides the compress knob.
  for (size_t i = 0; i < slots.size(); ++i) {
    auto page = server.Load(slots[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, MakePage(1500 + i, 80));
  }
}

}  // namespace
}  // namespace rmp
