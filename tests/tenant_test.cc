// Multi-tenant QoS conformance (DESIGN.md §15; ctest label: tenant_smoke).
//
// The contract under test: with tenant policy configured, each tenant's
// occupancy is capped at its quota, its request rate is token-bucketed with
// priority lanes (pagein admits last-to-throttle, background first), slots
// are owned by the tenant that allocated them, and per-tenant ADVISE_STOP
// fires from the tenant's own quota — all without disturbing tenant 0, the
// legacy lane, or the policy-off server, which must behave exactly like the
// untenanted seed.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/testbed.h"
#include "src/proto/wire.h"
#include "src/server/memory_server.h"
#include "src/util/bytes.h"
#include "src/util/config.h"

namespace rmp {
namespace {

MemoryServerParams ParamsWithTenants(std::vector<TenantQuota> tenants, bool strict = false,
                                     uint64_t capacity = 4096) {
  MemoryServerParams params;
  params.name = "tenant-test";
  params.capacity_pages = capacity;
  params.tenants.tenants = std::move(tenants);
  params.tenants.strict = strict;
  return params;
}

Message TaggedAlloc(uint64_t id, uint64_t pages, uint16_t tenant) {
  Message request = MakeAllocRequest(id, pages);
  request.tenant = tenant;
  return request;
}

Message TaggedFree(uint64_t id, uint64_t first, uint64_t count, uint16_t tenant) {
  Message request = MakeFreeRequest(id, first, count);
  request.tenant = tenant;
  return request;
}

Message TaggedPageOut(uint64_t id, uint64_t slot, std::span<const uint8_t> page,
                      uint16_t tenant) {
  Message request = MakePageOut(id, slot, page);
  request.tenant = tenant;
  return request;
}

Message TaggedPageIn(uint64_t id, uint64_t slot, uint16_t tenant) {
  Message request = MakePageIn(id, slot);
  request.tenant = tenant;
  return request;
}

// --- Policy off: the legacy server ------------------------------------------

TEST(TenantTest, PolicyOffIgnoresTenantTags) {
  MemoryServer server;  // No tenant rows: enforcement compiled out of the path.
  EXPECT_FALSE(server.tenant_enforced());
  // A tagged request is served on the legacy path: no quota, no ownership,
  // no tenant echo on the reply.
  const Message granted = server.Handle(TaggedAlloc(1, 16, /*tenant=*/9));
  ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
  EXPECT_EQ(granted.tenant, 0);
  EXPECT_EQ(server.TenantReservedPages(9), 0u);
  // Another tenant may free those slots: no ownership map exists.
  const Message freed = server.Handle(TaggedFree(2, granted.slot, 16, /*tenant=*/3));
  EXPECT_EQ(freed.status_code(), ErrorCode::kOk);
}

// --- Occupancy quotas --------------------------------------------------------

TEST(TenantTest, QuotaCapsOccupancyAndFreesCredit) {
  MemoryServer server(ParamsWithTenants({{.id = 7, .memory_quota_pages = 8}}));
  ASSERT_TRUE(server.tenant_enforced());

  const Message granted = server.Handle(TaggedAlloc(1, 8, 7));
  ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
  EXPECT_EQ(granted.tenant, 7);
  EXPECT_EQ(server.TenantReservedPages(7), 8u);

  // The 9th page is denied even though the server has thousands free.
  const Message over = server.Handle(TaggedAlloc(2, 1, 7));
  EXPECT_EQ(over.status_code(), ErrorCode::kNoSpace);
  EXPECT_GT(server.free_pages(), 1000u);

  // Tenant 0 and other tenants are unaffected by 7's quota.
  EXPECT_EQ(server.Handle(TaggedAlloc(3, 64, 0)).status_code(), ErrorCode::kOk);

  // Freeing part of the run credits the quota back, pages become grantable.
  ASSERT_EQ(server.Handle(TaggedFree(4, granted.slot, 4, 7)).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.TenantReservedPages(7), 4u);
  EXPECT_EQ(server.Handle(TaggedAlloc(5, 4, 7)).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.TenantReservedPages(7), 8u);
}

TEST(TenantTest, CrashZeroesTenantReservations) {
  MemoryServer server(ParamsWithTenants({{.id = 3, .memory_quota_pages = 16}}));
  ASSERT_EQ(server.Handle(TaggedAlloc(1, 16, 3)).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.TenantReservedPages(3), 16u);
  server.Crash();
  server.Restart();
  // The crash dropped every page; stale reservations must not deny the
  // tenant's re-population.
  EXPECT_EQ(server.TenantReservedPages(3), 0u);
  EXPECT_EQ(server.Handle(TaggedAlloc(2, 16, 3)).status_code(), ErrorCode::kOk);
}

// --- Slot ownership ----------------------------------------------------------

TEST(TenantTest, CrossTenantAccessIsRejected) {
  MemoryServer server(ParamsWithTenants({{.id = 7}, {.id = 9}}));
  const Message granted = server.Handle(TaggedAlloc(1, 2, 7));
  ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
  const uint64_t slot = granted.slot;

  PageBuffer page;
  FillPattern(page.span(), 7);
  ASSERT_EQ(server.Handle(TaggedPageOut(2, slot, page.span(), 7)).status_code(),
            ErrorCode::kOk);

  // Tenant 9 can neither read, overwrite, nor free tenant 7's slots.
  EXPECT_EQ(server.Handle(TaggedPageIn(3, slot, 9)).status_code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server.Handle(TaggedPageOut(4, slot, page.span(), 9)).status_code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server.Handle(TaggedFree(5, slot, 2, 9)).status_code(),
            ErrorCode::kFailedPrecondition);
  // The page is untouched and still tenant 7's.
  auto read_back = server.Load(slot);
  ASSERT_TRUE(read_back.ok());
  EXPECT_TRUE(CheckPattern(read_back->span(), 7));

  // Tenant 0 is the legacy/recovery lane: it may touch anything.
  EXPECT_EQ(server.Handle(TaggedPageIn(6, slot, 0)).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.Handle(TaggedFree(7, slot, 2, 0)).status_code(), ErrorCode::kOk);
}

// --- Per-tenant ADVISE_STOP --------------------------------------------------

TEST(TenantTest, AdviseStopFiresFromTheTenantQuotaAlone) {
  MemoryServer server(ParamsWithTenants(
      {{.id = 4, .memory_quota_pages = 10, .advise_stop_fraction = 0.5}, {.id = 5}}));
  PageBuffer page;
  FillPattern(page.span(), 1);

  const Message small = server.Handle(TaggedAlloc(1, 4, 4));
  ASSERT_EQ(small.status_code(), ErrorCode::kOk);
  Message ack = server.Handle(TaggedPageOut(2, small.slot, page.span(), 4));
  ASSERT_EQ(ack.status_code(), ErrorCode::kOk);
  EXPECT_FALSE(ack.advise_stop());  // 4 of 10 reserved: under the fraction.

  const Message more = server.Handle(TaggedAlloc(3, 2, 4));
  ASSERT_EQ(more.status_code(), ErrorCode::kOk);
  EXPECT_TRUE(server.TenantShouldAdviseStop(4));  // 6 >= 0.5 * 10.
  ack = server.Handle(TaggedPageOut(4, more.slot, page.span(), 4));
  ASSERT_EQ(ack.status_code(), ErrorCode::kOk);
  EXPECT_TRUE(ack.advise_stop());

  // The server as a whole has room, so other tenants see no backpressure.
  EXPECT_FALSE(server.ShouldAdviseStop());
  const Message other = server.Handle(TaggedAlloc(5, 1, 5));
  ASSERT_EQ(other.status_code(), ErrorCode::kOk);
  ack = server.Handle(TaggedPageOut(6, other.slot, page.span(), 5));
  ASSERT_EQ(ack.status_code(), ErrorCode::kOk);
  EXPECT_FALSE(ack.advise_stop());
}

// --- Rate limiting and priority lanes ---------------------------------------

TEST(TenantTest, RateDenialsThrottleBackgroundBeforePageoutBeforePagein) {
  // rate 1/s means no meaningful refill during the test; burst 16 seeds the
  // bucket. Lane reserves: migrate keeps burst/2 = 8 untouched, pageout-ish
  // keeps burst/8 = 2, pagein drains to zero.
  MemoryServer server(
      ParamsWithTenants({{.id = 6, .rate_pages_per_sec = 1, .burst_pages = 16}}));
  const Message granted = server.Handle(TaggedAlloc(1, 64, 6));
  ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
  PageBuffer page;
  FillPattern(page.span(), 6);
  uint64_t id = 100;

  // Background (MIGRATE) throttles first: it may only spend down to the
  // reserve floor. (Migrates target unwritten slots; the admission charge
  // happens before dispatch, which then reports NotFound.)
  int migrates = 0;
  Message reply;
  for (; migrates < 32; ++migrates) {
    Message request = MakeMigrate(++id, granted.slot + 60);
    request.tenant = 6;
    reply = server.Handle(request);
    if (reply.status_code() == ErrorCode::kResourceExhausted) {
      break;
    }
  }
  EXPECT_GE(migrates, 8);   // 16 - 8 reserved.
  EXPECT_LT(migrates, 12);  // Refill at 1/s cannot add more than a token or two.
  EXPECT_EQ(reply.type, MessageType::kMigrateReply);

  // Pageouts still land (reserve 2), then throttle...
  int pageouts = 0;
  for (; pageouts < 32; ++pageouts) {
    reply = server.Handle(TaggedPageOut(++id, granted.slot + pageouts, page.span(), 6));
    if (reply.status_code() == ErrorCode::kResourceExhausted) {
      break;
    }
  }
  EXPECT_GE(pageouts, 1);
  EXPECT_EQ(reply.type, MessageType::kPageOutAck);
  EXPECT_TRUE(reply.advise_stop());  // A rate denial always asks for backoff.

  // ...while pageins keep draining the last tokens before throttling too.
  int pageins = 0;
  for (; pageins < 32; ++pageins) {
    reply = server.Handle(TaggedPageIn(++id, granted.slot, 6));
    if (reply.status_code() == ErrorCode::kResourceExhausted) {
      break;
    }
  }
  EXPECT_GE(pageins, 1);
  EXPECT_EQ(reply.type, MessageType::kPageInReply);

  // Control traffic is never rate-gated: a dry bucket still answers LOAD.
  Message load = MakeLoadQuery(++id);
  load.tenant = 6;
  EXPECT_EQ(server.Handle(load).type, MessageType::kLoadReport);
}

// --- Strict vs attributed unknown tenants ------------------------------------

TEST(TenantTest, StrictPolicyRejectsUnknownTenants) {
  MemoryServer server(ParamsWithTenants({{.id = 2}}, /*strict=*/true));
  EXPECT_EQ(server.Handle(TaggedAlloc(1, 1, 99)).status_code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server.Handle(TaggedAlloc(2, 1, 2)).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.Handle(TaggedAlloc(3, 1, 0)).status_code(), ErrorCode::kOk);
}

TEST(TenantTest, UnknownTenantsAreAttributedWhenNotStrict) {
  MemoryServer server(ParamsWithTenants({{.id = 2, .memory_quota_pages = 4}}));
  // Tenant 42 has no quota row: unlimited, but charged under its own id.
  const Message granted = server.Handle(TaggedAlloc(1, 32, 42));
  ASSERT_EQ(granted.status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.TenantReservedPages(42), 32u);
  EXPECT_EQ(server.TenantReservedPages(2), 0u);
  const std::string stats = server.StatsJson();
  EXPECT_NE(stats.find("tenant.42."), std::string::npos) << stats;
}

// --- Config parsing ----------------------------------------------------------

TEST(TenantTest, ApplyTenantConfigParsesQuotaRows) {
  auto config = Config::Parse(
      "tenant.strict = true\n"
      "tenant.7.quota_pages = 128\n"
      "tenant.7.rate = 2000\n"
      "tenant.7.burst = 32\n"
      "tenant.7.advise_fraction = 0.5\n"
      "tenant.9.quota_pages = 64\n");
  ASSERT_TRUE(config.ok());
  TenantPolicyParams params;
  ASSERT_TRUE(ApplyTenantConfig(*config, &params).ok());
  EXPECT_TRUE(params.strict);
  ASSERT_EQ(params.tenants.size(), 2u);
  const TenantQuota& seven =
      params.tenants[0].id == 7 ? params.tenants[0] : params.tenants[1];
  EXPECT_EQ(seven.memory_quota_pages, 128u);
  EXPECT_EQ(seven.rate_pages_per_sec, 2000u);
  EXPECT_EQ(seven.burst_pages, 32u);
  EXPECT_DOUBLE_EQ(seven.advise_stop_fraction, 0.5);
}

TEST(TenantTest, ApplyTenantConfigRejectsHostileKeys) {
  TenantPolicyParams params;
  for (const char* text : {"tenant.0.quota_pages = 8\n",   // The legacy lane.
                           "tenant.7.mystery = 1\n",       // Unknown field.
                           "tenant.999999.quota_pages = 1\n",  // Past kMaxTenantId.
                           "tenant.7x.quota_pages = 1\n",   // Non-numeric id.
                           "tenant.7.weight = 4\n"}) {     // Nothing reads it.
    auto config = Config::Parse(text);
    ASSERT_TRUE(config.ok());
    EXPECT_FALSE(ApplyTenantConfig(*config, &params).ok()) << text;
  }
}

// --- Testbed plumbing --------------------------------------------------------

TEST(TenantTest, TestbedStampsClientTenantAndSurfacesMetrics) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.tenants.tenants = {{.id = 5, .memory_quota_pages = 4096}};
  params.client_tenant = 5;
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  ASSERT_TRUE((*bed)->Preload(64).ok());
  // Every preload pageout was attributed to tenant 5 on some server.
  uint64_t reserved = 0;
  for (size_t i = 0; i < (*bed)->server_count(); ++i) {
    reserved += (*bed)->server(i).TenantReservedPages(5);
  }
  EXPECT_GE(reserved, 64u);
  const std::string dump = (*bed)->DumpMetrics();
  EXPECT_NE(dump.find("tenant.5."), std::string::npos);
}

// --- Concurrent multi-tenant churn (the TSan target) -------------------------

TEST(TenantTest, ConcurrentTenantsChurnWithoutRacesOrLeaks) {
  MemoryServer server(ParamsWithTenants({{.id = 1, .memory_quota_pages = 256},
                                         {.id = 2, .memory_quota_pages = 256},
                                         {.id = 3, .memory_quota_pages = 256}},
                                        /*strict=*/false, /*capacity=*/8192));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (uint16_t tenant = 1; tenant <= 4; ++tenant) {  // 4 has no row: attributed.
    threads.emplace_back([&server, &failures, tenant] {
      PageBuffer page;
      FillPattern(page.span(), tenant);
      uint64_t id = static_cast<uint64_t>(tenant) << 32;
      for (int iter = 0; iter < 50; ++iter) {
        const Message granted = server.Handle(TaggedAlloc(++id, 4, tenant));
        if (granted.status_code() != ErrorCode::kOk) {
          failures.fetch_add(1);
          continue;
        }
        for (uint64_t s = 0; s < 4; ++s) {
          if (server.Handle(TaggedPageOut(++id, granted.slot + s, page.span(), tenant))
                  .status_code() != ErrorCode::kOk) {
            failures.fetch_add(1);
          }
        }
        const Message read = server.Handle(TaggedPageIn(++id, granted.slot, tenant));
        if (read.status_code() != ErrorCode::kOk ||
            !CheckPattern(read.payload, tenant)) {
          failures.fetch_add(1);
        }
        if (server.Handle(TaggedFree(++id, granted.slot, 4, tenant)).status_code() !=
            ErrorCode::kOk) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // A tenant-0 legacy thread churns alongside, as recovery traffic would.
  threads.emplace_back([&server, &failures] {
    PageBuffer page;
    FillPattern(page.span(), 99);
    uint64_t id = 1ull << 48;
    for (int iter = 0; iter < 50; ++iter) {
      const Message granted = server.Handle(TaggedAlloc(++id, 2, 0));
      if (granted.status_code() != ErrorCode::kOk) {
        failures.fetch_add(1);
        continue;
      }
      (void)server.Handle(TaggedPageOut(++id, granted.slot, page.span(), 0));
      if (server.Handle(TaggedFree(++id, granted.slot, 2, 0)).status_code() !=
          ErrorCode::kOk) {
        failures.fetch_add(1);
      }
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every run was freed: no reservation leaks survive the churn.
  for (uint16_t tenant = 1; tenant <= 4; ++tenant) {
    EXPECT_EQ(server.TenantReservedPages(tenant), 0u) << "tenant " << tenant;
  }
  EXPECT_EQ(server.live_pages(), 0u);
}

}  // namespace
}  // namespace rmp
