// Tests of the paper's main contribution. Beyond unit behaviour, these
// verify the load-bearing invariants:
//   * parity consistency: for every sealed group, XOR of the member pages
//     (read directly from the servers) equals the stored parity page;
//   * single-crash recoverability at ANY point in any workload, including
//     with the open group half-filled;
//   * inactive-version bookkeeping and group reclamation;
//   * garbage collection under exhausted overflow.

#include "src/core/parity_logging.h"

#include <gtest/gtest.h>

#include <map>

#include "src/core/testbed.h"
#include "src/util/rng.h"
#include "src/vm/paged_vm.h"

namespace rmp {
namespace {

std::unique_ptr<Testbed> MakeBed(int data_servers, uint64_t capacity = 512,
                                 int group_size = 0) {
  TestbedParams params;
  params.policy = Policy::kParityLogging;
  params.data_servers = data_servers;
  params.server_capacity_pages = capacity;
  params.pager.alloc_extent_pages = 8;
  params.parity_logging.group_size = group_size;
  auto testbed = Testbed::Create(params);
  EXPECT_TRUE(testbed.ok()) << testbed.status().ToString();
  return std::move(*testbed);
}

PageBuffer Patterned(uint64_t seed) {
  PageBuffer page;
  FillPattern(page.span(), seed);
  return page;
}

// Reads every sealed group's members straight from the server objects and
// checks XOR == stored parity. The strongest structural check we have.
void VerifyParityConsistency(Testbed* bed) {
  ParityLoggingBackend* backend = bed->parity_logging();
  const size_t parity_peer = backend->parity_peer();
  for (const auto& group : backend->Snapshot()) {
    if (!group.sealed) {
      continue;
    }
    PageBuffer expected;
    for (const auto& entry : group.entries) {
      auto page = bed->server(entry.peer).Load(entry.slot);
      ASSERT_TRUE(page.ok()) << "group " << group.group_id << " slot " << entry.slot;
      expected.XorWith(page->span());
    }
    auto parity = bed->server(parity_peer).Load(group.parity_slot);
    ASSERT_TRUE(parity.ok()) << "group " << group.group_id;
    EXPECT_EQ(*parity, expected) << "parity mismatch in group " << group.group_id;
  }
}

TEST(ParityLoggingTest, RoundTripAndTransferCount) {
  auto bed = MakeBed(4);
  ParityLoggingBackend* backend = bed->parity_logging();
  constexpr int kPages = 40;  // Exactly 10 groups of 4.
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  // 1 + 1/S transfers per pageout: 40 pages + 10 parity flushes.
  EXPECT_EQ(backend->stats().page_transfers, kPages + kPages / 4);
  EXPECT_EQ(backend->parity_flushes(), 10);
  PageBuffer in;
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok());
    EXPECT_TRUE(CheckPattern(in.span(), p));
  }
  EXPECT_TRUE(backend->CheckInvariants().ok());
}

TEST(ParityLoggingTest, ParityConsistencyAfterSequentialWrites) {
  auto bed = MakeBed(4);
  for (uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  VerifyParityConsistency(bed.get());
}

TEST(ParityLoggingTest, GroupsUseDistinctServers) {
  auto bed = MakeBed(4);
  for (uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  for (const auto& group : bed->parity_logging()->Snapshot()) {
    std::vector<size_t> seen;
    for (const auto& entry : group.entries) {
      EXPECT_EQ(std::count(seen.begin(), seen.end(), entry.peer), 0)
          << "group " << group.group_id;
      seen.push_back(entry.peer);
    }
  }
}

TEST(ParityLoggingTest, RewriteMarksOldVersionInactive) {
  auto bed = MakeBed(4);
  ParityLoggingBackend* backend = bed->parity_logging();
  ASSERT_TRUE(backend->PageOut(0, 1, Patterned(10).span()).ok());
  ASSERT_TRUE(backend->PageOut(0, 1, Patterned(11).span()).ok());
  int active_entries = 0;
  int inactive_entries = 0;
  for (const auto& group : backend->Snapshot()) {
    for (const auto& entry : group.entries) {
      (entry.active ? active_entries : inactive_entries) += 1;
    }
  }
  EXPECT_EQ(active_entries, 1);
  EXPECT_EQ(inactive_entries, 1);
  PageBuffer in;
  ASSERT_TRUE(backend->PageIn(0, 1, in.span()).ok());
  EXPECT_TRUE(CheckPattern(in.span(), 11));
  EXPECT_TRUE(backend->CheckInvariants().ok());
}

TEST(ParityLoggingTest, FullyInactiveGroupsAreReclaimed) {
  auto bed = MakeBed(4);
  ParityLoggingBackend* backend = bed->parity_logging();
  // Write 8 pages (2 sealed groups), then rewrite all of them.
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(100 + p).span()).ok());
  }
  EXPECT_GE(backend->groups_reclaimed(), 2);
  EXPECT_TRUE(backend->CheckInvariants().ok());
  VerifyParityConsistency(bed.get());
}

TEST(ParityLoggingTest, CrashOfEveryDataServerIsRecoverable) {
  for (size_t victim = 0; victim < 4; ++victim) {
    auto bed = MakeBed(4);
    ParityLoggingBackend* backend = bed->parity_logging();
    std::map<uint64_t, uint64_t> version;
    for (uint64_t p = 0; p < 50; ++p) {
      version[p] = p + 1000;
      ASSERT_TRUE(backend->PageOut(0, p, Patterned(version[p]).span()).ok());
    }
    bed->CrashServer(victim);
    TimeNs now = 0;
    ASSERT_TRUE(backend->Recover(victim, &now).ok()) << "victim " << victim;
    EXPECT_TRUE(backend->CheckInvariants().ok());
    PageBuffer in;
    for (const auto& [p, seed] : version) {
      ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok())
          << "victim " << victim << " page " << p;
      EXPECT_TRUE(CheckPattern(in.span(), seed));
    }
    VerifyParityConsistency(bed.get());
  }
}

TEST(ParityLoggingTest, CrashWithOpenGroupPartiallyFilled) {
  auto bed = MakeBed(4);
  ParityLoggingBackend* backend = bed->parity_logging();
  // 6 pages: one sealed group of 4, open group holds 2 (covered only by the
  // client-side accumulator).
  for (uint64_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p + 7).span()).ok());
  }
  bed->CrashServer(1);
  TimeNs now = 0;
  ASSERT_TRUE(backend->Recover(1, &now).ok());
  PageBuffer in;
  for (uint64_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p + 7));
  }
  EXPECT_TRUE(backend->CheckInvariants().ok());
}

TEST(ParityLoggingTest, PageInTriggersRecoveryAutomatically) {
  auto bed = MakeBed(4);
  ParityLoggingBackend* backend = bed->parity_logging();
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  bed->CrashServer(2);
  // No explicit Recover: the first pagein that hits the dead server must
  // reconstruct transparently.
  PageBuffer in;
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p));
  }
  EXPECT_TRUE(backend->CheckInvariants().ok());
}

TEST(ParityLoggingTest, ParityServerCrashRebuilds) {
  auto bed = MakeBed(4);
  ParityLoggingBackend* backend = bed->parity_logging();
  for (uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  const size_t parity_peer = backend->parity_peer();
  bed->CrashServer(parity_peer);
  bed->RestartServer(parity_peer);
  TimeNs now = 0;
  ASSERT_TRUE(backend->Recover(parity_peer, &now).ok());
  VerifyParityConsistency(bed.get());
  // And a subsequent data-server crash is again survivable.
  bed->CrashServer(0);
  ASSERT_TRUE(backend->Recover(0, &now).ok());
  PageBuffer in;
  for (uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p));
  }
}

TEST(ParityLoggingTest, ExplicitGroupSizeSealsEarly) {
  auto bed = MakeBed(4, 512, /*group_size=*/2);
  ParityLoggingBackend* backend = bed->parity_logging();
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  EXPECT_EQ(backend->parity_flushes(), 4);  // Groups of 2.
  EXPECT_TRUE(backend->CheckInvariants().ok());
}

TEST(ParityLoggingTest, GarbageCollectionRecoversSpace) {
  // Tight capacity: 1.15x the live set per server.
  auto bed = MakeBed(4, /*capacity=*/64);
  ParityLoggingBackend* backend = bed->parity_logging();
  constexpr uint64_t kLive = 200;  // 50/server live, 64 capacity.
  Rng rng(1);
  std::vector<uint64_t> version(kLive, 0);
  for (uint64_t p = 0; p < kLive; ++p) {
    version[p] = p + 1;
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(version[p]).span()).ok()) << p;
  }
  // Random churn forces inactive buildup and eventually GC.
  for (int op = 0; op < 2000; ++op) {
    const uint64_t p = rng.Below(kLive);
    version[p] = rng.Next();
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(version[p]).span()).ok()) << op;
  }
  EXPECT_GT(backend->gc_passes(), 0);
  EXPECT_TRUE(backend->CheckInvariants().ok());
  PageBuffer in;
  for (uint64_t p = 0; p < kLive; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), version[p]));
  }
  VerifyParityConsistency(bed.get());
}

TEST(ParityLoggingTest, CrashAfterGarbageCollectionStillRecoverable) {
  // Capacity must leave room for recovery to re-home a dead server's share
  // onto the 3 survivors (200 live / 3 = 67 pages each, plus slack).
  auto bed = MakeBed(4, /*capacity=*/96);
  ParityLoggingBackend* backend = bed->parity_logging();
  Rng rng(2);
  constexpr uint64_t kLive = 200;
  std::vector<uint64_t> version(kLive, 1);
  for (uint64_t p = 0; p < kLive; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(1).span()).ok());
  }
  for (int op = 0; op < 1500; ++op) {
    const uint64_t p = rng.Below(kLive);
    version[p] = rng.Next();
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(version[p]).span()).ok());
  }
  ASSERT_GT(backend->gc_passes(), 0);
  bed->CrashServer(3);
  TimeNs now = 0;
  ASSERT_TRUE(backend->Recover(3, &now).ok());
  PageBuffer in;
  for (uint64_t p = 0; p < kLive; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), version[p]));
  }
}

TEST(ParityLoggingTest, GarbageCollectionHoldsPagesItCannotPlace) {
  // When re-placement fails outright, the pages a GC pass took off its
  // reclaimed victims stay in client memory: readable, and placed again by
  // the next pass.
  auto bed = MakeBed(4, /*capacity=*/64);
  ParityLoggingBackend* backend = bed->parity_logging();
  constexpr uint64_t kLive = 160;
  for (uint64_t p = 0; p < kLive; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p + 1).span()).ok()) << p;
  }
  auto plan = std::make_shared<FaultPlan>(7);
  plan->AddRule(FaultRule{.kind = FaultKind::kDropRequest,
                          .probability = 1.0,
                          .only_type = MessageType::kPageOut,
                          .repeat = -1});
  for (size_t i = 0; i < 4; ++i) {
    bed->InstallFaultPlan(i, plan);
  }
  TimeNs now = 0;
  EXPECT_FALSE(backend->GarbageCollect(&now).ok());
  EXPECT_GT(backend->unplaced_pages(), 0u);
  EXPECT_TRUE(backend->CheckInvariants().ok()) << backend->CheckInvariants().ToString();
  PageBuffer in;
  for (uint64_t p = 0; p < kLive; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p + 1)) << p;
  }

  for (size_t i = 0; i < 4; ++i) {
    bed->InstallFaultPlan(i, nullptr);
    backend->cluster().peer(i).mark_alive();  // What a health monitor would do.
  }
  ASSERT_TRUE(backend->GarbageCollect(&now).ok());
  EXPECT_EQ(backend->unplaced_pages(), 0u);
  EXPECT_TRUE(backend->CheckInvariants().ok()) << backend->CheckInvariants().ToString();
  for (uint64_t p = 0; p < kLive; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p + 1)) << p;
  }
  VerifyParityConsistency(bed.get());
}

TEST(ParityLoggingTest, GarbageCollectionUnderAdviseStopKeepsEveryPage) {
  // 3 data + 1 parity server at 3400 pages each under 8192 pages of uniform
  // whole-page traffic, 30% stamped writes, through a 1024-frame VM. GC's
  // re-placement acks come back ADVISE_STOP on every data server; a pass
  // that honoured that advice ran out of pooled slots part-way and dropped
  // the rest of its stashed pages, which later read back as NOT_FOUND.
  TestbedParams params;
  params.policy = Policy::kParityLogging;
  params.data_servers = 3;
  params.server_capacity_pages = 3400;
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  ParityLoggingBackend* backend = (*bed)->parity_logging();
  constexpr uint64_t kPages = 8192;
  PagedVm vm({.virtual_pages = kPages, .physical_frames = 1024}, &(*bed)->backend());
  std::vector<uint64_t> stamp(kPages, 0);
  uint64_t writes = 0;
  Rng rng(1);
  PageBuffer buf;
  TimeNs now = 0;
  int failed = 0;
  auto access = [&](uint64_t page, bool write) {
    if (write) {
      stamp[page] = ++writes;
      FillPattern(buf.span(), stamp[page]);
      failed += vm.Write(&now, page * kPageSize, buf.span()).ok() ? 0 : 1;
    } else {
      const bool ok = vm.Read(&now, page * kPageSize, buf.span()).ok() &&
                      CheckPattern(buf.span(), stamp[page]);
      failed += ok ? 0 : 1;
    }
  };
  for (uint64_t page = 0; page < kPages; ++page) {
    access(page, /*write=*/true);
  }
  for (int op = 0; op < 14000; ++op) {
    const uint64_t page = rng.Below(kPages);
    access(page, rng.Below(100) < 30);
  }
  EXPECT_GT(backend->gc_passes(), 0);
  EXPECT_EQ(failed, 0);
  EXPECT_TRUE(backend->CheckInvariants().ok()) << backend->CheckInvariants().ToString();
  // Byte-exact read-back of every page, resident or not.
  for (uint64_t page = 0; page < kPages; ++page) {
    ASSERT_TRUE(vm.Read(&now, page * kPageSize, buf.span()).ok()) << page;
    ASSERT_TRUE(CheckPattern(buf.span(), stamp[page])) << page;
  }
}

// Property sweep: random op streams with a crash at a random point, across
// seeds and server counts. The paper's core claim — any single workstation
// failure is fully recoverable — checked end to end.
struct CrashSweepParam {
  uint64_t seed;
  int data_servers;
};

class ParityCrashSweepTest : public ::testing::TestWithParam<CrashSweepParam> {};

TEST_P(ParityCrashSweepTest, RandomOpsRandomCrashFullRecovery) {
  const CrashSweepParam param = GetParam();
  auto bed = MakeBed(param.data_servers, /*capacity=*/256);
  ParityLoggingBackend* backend = bed->parity_logging();
  Rng rng(param.seed);
  std::map<uint64_t, uint64_t> version;
  const int crash_at = static_cast<int>(rng.Below(300)) + 10;
  const auto victim = static_cast<size_t>(rng.Below(param.data_servers + 1));
  for (int op = 0; op < 400; ++op) {
    if (op == crash_at) {
      bed->CrashServer(victim);
      if (victim == backend->parity_peer()) {
        bed->RestartServer(victim);  // A replacement parity host arrives.
      }
      TimeNs now = 0;
      ASSERT_TRUE(backend->Recover(victim, &now).ok())
          << "seed " << param.seed << " victim " << victim;
    }
    const uint64_t p = rng.Below(60);
    const uint64_t seed = rng.Next();
    auto done = backend->PageOut(0, p, Patterned(seed).span());
    ASSERT_TRUE(done.ok()) << "seed " << param.seed << " op " << op << ": "
                           << done.status().ToString();
    version[p] = seed;
  }
  ASSERT_TRUE(backend->CheckInvariants().ok());
  PageBuffer in;
  for (const auto& [p, seed] : version) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << "seed " << param.seed;
    EXPECT_TRUE(CheckPattern(in.span(), seed));
  }
  VerifyParityConsistency(bed.get());
}

std::vector<CrashSweepParam> SweepParams() {
  std::vector<CrashSweepParam> params;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (int servers : {2, 4, 6}) {
      params.push_back({seed * 977, servers});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParityCrashSweepTest, ::testing::ValuesIn(SweepParams()));

}  // namespace
}  // namespace rmp
