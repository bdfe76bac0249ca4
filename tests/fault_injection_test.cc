// Conformance tests for the fault-injection subsystem and the client-side
// failure detector it exercises.
//
// Layer 1 pins the per-kind semantics of FaultInjectingTransport against a
// bare MemoryServer: which faults leave the op applied (drop-reply,
// crash-after-apply, over-deadline delay), which leave it unapplied
// (drop-request, corrupt, crash-before-apply), and which perturb only
// delivery (delay, duplicate, disconnect). Layer 2 pins FaultPlan's
// determinism: the same seed must replay the same fault interleaving.
// Layer 3 drives whole Testbed policies through faulted transports and
// asserts the failure detector's observable behavior — retries, failovers,
// the UNAVAILABLE-vs-DATA_LOSS taxonomy — including the BatchFetch
// partial-failure regression (a retried chunk must not re-fetch chunks that
// already succeeded).

#include "src/transport/fault_injection.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/remote_pager.h"
#include "src/core/testbed.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"
#include "src/util/units.h"

namespace rmp {
namespace {

PageBuffer Patterned(uint64_t seed) {
  PageBuffer page;
  FillPattern(page.span(), seed);
  return page;
}

// --- Layer 1: wrapper semantics against a bare server ----------------------

class FaultTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryServerParams params;
    params.name = "victim";
    params.capacity_pages = 64;
    server_ = std::make_unique<MemoryServer>(params);
    fault_ = std::make_unique<FaultInjectingTransport>(
        std::make_unique<InProcTransport>(server_.get()));
    auto first = server_->Allocate(16);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    slot_ = *first;
  }

  std::shared_ptr<FaultPlan> InstallOne(FaultRule rule, uint64_t seed = 7) {
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->AddRule(rule);
    fault_->InstallPlan(plan);
    return plan;
  }

  Result<Message> PageOutVia(uint64_t seed) {
    return fault_->Call(MakePageOut(++request_id_, slot_, Patterned(seed).span()));
  }

  std::unique_ptr<MemoryServer> server_;
  std::unique_ptr<FaultInjectingTransport> fault_;
  uint64_t slot_ = 0;
  uint64_t request_id_ = 100;
};

TEST_F(FaultTransportTest, TransparentWithoutPlan) {
  ASSERT_TRUE(PageOutVia(1).ok());
  auto in = fault_->Call(MakePageIn(1, slot_));
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(in->payload), 1));
  EXPECT_EQ(fault_->fault_stats().total(), 0);
  EXPECT_FALSE(fault_->has_plan());
}

TEST_F(FaultTransportTest, DropRequestLeavesOpUnapplied) {
  InstallOne({.kind = FaultKind::kDropRequest, .at_op = 0, .only_type = MessageType::kPageOut});
  auto reply = PageOutVia(1);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  // The request never reached the server, but the connection is intact.
  EXPECT_FALSE(server_->Holds(slot_));
  EXPECT_EQ(server_->stats().pageouts_served.load(), 0);
  EXPECT_TRUE(fault_->connected());
  EXPECT_EQ(fault_->fault_stats().count(FaultKind::kDropRequest), 1);
  // The rule is exhausted (repeat = 1): the retry goes through.
  ASSERT_TRUE(PageOutVia(1).ok());
  EXPECT_TRUE(server_->Holds(slot_));
}

TEST_F(FaultTransportTest, DropReplyAppliesOpServerSide) {
  InstallOne({.kind = FaultKind::kDropReply, .at_op = 0, .only_type = MessageType::kPageOut});
  auto reply = PageOutVia(9);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  // The classic ambiguous outcome: the ack vanished but the pageout landed.
  ASSERT_TRUE(server_->Holds(slot_));
  auto stored = server_->Load(slot_);
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(CheckPattern(stored->span(), 9));
}

TEST_F(FaultTransportTest, DelayUnderDeadlineDelivers) {
  fault_->set_rpc_deadline(Millis(10));
  InstallOne({.kind = FaultKind::kDelay,
              .at_op = 0,
              .only_type = MessageType::kPageOut,
              .delay = Millis(2)});
  ASSERT_TRUE(PageOutVia(3).ok());
  EXPECT_EQ(fault_->injected_delay(), Millis(2));
  EXPECT_TRUE(server_->Holds(slot_));
}

TEST_F(FaultTransportTest, DelayPastDeadlineTimesOutWithOpApplied) {
  fault_->set_rpc_deadline(Millis(1));
  InstallOne({.kind = FaultKind::kDelay,
              .at_op = 0,
              .only_type = MessageType::kPageOut,
              .delay = Millis(5)});
  auto reply = PageOutVia(4);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  // A timeout is indistinguishable from a lost ack: the op applied.
  EXPECT_TRUE(server_->Holds(slot_));
}

TEST_F(FaultTransportTest, DuplicateDeliversRequestTwice) {
  InstallOne({.kind = FaultKind::kDuplicate, .at_op = 0, .only_type = MessageType::kPageOut});
  ASSERT_TRUE(PageOutVia(5).ok());
  // The retransmit hit the server as a second, idempotent store.
  EXPECT_EQ(server_->stats().pageouts_served.load(), 2);
  auto stored = server_->Load(slot_);
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(CheckPattern(stored->span(), 5));
}

TEST_F(FaultTransportTest, CorruptPayloadCaughtByWireCrc) {
  InstallOne({.kind = FaultKind::kCorruptPayload, .at_op = 0,
              .only_type = MessageType::kPageOut});
  auto reply = PageOutVia(6);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kCorruption);
  // The CRC rejected the frame before it could apply.
  EXPECT_FALSE(server_->Holds(slot_));
  EXPECT_EQ(server_->stats().pageouts_served.load(), 0);
}

TEST_F(FaultTransportTest, CorruptHeaderOnEmptyPayloadIsProtocolError) {
  // A pagein request carries no payload, so the flip lands in the header.
  InstallOne({.kind = FaultKind::kCorruptPayload, .at_op = 0,
              .only_type = MessageType::kPageIn});
  auto reply = fault_->Call(MakePageIn(1, slot_));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kProtocol);
}

TEST_F(FaultTransportTest, DisconnectPersistsUntilReconnect) {
  InstallOne({.kind = FaultKind::kDisconnect, .at_op = 0});
  ASSERT_FALSE(PageOutVia(1).ok());
  EXPECT_FALSE(fault_->connected());
  // Every subsequent call short-circuits; the server process is untouched.
  auto reply = fault_->Call(MakeLoadQuery(1));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(server_->crashed());
  fault_->Reconnect();
  EXPECT_TRUE(fault_->connected());
  ASSERT_TRUE(PageOutVia(1).ok());
}

TEST_F(FaultTransportTest, CrashBeforeApplyFiresHookWithoutDelivery) {
  int hook_calls = 0;
  fault_->SetCrashHook([&hook_calls] { ++hook_calls; });
  InstallOne({.kind = FaultKind::kCrashBeforeApply, .at_op = 0,
              .only_type = MessageType::kPageOut});
  auto reply = PageOutVia(1);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(hook_calls, 1);
  // The workstation died before the request could apply.
  EXPECT_FALSE(server_->Holds(slot_));
  EXPECT_EQ(server_->stats().pageouts_served.load(), 0);
}

TEST_F(FaultTransportTest, CrashAfterApplyFiresHookWithOpApplied) {
  int hook_calls = 0;
  fault_->SetCrashHook([&hook_calls] { ++hook_calls; });
  InstallOne({.kind = FaultKind::kCrashAfterApply, .at_op = 0,
              .only_type = MessageType::kPageOut});
  auto reply = PageOutVia(2);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(hook_calls, 1);
  // The pageout landed; only the reply died with the workstation.
  EXPECT_TRUE(server_->Holds(slot_));
}

TEST_F(FaultTransportTest, ClockGatesTimeTriggeredRules) {
  TimeNs sim_now = 0;
  fault_->SetClock([&sim_now] { return sim_now; });
  InstallOne({.kind = FaultKind::kDropRequest, .at_time = Millis(5),
              .only_type = MessageType::kPageOut});
  ASSERT_TRUE(PageOutVia(1).ok());  // Before the trigger time: clean.
  sim_now = Millis(5);
  ASSERT_FALSE(PageOutVia(1).ok());  // At the trigger time: fires.
}

TEST(FaultKindNameTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(FaultKind::kCrashAfterApply); ++k) {
    EXPECT_FALSE(FaultKindName(static_cast<FaultKind>(k)).empty()) << k;
  }
}

// --- Layer 2: plan determinism ---------------------------------------------

std::vector<FaultKind> DecideSequence(FaultPlan* plan, int ops) {
  std::vector<FaultKind> kinds;
  PageBuffer page;
  for (int i = 0; i < ops; ++i) {
    const Message request = (i % 2 == 0)
                                ? MakePageOut(static_cast<uint64_t>(i), 0, page.span())
                                : MakePageIn(static_cast<uint64_t>(i), 0);
    kinds.push_back(plan->Decide(request, 0, nullptr));
  }
  return kinds;
}

TEST(FaultPlanTest, SameSeedSameInterleaving) {
  FaultRule rule{.kind = FaultKind::kDropRequest, .probability = 0.3, .repeat = -1};
  FaultPlan a(42);
  FaultPlan b(42);
  a.AddRule(rule);
  b.AddRule(rule);
  const auto seq_a = DecideSequence(&a, 200);
  const auto seq_b = DecideSequence(&b, 200);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_GT(a.faults_fired(), 0);
  EXPECT_EQ(a.faults_fired(), b.faults_fired());
  EXPECT_EQ(a.ops_seen(), 200);
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultRule rule{.kind = FaultKind::kDropRequest, .probability = 0.3, .repeat = -1};
  FaultPlan a(1);
  FaultPlan b(2);
  a.AddRule(rule);
  b.AddRule(rule);
  EXPECT_NE(DecideSequence(&a, 200), DecideSequence(&b, 200));
}

TEST(FaultPlanTest, AtOpCountsOnlyMatchingOperations) {
  FaultPlan plan(1);
  plan.AddRule({.kind = FaultKind::kDropRequest, .at_op = 1,
                .only_type = MessageType::kPageOut});
  PageBuffer page;
  // PageIns do not advance the rule's match counter.
  EXPECT_EQ(plan.Decide(MakePageIn(1, 0), 0, nullptr), FaultKind::kNone);
  EXPECT_EQ(plan.Decide(MakePageOut(2, 0, page.span()), 0, nullptr), FaultKind::kNone);
  EXPECT_EQ(plan.Decide(MakePageIn(3, 0), 0, nullptr), FaultKind::kNone);
  // Second matching pageout: fires.
  EXPECT_EQ(plan.Decide(MakePageOut(4, 0, page.span()), 0, nullptr),
            FaultKind::kDropRequest);
  EXPECT_EQ(plan.Decide(MakePageOut(5, 0, page.span()), 0, nullptr), FaultKind::kNone);
}

TEST(FaultPlanTest, RepeatBoundsFirings) {
  FaultPlan plan(1);
  plan.AddRule({.kind = FaultKind::kDropReply, .probability = 1.0, .repeat = 2});
  PageBuffer page;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    if (plan.Decide(MakePageOut(static_cast<uint64_t>(i), 0, page.span()), 0, nullptr) !=
        FaultKind::kNone) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(plan.faults_fired(), 2);
}

TEST(FaultPlanTest, AtTimeTriggersAtOrAfterDeadline) {
  FaultPlan plan(1);
  plan.AddRule({.kind = FaultKind::kDisconnect, .at_time = Millis(3)});
  PageBuffer page;
  EXPECT_EQ(plan.Decide(MakePageOut(1, 0, page.span()), Millis(2), nullptr), FaultKind::kNone);
  EXPECT_EQ(plan.Decide(MakePageOut(2, 0, page.span()), Millis(3), nullptr),
            FaultKind::kDisconnect);
}

// --- Layer 3: failure detector through the Testbed --------------------------

std::unique_ptr<Testbed> MakeBed(Policy policy, int servers, uint64_t capacity = 512) {
  TestbedParams params;
  params.policy = policy;
  params.data_servers = servers;
  params.server_capacity_pages = capacity;
  params.pager.alloc_extent_pages = 8;
  auto testbed = Testbed::Create(params);
  EXPECT_TRUE(testbed.ok()) << testbed.status().ToString();
  return std::move(*testbed);
}

TEST(FailureDetectorTest, RetryRecoversFromDroppedAck) {
  auto bed = MakeBed(Policy::kMirroring, 2);
  auto plan = std::make_shared<FaultPlan>(11);
  plan->AddRule({.kind = FaultKind::kDropReply, .at_op = 0,
                 .only_type = MessageType::kPageOut});
  bed->InstallFaultPlan(0, plan);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok()) << p;
  }
  // The lost ack cost exactly one retry (plus its backoff), not a failure.
  EXPECT_GE(bed->backend().stats().retries, 1);
  EXPECT_GT(bed->backend().stats().backoff_time, 0);
  PageBuffer out;
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(bed->backend().PageIn(0, p, out.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(out.span(), p)) << p;
  }
}

TEST(FailureDetectorTest, TransientDropStormSurvivesUnderRetries) {
  auto bed = MakeBed(Policy::kMirroring, 2);
  // One pageout ack in five goes missing — transient each time, so the
  // detector's bounded retries must absorb the storm without data loss. The
  // plan object is shared by both transports: one seeded RNG orders the
  // faults across peers, keeping the whole storm reproducible.
  auto plan = std::make_shared<FaultPlan>(1234);
  plan->AddRule({.kind = FaultKind::kDropReply, .probability = 0.2,
                 .only_type = MessageType::kPageOut, .repeat = -1});
  bed->InstallFaultPlan(0, plan);
  bed->InstallFaultPlan(1, plan);
  for (uint64_t p = 0; p < 24; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok()) << p;
  }
  PageBuffer out;
  for (uint64_t p = 0; p < 24; ++p) {
    ASSERT_TRUE(bed->backend().PageIn(0, p, out.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(out.span(), p)) << p;
  }
  EXPECT_GE(bed->backend().stats().retries, 1);
}

TEST(FailureDetectorTest, MirroringFailoverCountsNonPrimaryReads) {
  // With two servers each page has its primary copy on one of them, so
  // summing over both crash victims counts every page exactly once.
  int64_t total_failovers = 0;
  for (size_t victim : {0u, 1u}) {
    auto bed = MakeBed(Policy::kMirroring, 2);
    for (uint64_t p = 0; p < 16; ++p) {
      ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
    }
    bed->CrashServer(victim);
    PageBuffer out;
    for (uint64_t p = 0; p < 16; ++p) {
      ASSERT_TRUE(bed->backend().PageIn(0, p, out.span()).ok()) << p;
      EXPECT_TRUE(CheckPattern(out.span(), p)) << p;
    }
    total_failovers += bed->backend().stats().failovers;
  }
  EXPECT_EQ(total_failovers, 16);
}

TEST(FailureDetectorTest, BothReplicasGoneIsDataLossNotUnavailable) {
  auto bed = MakeBed(Policy::kMirroring, 2);
  ASSERT_TRUE(bed->backend().PageOut(0, 7, Patterned(7).span()).ok());
  bed->CrashServer(0);
  bed->CrashServer(1);
  PageBuffer out;
  auto done = bed->backend().PageIn(0, 7, out.span());
  ASSERT_FALSE(done.ok());
  // Permanent loss gets its own verdict: retrying cannot help.
  EXPECT_EQ(done.status().code(), ErrorCode::kDataLoss);
}

TEST(FailureDetectorTest, NoReliabilityReportsDataLossOnCrash) {
  auto bed = MakeBed(Policy::kNoReliability, 2);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  bed->CrashServer(0);
  bed->CrashServer(1);
  PageBuffer out;
  auto done = bed->backend().PageIn(0, 0, out.span());
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.status().code(), ErrorCode::kDataLoss);
}

TEST(FailureDetectorTest, PlanDrivenCrashBehavesLikeExplicitCrash) {
  // Three servers: after the plan kills one mid-workload, mirroring still
  // has two distinct servers for repairs and fresh pages.
  auto bed = MakeBed(Policy::kMirroring, 3);
  auto plan = std::make_shared<FaultPlan>(3);
  plan->AddRule({.kind = FaultKind::kCrashAfterApply, .at_op = 4,
                 .only_type = MessageType::kPageOut});
  bed->InstallFaultPlan(0, plan);
  for (uint64_t p = 0; p < 12; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok()) << p;
  }
  // The wrapper's crash hook took server 0 down mid-workload...
  EXPECT_TRUE(bed->server(0).crashed());
  EXPECT_FALSE(bed->fault(0).connected());
  // ...and mirroring kept every page readable from the surviving replica.
  PageBuffer out;
  for (uint64_t p = 0; p < 12; ++p) {
    ASSERT_TRUE(bed->backend().PageIn(0, p, out.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(out.span(), p)) << p;
  }
}

// --- BatchFetch partial-failure regression (the chunk-retry fix) -----------

// Exposes the protected BatchFetch for direct testing.
class BatchFetchProbe : public RemotePagerBase {
 public:
  BatchFetchProbe(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                  const RemotePagerParams& params)
      : RemotePagerBase(std::move(cluster), std::move(fabric), params) {}

  Result<TimeNs> PageOut(TimeNs, uint64_t, std::span<const uint8_t>) override {
    return InternalError("probe: unused");
  }
  Result<TimeNs> PageIn(TimeNs, uint64_t, std::span<uint8_t>) override {
    return InternalError("probe: unused");
  }
  std::string Name() const override { return "batch-fetch-probe"; }

  using RemotePagerBase::BatchFetch;
  using RemotePagerBase::PageWant;
};

struct BatchFetchRig {
  std::vector<std::unique_ptr<MemoryServer>> servers;
  std::vector<FaultInjectingTransport*> faults;
  std::unique_ptr<BatchFetchProbe> probe;
  std::vector<BatchFetchProbe::PageWant> wants;
};

// Two servers, `per_server` patterned pages each; wants interleave peers.
BatchFetchRig MakeBatchFetchRig(size_t per_server) {
  BatchFetchRig rig;
  Cluster cluster;
  for (size_t s = 0; s < 2; ++s) {
    MemoryServerParams params;
    params.name = "server-" + std::to_string(s);
    params.capacity_pages = 256;
    rig.servers.push_back(std::make_unique<MemoryServer>(params));
    auto fault = std::make_unique<FaultInjectingTransport>(
        std::make_unique<InProcTransport>(rig.servers.back().get()));
    rig.faults.push_back(fault.get());
    cluster.AddPeer(params.name, std::move(fault));
  }
  for (size_t s = 0; s < 2; ++s) {
    auto first = rig.servers[s]->Allocate(per_server);
    EXPECT_TRUE(first.ok());
    for (size_t i = 0; i < per_server; ++i) {
      const uint64_t slot = *first + i;
      EXPECT_TRUE(rig.servers[s]->Store(slot, Patterned(s * 1000 + i).span()).ok());
      rig.wants.push_back({.peer = s, .slot = slot});
    }
  }
  rig.probe = std::make_unique<BatchFetchProbe>(
      std::move(cluster), std::make_shared<NetworkFabric>(), RemotePagerParams());
  return rig;
}

TEST(BatchFetchRetryTest, FailedChunkRetriesWithoutRefetchingSucceededChunks) {
  auto rig = MakeBatchFetchRig(6);
  // Peer 1's first PAGEIN_BATCH loses its reply; the chunk must be retried
  // against peer 1 alone.
  auto plan = std::make_shared<FaultPlan>(21);
  plan->AddRule({.kind = FaultKind::kDropReply, .at_op = 0,
                 .only_type = MessageType::kPageInBatch});
  rig.faults[1]->InstallPlan(plan);

  std::vector<PageBuffer> out;
  TimeNs now = 0;
  ASSERT_TRUE(rig.probe->BatchFetch(rig.wants, &out, &now).ok());

  // The regression this pins: before the chunk-retry fix a partial failure
  // re-issued the whole fetch, double-applying peer 0's batch.
  EXPECT_EQ(rig.servers[0]->stats().batch_requests.load(), 1);
  EXPECT_EQ(rig.servers[1]->stats().batch_requests.load(), 2);  // Original + retry.
  EXPECT_GE(rig.probe->stats().retries, 1);
  ASSERT_EQ(out.size(), rig.wants.size());
  for (size_t i = 0; i < rig.wants.size(); ++i) {
    EXPECT_TRUE(CheckPattern(out[i].span(), rig.wants[i].peer * 1000 + (i % 6))) << i;
  }
}

TEST(BatchFetchRetryTest, ExhaustedRetriesFailTheChunkButKeepOthersSingleCharged) {
  auto rig = MakeBatchFetchRig(4);
  // Peer 1 drops every batch reply: the chunk fails after bounded retries.
  auto plan = std::make_shared<FaultPlan>(22);
  plan->AddRule({.kind = FaultKind::kDropReply, .probability = 1.0,
                 .only_type = MessageType::kPageInBatch, .repeat = -1});
  rig.faults[1]->InstallPlan(plan);

  std::vector<PageBuffer> out;
  TimeNs now = 0;
  const Status status = rig.probe->BatchFetch(rig.wants, &out, &now);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  // Peer 0's chunk was fetched exactly once and its pages survive.
  EXPECT_EQ(rig.servers[0]->stats().batch_requests.load(), 1);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(CheckPattern(out[i].span(), i)) << i;
  }
  // Bounded: first try + (max_attempts - 1) retries, then give up.
  const int max_attempts = RemotePagerParams().retry.max_attempts;
  EXPECT_EQ(rig.servers[1]->stats().batch_requests.load(), max_attempts);
  EXPECT_EQ(rig.probe->stats().retries, max_attempts - 1);
}

// --- RestartServer must reset per-server stats (the stale-counter fix) -----

TEST(TestbedRestartTest, RestartServerResetsPerServerStats) {
  auto bed = MakeBed(Policy::kMirroring, 2);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  ASSERT_GT(bed->server(0).stats().pageouts_served.load(), 0);
  ASSERT_GT(bed->server(0).stats().allocations.load(), 0);
  ASSERT_GT(bed->server(0).stats().bytes_stored.load(), 0u);
  bed->CrashServer(0);
  bed->RestartServer(0);
  // A restarted workstation starts from a clean slate.
  const MemoryServerStats& stats = bed->server(0).stats();
  EXPECT_EQ(stats.pageouts_served.load(), 0);
  EXPECT_EQ(stats.pageins_served.load(), 0);
  EXPECT_EQ(stats.batch_requests.load(), 0);
  EXPECT_EQ(stats.allocations.load(), 0);
  EXPECT_EQ(stats.denials.load(), 0);
  EXPECT_EQ(stats.bytes_stored.load(), 0u);
  EXPECT_EQ(stats.bytes_returned.load(), 0u);
  EXPECT_TRUE(bed->fault(0).connected());
}

// --- RPC deadline over real sockets ----------------------------------------

TEST(RpcDeadlineTest, WaitForTimesOutThenDeliversLate) {
  auto server = std::make_shared<MemoryServer>();
  auto started = TcpServer::Start(0, TcpServer::ForwardTo(server));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto client = TcpTransport::Connect("127.0.0.1", (*started)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto alloc = (*client)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 77);
  ASSERT_TRUE((*client)->Call(MakePageOut(2, alloc->slot, page.span())).ok());

  // The server sits on this slot for 100 ms; a 5 ms deadline must expire
  // first, and the same future must still deliver the late reply.
  server->SetSlotDelayForTest(alloc->slot, 100 * 1000);
  RpcFuture future = (*client)->CallAsync(MakePageIn(3, alloc->slot));
  auto timed_out = future.WaitFor(Millis(5));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), ErrorCode::kUnavailable);
  auto late = future.Wait();
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(late->payload), 77));
}

}  // namespace
}  // namespace rmp
