// Distributed tracing end to end (DESIGN.md §17).
//
// The tentpole claims under test: a sampled-in operation's wire trace id
// reaches every server its retries touch (failover included), the measured
// server-side spans those requests record stitch back into the client's
// trace record and stage histograms, untraced frames cost the server
// nothing, head sampling is deterministic, and a span-ring overrun degrades
// to counted drops — never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/proto/wire.h"
#include "src/util/bytes.h"
#include "src/util/config.h"
#include "src/util/tracing.h"

namespace rmp {
namespace {

Result<std::unique_ptr<Testbed>> MakeTestbed(Policy policy, int data_servers,
                                             TestbedParams params = TestbedParams()) {
  params.policy = policy;
  params.data_servers = data_servers;
  params.server_capacity_pages = 4096;
  return Testbed::Create(params);
}

// --- Wire stamping ----------------------------------------------------------

TEST(DistributedTraceTest, LegacyUnstampedFramesRecordNoServerSpans) {
  // A frame with trace id 0 is untraced; the server must take the one-test
  // fast path and leave its span ring untouched.
  MemoryServer server;
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  ASSERT_EQ(alloc.status_code(), ErrorCode::kOk);
  PageBuffer page;
  FillPattern(page.span(), 5);
  Message out = MakePageOut(2, alloc.slot, page.span());
  ASSERT_EQ(out.trace_id, 0u);
  EXPECT_EQ(server.Handle(out).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.Handle(MakePageIn(3, alloc.slot)).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.span_ring().size(), 0u);
  EXPECT_EQ(server.span_ring().dropped(), 0);
}

TEST(DistributedTraceTest, StampedFrameRoundTripsAndClears) {
  PageBuffer page;
  FillPattern(page.span(), 6);
  Message out = MakePageOut(1, 3, page.span());
  out.trace_id = 0xdeadbeef;
  EXPECT_EQ(out.trace_id, 0xdeadbeefu);
  // The id survives the wire byte-exact.
  auto decoded = Decode(Encode(out));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, 0xdeadbeefu);
  // Clearing the id touches no other field: flags and status stay clear.
  out.trace_id = 0;
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.flags, 0);
  EXPECT_EQ(out.status, 0u);
}

TEST(DistributedTraceTest, TracedRequestRecordsServerSpansUnderItsId) {
  MemoryServer server;
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  ASSERT_EQ(alloc.status_code(), ErrorCode::kOk);
  PageBuffer page;
  FillPattern(page.span(), 7);
  Message out = MakePageOut(2, alloc.slot, page.span());
  out.trace_id = 77;
  ASSERT_EQ(server.Handle(out).status_code(), ErrorCode::kOk);
  const std::vector<ServerSpan> spans = server.span_ring().Spans();
  ASSERT_FALSE(spans.empty());
  bool saw_service = false;
  for (const ServerSpan& span : spans) {
    EXPECT_EQ(span.trace_id, 77u);
    EXPECT_TRUE(IsServerStage(span.stage));
    if (span.stage == TraceStage::kServerService) {
      saw_service = true;
      EXPECT_GT(span.duration, 0);
    }
  }
  EXPECT_TRUE(saw_service);
}

TEST(DistributedTraceTest, TracedWritesOfEveryKindRecordAStoreSpan) {
  // PAGEOUT, DELTA_PAGEOUT and XOR_MERGE all land a page in the store, so
  // each traced one reports its store time as an srv_store span.
  MemoryServer server;
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  ASSERT_EQ(alloc.status_code(), ErrorCode::kOk);
  PageBuffer page;
  FillPattern(page.span(), 8);
  uint32_t trace_id = 80;
  for (const MessageType op :
       {MessageType::kPageOut, MessageType::kDeltaPageOut, MessageType::kXorMerge}) {
    SCOPED_TRACE(MessageTypeName(op));
    Message request = MakePageOut(++trace_id, alloc.slot, page.span());
    request.type = op;
    request.trace_id = trace_id;
    ASSERT_EQ(server.Handle(request).status_code(), ErrorCode::kOk);
    const std::vector<ServerSpan> spans = server.span_ring().Drain();
    EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [&](const ServerSpan& span) {
      return span.trace_id == trace_id && span.stage == TraceStage::kServerStore &&
             span.duration > 0;
    }));
  }
}

// --- Head sampling ----------------------------------------------------------

TEST(DistributedTraceTest, SamplingZeroLeavesEverythingCold) {
  // trace.sample_per_1k = 0 is the provably-off configuration: no ring
  // records, no wire stamps, hence no server spans anywhere.
  TestbedParams params;
  params.pager.trace.sample_per_1k = 0;
  auto testbed = MakeTestbed(Policy::kNoReliability, 2, params);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  PagingBackend& backend = (*testbed)->backend();
  PageBuffer page;
  for (uint64_t id = 0; id < 64; ++id) {
    FillPattern(page.span(), id);
    ASSERT_TRUE(backend.PageOut(0, id, page.span()).ok());
    ASSERT_TRUE(backend.PageIn(0, id, page.span()).ok());
  }
  auto* pager = (*testbed)->remote_pager();
  ASSERT_NE(pager, nullptr);
  EXPECT_EQ(pager->tracer().total_traces(), 0);
  EXPECT_EQ(pager->tracer().size(), 0u);
  EXPECT_EQ((*testbed)->StitchServerSpans(), 0u);
  for (size_t i = 0; i < (*testbed)->server_count(); ++i) {
    EXPECT_EQ((*testbed)->server(i).span_ring().size(), 0u) << "server " << i;
  }
}

TEST(DistributedTraceTest, SampledOutOperationsStayUnstampedButStillMeasured) {
  // 10-per-1k sampling over 100 ops: the deterministic rotation admits ops
  // whose sequence number mod 1000 is below the rate — here seq 1..9, i.e.
  // exactly 9 traces — and samples out the other 91, which must still go out
  // unstamped and still feed the client stage histograms.
  TestbedParams params;
  params.pager.trace.sample_per_1k = 10;
  auto testbed = MakeTestbed(Policy::kNoReliability, 2, params);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  PagingBackend& backend = (*testbed)->backend();
  PageBuffer page;
  for (uint64_t id = 0; id < 50; ++id) {
    FillPattern(page.span(), id);
    ASSERT_TRUE(backend.PageOut(0, id, page.span()).ok());
    ASSERT_TRUE(backend.PageIn(0, id, page.span()).ok());
  }
  auto* pager = (*testbed)->remote_pager();
  ASSERT_NE(pager, nullptr);
  EXPECT_EQ(pager->tracer().total_traces(), 9);
  EXPECT_EQ(pager->tracer().sampled_out(), 91);
  // Only the sampled-in operations were allowed to stamp the wire, so the
  // span rings hold spans for exactly those 9 distinct trace ids.
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < (*testbed)->server_count(); ++i) {
    for (const ServerSpan& span : (*testbed)->server(i).span_ring().Spans()) {
      ids.push_back(span.trace_id);
    }
  }
  ASSERT_FALSE(ids.empty());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()) - ids.begin(), 9);
}

// --- Runtime reconfiguration (trace.* knobs) --------------------------------

TEST(DistributedTraceTest, TraceConfigKeysReconfigureTheTracerLive) {
  auto config = Config::Parse(
      "trace.ring = 4\n"
      "trace.slow_op_us = 2\n"
      "trace.sample_per_1k = 1000\n"
      "trace.max_spans = 8\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  PageTracerOptions options;
  ASSERT_TRUE(ApplyConfig(*config, TraceConfigKeys(&options)).ok());
  EXPECT_EQ(options.ring_capacity, 4u);
  EXPECT_EQ(options.slow_op_ns, 2000);
  EXPECT_EQ(options.max_spans, 8u);

  MetricsRegistry registry;
  PageTracer tracer(&registry);
  tracer.Reconfigure(options);
  EXPECT_EQ(tracer.options().ring_capacity, 4u);
  // The slow-op threshold is live: a 3 µs op trips the 2 µs bar.
  const uint64_t id = tracer.Begin(TraceOp::kPageOut, 1, 0);
  ASSERT_NE(id, 0u);
  tracer.End(id, 3000, true);
  EXPECT_EQ(tracer.slow_ops(), 1);

  // slow_op_us = 0 documents "check disabled": the same op no longer counts.
  auto off = Config::Parse("trace.slow_op_us = 0\n");
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(ApplyConfig(*off, TraceConfigKeys(&options)).ok());
  EXPECT_EQ(options.slow_op_ns, 0);
  tracer.Reconfigure(options);
  const uint64_t id2 = tracer.Begin(TraceOp::kPageOut, 2, 0);
  ASSERT_NE(id2, 0u);
  tracer.End(id2, 3000, true);
  EXPECT_EQ(tracer.slow_ops(), 1);  // Unchanged: the disabled check adds nothing.

  // trace.ring = 0 documents "no ring": Begin declines, histograms still run.
  auto no_ring = Config::Parse("trace.ring = 0\n");
  ASSERT_TRUE(no_ring.ok());
  ASSERT_TRUE(ApplyConfig(*no_ring, TraceConfigKeys(&options)).ok());
  tracer.Reconfigure(options);
  EXPECT_EQ(tracer.Begin(TraceOp::kPageIn, 3, 0), 0u);
  tracer.Span(TraceStage::kService, 0, 500);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricValue* service = snapshot.Find("trace.stage.service_ns");
  ASSERT_NE(service, nullptr);
  EXPECT_GE(service->histogram.count, 1);
}

TEST(DistributedTraceTest, ObservabilityConfigReachesServersAndPager) {
  auto config = Config::Parse(
      "trace.sample_per_1k = 250\n"
      "trace.span_ring = 16\n"
      "events.ring = 32\n"
      "slo.target_ms = 5\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  TestbedParams params;
  ASSERT_TRUE(ApplyConfig(*config, ObservabilityConfigKeys(&params)).ok());
  EXPECT_EQ(params.pager.trace.sample_per_1k, 250);
  EXPECT_EQ(params.server_span_ring, 16u);
  EXPECT_EQ(params.pager.events.ring_capacity, 32u);
  EXPECT_EQ(params.server_events.ring_capacity, 32u);
  EXPECT_EQ(params.pager.slo.target, Millis(5));

  auto testbed = MakeTestbed(Policy::kNoReliability, 2, params);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  EXPECT_EQ((*testbed)->server(0).span_ring().capacity(), 16u);
}

// --- Failover: one trace id across multiple servers -------------------------

TEST(DistributedTraceTest, MirroringFailoverSpansFromBothServersShareOneTraceId) {
  // Crash-after-apply on the primary's pagein: the primary records its spans,
  // dies, and the retry goes to the mirror — which must see the *same* wire
  // trace id, so the whole storm stitches into one client record.
  auto testbed = MakeTestbed(Policy::kMirroring, 2);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  PagingBackend& backend = (*testbed)->backend();
  PageBuffer page;
  FillPattern(page.span(), 11);
  ASSERT_TRUE(backend.PageOut(0, 42, page.span()).ok());

  // Drain the pageout-phase spans so only the faulted pagein remains.
  (void)(*testbed)->StitchServerSpans();

  // The plan is shared by both transports (one global op counter), so the
  // crash fires on the first PageIn wherever mirroring routes it; the retry
  // then has to fail over to the surviving copy.
  auto plan = std::make_shared<FaultPlan>(0xabcdULL);
  plan->AddRule({.kind = FaultKind::kCrashAfterApply,
                 .at_op = 0,
                 .only_type = MessageType::kPageIn});
  (*testbed)->InstallFaultPlan(0, plan);
  (*testbed)->InstallFaultPlan(1, plan);

  PageBuffer read;
  ASSERT_TRUE(backend.PageIn(0, 42, read.span()).ok());
  ASSERT_TRUE(CheckPattern(read.span(), 11));
  ASSERT_EQ(plan->faults_fired(), 1);

  auto* pager = (*testbed)->remote_pager();
  ASSERT_NE(pager, nullptr);
  const std::vector<TraceRecord> records = pager->tracer().Records();
  ASSERT_FALSE(records.empty());
  const TraceRecord& pagein = records.back();
  EXPECT_EQ(pagein.op, TraceOp::kPageIn);
  const uint32_t wire_id = static_cast<uint32_t>(pagein.id);

  // Both servers' rings carry spans under that id: the crashed primary's
  // pre-crash service span and the mirror's successful read.
  size_t servers_with_id = 0;
  for (size_t i = 0; i < (*testbed)->server_count(); ++i) {
    const std::vector<ServerSpan> spans = (*testbed)->server(i).span_ring().Spans();
    const bool has = std::any_of(spans.begin(), spans.end(), [wire_id](const ServerSpan& s) {
      return s.trace_id == wire_id;
    });
    servers_with_id += has ? 1 : 0;
  }
  EXPECT_EQ(servers_with_id, 2u);
}

TEST(DistributedTraceTest, ParityDegradedReadCarriesTheTraceIdToEverySurvivor) {
  // Basic parity, 4 data + 1 parity. Crash one data server, then read a page
  // it held: the degraded reconstruction fans out to the survivors and the
  // parity server, all under the pagein's single trace id.
  auto testbed = MakeTestbed(Policy::kBasicParity, 4);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  ASSERT_TRUE((*testbed)->Preload(64).ok());
  (void)(*testbed)->StitchServerSpans();  // Discard the preload spans.

  // Find a page stored on server 0 by crashing it and reading until a
  // reconstruction happens; page ids map round-robin-ish, so page 0..63
  // certainly include some of server 0's.
  (*testbed)->CrashServer(0);
  PagingBackend& backend = (*testbed)->backend();
  PageBuffer read;
  bool reconstructed = false;
  for (uint64_t id = 0; id < 64 && !reconstructed; ++id) {
    ASSERT_TRUE(backend.PageIn(0, id, read.span()).ok()) << "page " << id;
    ASSERT_TRUE(CheckPattern(read.span(), Testbed::PreloadSeed(1, id)));
    auto* pager = (*testbed)->remote_pager();
    ASSERT_NE(pager, nullptr);
    const std::vector<TraceRecord> records = pager->tracer().Records();
    ASSERT_FALSE(records.empty());
    const uint32_t wire_id = static_cast<uint32_t>(records.back().id);
    size_t servers_with_id = 0;
    for (size_t i = 1; i < (*testbed)->server_count(); ++i) {
      const std::vector<ServerSpan> spans = (*testbed)->server(i).span_ring().Spans();
      if (std::any_of(spans.begin(), spans.end(), [wire_id](const ServerSpan& s) {
            return s.trace_id == wire_id;
          })) {
        ++servers_with_id;
      }
    }
    // A reconstruction touches every survivor; a plain read touches one.
    reconstructed = servers_with_id >= 3;
  }
  EXPECT_TRUE(reconstructed)
      << "no degraded read fanned its trace id across the surviving servers";
}

// --- Stitching --------------------------------------------------------------

TEST(DistributedTraceTest, StitchedSpansLandInRecordsAndStageHistograms) {
  auto testbed = MakeTestbed(Policy::kNoReliability, 2);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  PagingBackend& backend = (*testbed)->backend();
  PageBuffer page;
  for (uint64_t id = 0; id < 16; ++id) {
    FillPattern(page.span(), id);
    ASSERT_TRUE(backend.PageOut(0, id, page.span()).ok());
  }
  const size_t stitched = (*testbed)->StitchServerSpans();
  EXPECT_GT(stitched, 0u);
  // Second drain: the rings were emptied, nothing to stitch twice.
  EXPECT_EQ((*testbed)->StitchServerSpans(), 0u);

  auto* pager = (*testbed)->remote_pager();
  ASSERT_NE(pager, nullptr);
  // The measured histogram now has samples...
  const MetricsSnapshot snapshot = pager->metrics().Snapshot();
  const MetricValue* srv = snapshot.Find("trace.stage.srv_service_ns");
  ASSERT_NE(srv, nullptr);
  EXPECT_GT(srv->histogram.count, 0);
  // ...and the ring records carry attached server-side spans.
  bool any_server_span = false;
  for (const TraceRecord& record : pager->tracer().Records()) {
    for (const TraceSpan& span : record.spans) {
      any_server_span |= IsServerStage(span.stage);
    }
  }
  EXPECT_TRUE(any_server_span);
}

TEST(DistributedTraceTest, ServerSpanRingOverflowCountsDropsAndNeverCrashes) {
  MemoryServerParams params;
  params.span_ring_capacity = 8;
  MemoryServer server(params);
  const Message alloc = server.Handle(MakeAllocRequest(1, 64));
  ASSERT_EQ(alloc.status_code(), ErrorCode::kOk);
  ASSERT_EQ(alloc.count, 64u);
  PageBuffer page;
  FillPattern(page.span(), 1);
  for (uint64_t i = 0; i < 64; ++i) {
    Message out = MakePageOut(i + 2, alloc.slot + i, page.span());
    out.trace_id = static_cast<uint32_t>(i + 1);
    ASSERT_EQ(server.Handle(out).status_code(), ErrorCode::kOk);
  }
  EXPECT_EQ(server.span_ring().size(), 8u);
  EXPECT_GT(server.span_ring().dropped(), 0);
  // The survivors are the newest spans, and the ring still serializes.
  for (const ServerSpan& span : server.span_ring().Spans()) {
    EXPECT_GT(span.trace_id, 0u);
  }
  EXPECT_NE(server.span_ring().ToJson(), "[]");

  // A zero-capacity ring is the disabled path: Record is a no-op.
  server.span_ring().SetCapacity(0);
  Message out = MakePageOut(99, alloc.slot + 5, page.span());
  out.trace_id = 123;
  ASSERT_EQ(server.Handle(out).status_code(), ErrorCode::kOk);
  EXPECT_EQ(server.span_ring().size(), 0u);
}

TEST(DistributedTraceTest, SpanRingPullsBackOverTheWireAsJson) {
  // TRACE_DUMP document 1 is the remote form of the in-proc stitch.
  auto testbed = MakeTestbed(Policy::kNoReliability, 2);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  PagingBackend& backend = (*testbed)->backend();
  PageBuffer page;
  FillPattern(page.span(), 2);
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(backend.PageOut(0, id, page.span()).ok());
  }
  auto* pager = (*testbed)->remote_pager();
  ASSERT_NE(pager, nullptr);
  bool any_spans = false;
  for (size_t i = 0; i < (*testbed)->server_count(); ++i) {
    auto json = pager->cluster().peer(i).DumpServerSpans();
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    any_spans |= json->find("srv_service") != std::string::npos;
  }
  EXPECT_TRUE(any_spans);
}

}  // namespace
}  // namespace rmp
