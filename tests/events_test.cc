// Cluster flight recorder (DESIGN.md §17).
//
// The journal's contract: bounded memory, monotonic sequence numbers whose
// gaps expose ring wrap, truncated hostile details, a disabled zero-capacity
// path, wire queryability via EVENTS_QUERY with a (next_seq, incarnation)
// cursor — and, the point of the exercise, a crash-recovery scenario whose
// post-mortem is one merged, human-readable timeline.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/proto/wire.h"
#include "src/util/bytes.h"
#include "src/util/config.h"
#include "src/util/events.h"

namespace rmp {
namespace {

// --- Journal unit contract --------------------------------------------------

TEST(EventJournalTest, AppendsAreOrderedAndSequenced) {
  EventJournal journal;
  journal.Append(EventKind::kHealth, "health", "peer=1 ALIVE->SUSPECT");
  journal.Append(EventKind::kRepair, "repair", "job armed");
  journal.Append(EventKind::kInfo, "test", "third");
  const std::vector<Event> all = journal.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 1u);
  EXPECT_EQ(all[1].seq, 2u);
  EXPECT_EQ(all[2].seq, 3u);
  EXPECT_LE(all[0].wall_ns, all[1].wall_ns);
  EXPECT_LE(all[1].wall_ns, all[2].wall_ns);
  EXPECT_EQ(all[0].kind, EventKind::kHealth);
  EXPECT_EQ(all[1].actor, "repair");
  EXPECT_EQ(all[2].detail, "third");
  EXPECT_EQ(journal.next_seq(), 4u);
  EXPECT_EQ(journal.dropped(), 0);
}

TEST(EventJournalTest, RingWrapDropsOldestAndLeavesADetectableGap) {
  EventJournalOptions options;
  options.ring_capacity = 4;
  EventJournal journal(options);
  for (int i = 1; i <= 10; ++i) {
    journal.Append(EventKind::kInfo, "test", "event " + std::to_string(i));
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.dropped(), 6);
  EXPECT_EQ(journal.next_seq(), 11u);
  // A reader that asks from seq 1 gets first seq 7: the gap announces the
  // wrap without any side channel.
  const std::vector<Event> since = journal.Since(1);
  ASSERT_EQ(since.size(), 4u);
  EXPECT_EQ(since.front().seq, 7u);
  EXPECT_EQ(since.back().seq, 10u);
  // A cursor inside the live range resumes exactly.
  const std::vector<Event> tail = journal.Since(9);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().seq, 9u);
  // The limit bounds a huge poll.
  EXPECT_EQ(journal.Since(1, 2).size(), 2u);
}

TEST(EventJournalTest, HostileDetailIsTruncatedAtAppend) {
  EventJournalOptions options;
  options.max_detail_bytes = 16;
  EventJournal journal(options);
  journal.Append(EventKind::kInfo, "test", std::string(1000, 'x'));
  const std::vector<Event> all = journal.All();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].detail.size(), 16u);
}

TEST(EventJournalTest, ZeroCapacityIsTheDisabledPath) {
  EventJournalOptions options;
  options.ring_capacity = 0;
  EventJournal journal(options);
  journal.Append(EventKind::kCrash, "test", "never stored");
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.All().size(), 0u);
  EXPECT_EQ(journal.ToJson(), "[]");
}

TEST(EventJournalTest, SetCapacityClearsButKeepsNumbering) {
  EventJournal journal;
  journal.Append(EventKind::kInfo, "test", "one");
  journal.Append(EventKind::kInfo, "test", "two");
  journal.SetCapacity(8);
  EXPECT_EQ(journal.size(), 0u);
  journal.Append(EventKind::kInfo, "test", "three");
  EXPECT_EQ(journal.All().front().seq, 3u);  // Sequence numbering continued.
}

TEST(EventJournalTest, ToJsonEscapesAndCarriesEveryField) {
  EventJournal journal;
  journal.Append(EventKind::kCrash, "server-0", "died \"hard\"\nbackslash \\");
  const std::string json = journal.ToJson();
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"crash\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"actor\":\"server-0\""), std::string::npos) << json;
  EXPECT_NE(json.find("died \\\"hard\\\"\\nbackslash \\\\"), std::string::npos) << json;
  // Raw control bytes must never appear inside the JSON string literal.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(EventJournalTest, EventsConfigKeysApply) {
  auto config = Config::Parse(
      "events.ring = 2\n"
      "events.max_detail = 8\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EventJournalOptions options;
  ASSERT_TRUE(ApplyConfig(*config, EventsConfigKeys(&options)).ok());
  EXPECT_EQ(options.ring_capacity, 2u);
  EXPECT_EQ(options.max_detail_bytes, 8u);
  EventJournal journal(options);
  journal.Append(EventKind::kInfo, "a", "x");
  journal.Append(EventKind::kInfo, "b", "y");
  journal.Append(EventKind::kInfo, "c", "0123456789");
  EXPECT_EQ(journal.size(), 2u);  // ring=2 wrapped past the first event.
  EXPECT_EQ(journal.All().back().detail.size(), 8u);

  // events.ring = 0 documents "journal disabled".
  auto off = Config::Parse("events.ring = 0\n");
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(ApplyConfig(*off, EventsConfigKeys(&options)).ok());
  EXPECT_EQ(options.ring_capacity, 0u);
}

// --- EVENTS_QUERY over the wire ---------------------------------------------

TEST(EventsWireTest, ServerAnswersEventsQueryWithCursorAndIncarnation) {
  MemoryServer server;
  server.events().Append(EventKind::kInfo, "test", "first");
  server.events().Append(EventKind::kHealth, "test", "second");

  const Message reply = server.Handle(MakeEventsQuery(1, 0));
  ASSERT_EQ(reply.type, MessageType::kEventsReply);
  EXPECT_EQ(reply.slot, server.incarnation());
  EXPECT_EQ(reply.count, server.events().next_seq());
  const std::string json(IntrospectionJson(reply));
  EXPECT_NE(json.find("\"detail\":\"first\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"detail\":\"second\""), std::string::npos) << json;

  // Polling from the cursor returns only what happened since.
  server.events().Append(EventKind::kRepair, "test", "third");
  const Message delta = server.Handle(MakeEventsQuery(2, reply.count));
  ASSERT_EQ(delta.type, MessageType::kEventsReply);
  const std::string delta_json(IntrospectionJson(delta));
  EXPECT_EQ(delta_json.find("first"), std::string::npos) << delta_json;
  EXPECT_NE(delta_json.find("third"), std::string::npos) << delta_json;

  // The frame round-trips the wire intact, JSON and cursor included.
  auto decoded = Decode(Encode(delta));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(IntrospectionJson(*decoded), delta_json);
  EXPECT_EQ(decoded->count, delta.count);
}

TEST(EventsWireTest, ClientQueryEventsSeesServerSideDecisions) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 2;
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  (*bed)->server(0).events().Append(EventKind::kInfo, "test", "hello timeline");
  auto* pager = (*bed)->remote_pager();
  ASSERT_NE(pager, nullptr);
  uint64_t next_seq = 0;
  uint64_t incarnation = 0;
  auto json = pager->cluster().peer(0).QueryEvents(0, &next_seq, &incarnation);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("hello timeline"), std::string::npos);
  EXPECT_EQ(next_seq, (*bed)->server(0).events().next_seq());
  EXPECT_EQ(incarnation, (*bed)->server(0).incarnation());
}

// --- The post-mortem timeline ------------------------------------------------

HealthParams FastHealth() {
  HealthParams params;
  params.heartbeat_interval = Millis(50);
  params.suspect_after = 1;
  params.dead_after = 3;
  return params;
}

TEST(FlightRecorderTest, CrashRepairScenarioYieldsOneMergedTimeline) {
  // Mirrored cluster, full self-healing walk: every state machine involved —
  // fault plan, health monitor, repair coordinator, testbed lifecycle, the
  // servers themselves — must land its decisions on one sorted timeline.
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  ASSERT_TRUE((*bed)->EnableSelfHealing(FastHealth()).ok());

  auto loaded = (*bed)->Preload(40, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TimeNs now = *loaded;
  auto pumped = (*bed)->repair()->Pump(now);  // Baseline probes.
  ASSERT_TRUE(pumped.ok());

  (*bed)->CrashServer(1);
  pumped = (*bed)->repair()->Pump(*pumped + Millis(50));
  ASSERT_TRUE(pumped.ok());
  auto quiesced = (*bed)->repair()->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok());
  (*bed)->RestartServer(1);
  pumped = (*bed)->repair()->Pump(*quiesced + Millis(50));
  ASSERT_TRUE(pumped.ok());

  const std::string timeline = (*bed)->DumpFlightRecorder();
  // The header counts what was merged; the client journal plus one journal
  // per server were all non-empty here.
  EXPECT_NE(timeline.find("=== flight recorder:"), std::string::npos) << timeline;
  // Lifecycle, health, repair and the server's own crash line all present.
  EXPECT_NE(timeline.find("crash"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("health"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("repair"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("restart"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("all pages lost"), std::string::npos) << timeline;
  // Timestamps are rendered relative and sorted: the first line is offset 0.
  EXPECT_NE(timeline.find("[+  0.000000s]"), std::string::npos) << timeline;
}

TEST(FlightRecorderTest, FailedRecoveryPrintsTheTimelinePostMortem) {
  // The acceptance scenario: a deliberately unrecoverable crash (no
  // reliability policy, no redundancy) ends in a failed pagein, and the
  // post-mortem dump explains why — the crash, the health transitions, and
  // the repair coordinator's findings, stitched into one timeline.
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 2;
  params.server_capacity_pages = 512;
  auto bed = Testbed::Create(params);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  ASSERT_TRUE((*bed)->EnableSelfHealing(FastHealth()).ok());

  auto loaded = (*bed)->Preload(40, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto pumped = (*bed)->repair()->Pump(*loaded);
  ASSERT_TRUE(pumped.ok());

  // Find a page on server 0, then lose it for good.
  ASSERT_GT((*bed)->server(0).live_pages(), 0u);
  (*bed)->CrashServer(0);
  pumped = (*bed)->repair()->Pump(*pumped + Millis(50));  // Health sees DEAD.
  ASSERT_TRUE(pumped.ok());

  PageBuffer in;
  bool any_failed = false;
  TimeNs now = *pumped;
  for (uint64_t page = 0; page < 40 && !any_failed; ++page) {
    auto done = (*bed)->backend().PageIn(now, page, in.span());
    if (!done.ok()) {
      any_failed = true;
    } else {
      now = *done;
    }
  }
  const std::string timeline = (*bed)->DumpFlightRecorder();
  EXPECT_TRUE(any_failed) << "NO_RELIABILITY recovered from a crash?\n" << timeline;
  // This is the dump a failing scenario leaves in the test log.
  std::printf("%s", timeline.c_str());
  EXPECT_NE(timeline.find("crashed"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("health"), std::string::npos) << timeline;
  ASSERT_NE((*bed)->events(), nullptr);
  EXPECT_GT((*bed)->events()->size(), 0u);
}

}  // namespace
}  // namespace rmp
