// Negative and fuzz tests of the wire protocol boundary.
//
// The client trusts nothing it reads off a socket: a truncated frame, a
// batch count past the limit, a payload length that would drive an unbounded
// allocation, or a flipped bit must all surface as clean Status errors — no
// aborts, no giant allocations, no partially-applied batches. The seeded
// byte-flip sweeps are deterministic, so any frame that ever breaks the
// decoder is reproducible from the iteration number.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string_view>
#include <vector>

#include "src/proto/cluster_map.h"
#include "src/proto/wire.h"
#include "src/server/memory_server.h"
#include "src/util/bytes.h"
#include "src/util/events.h"
#include "src/util/rng.h"
#include "tests/wire_test_util.h"

namespace rmp {
namespace {

Message SamplePageOut() {
  PageBuffer page;
  FillPattern(page.span(), 42);
  return MakePageOut(7, 3, page.span());
}

std::vector<Message> SampleMessages() {
  std::vector<Message> samples;
  samples.push_back(MakeAllocRequest(1, 16));
  samples.push_back(MakeLoadQuery(2));
  samples.push_back(SamplePageOut());
  samples.push_back(MakePageIn(3, 5));
  PageBuffer page;
  FillPattern(page.span(), 9);
  const uint64_t slots[2] = {4, 9};
  std::vector<uint8_t> pages(2 * kPageSize);
  FillPattern(std::span<uint8_t>(pages).first(kPageSize), 10);
  FillPattern(std::span<uint8_t>(pages).subspan(kPageSize), 11);
  samples.push_back(MakePageOutBatch(4, slots, pages));
  samples.push_back(MakePageInBatch(5, slots));
  return samples;
}

// --- Truncation -------------------------------------------------------------

TEST(WireFuzzTest, EveryTruncationOfAFrameIsACleanError) {
  const std::vector<uint8_t> bytes = Encode(SamplePageOut());
  // Every strict prefix must decode to an error, never crash or succeed.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = Decode(std::span<const uint8_t>(bytes.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  auto whole = Decode(bytes);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, SamplePageOut());
}

TEST(WireFuzzTest, FrameReaderSurvivesBytewiseFeeding) {
  const Message original = SamplePageOut();
  const std::vector<uint8_t> bytes = Encode(original);
  FrameReader reader;
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Until the last byte lands the reader must keep asking for more.
    auto premature = reader.Next();
    ASSERT_FALSE(premature.ok());
    ASSERT_EQ(premature.status().code(), ErrorCode::kNotFound) << "at byte " << i;
    reader.Feed(std::span<const uint8_t>(bytes.data() + i, 1));
  }
  auto complete = reader.Next();
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_EQ(*complete, original);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(WireFuzzTest, FrameReaderSplitsCoalescedMessages) {
  std::vector<uint8_t> stream = Encode(MakeLoadQuery(1));
  EncodeTo(SamplePageOut(), &stream);
  EncodeTo(MakeAllocRequest(2, 8), &stream);
  FrameReader reader;
  reader.Feed(stream);
  ASSERT_TRUE(reader.Next().ok());
  auto second = reader.Next();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, SamplePageOut());
  ASSERT_TRUE(reader.Next().ok());
  EXPECT_FALSE(reader.Next().ok());  // Stream drained.
}

TEST(WireFuzzTest, FrameReaderRejectsDesynchronizedStream) {
  std::vector<uint8_t> stream = Encode(MakeLoadQuery(1));
  stream[0] ^= 0xff;  // Garbage where the magic should be.
  FrameReader reader;
  reader.Feed(stream);
  auto result = reader.Next();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kProtocol);
}

// --- Hostile header fields --------------------------------------------------

TEST(WireFuzzTest, OversizedPayloadLengthIsRejectedBeforeAllocation) {
  std::vector<uint8_t> bytes = Encode(MakeLoadQuery(1));
  // Patch payload_len to a value that would demand a multi-gigabyte
  // allocation if trusted, behind a valid header CRC.
  const uint32_t huge = kMaxWirePayload + 1;
  std::memcpy(bytes.data() + kPayloadLenOffset, &huge, sizeof(huge));
  ResealHeader(&bytes);
  auto decoded = Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
  // The incremental reader must reject it too, not buffer forever.
  FrameReader reader;
  reader.Feed(bytes);
  auto streamed = reader.Next();
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), ErrorCode::kProtocol);
}

TEST(WireFuzzTest, CorruptPayloadFailsTheCrc) {
  std::vector<uint8_t> bytes = Encode(SamplePageOut());
  bytes[bytes.size() - 1] ^= 0x01;  // One flipped payload bit.
  auto decoded = Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

TEST(WireFuzzTest, EverySingleBitFlipOfAPagePayloadIsRejected) {
  // CRC-32C detects every single-bit error, so no flip anywhere in the 8 KB
  // payload may reach the caller — through Decode or through the stream
  // reader the reactor and SendFrame/ReadFrame paths share.
  std::vector<uint8_t> bytes = Encode(SamplePageOut());
  ASSERT_EQ(bytes.size(), kWirePrefixSize + kPageSize);
  FrameReader reader;
  for (size_t bit = 0; bit < kPageSize * 8; ++bit) {
    uint8_t& target = bytes[kWirePrefixSize + bit / 8];
    target ^= static_cast<uint8_t>(1u << (bit % 8));
    auto decoded = Decode(bytes);
    ASSERT_FALSE(decoded.ok()) << "flip of payload bit " << bit << " decoded";
    ASSERT_EQ(decoded.status().code(), ErrorCode::kCorruption) << "bit " << bit;
    reader.Feed(bytes);
    auto streamed = reader.Next();
    ASSERT_FALSE(streamed.ok()) << "flip of payload bit " << bit << " streamed";
    ASSERT_EQ(streamed.status().code(), ErrorCode::kCorruption) << "bit " << bit;
    ASSERT_EQ(reader.buffered_bytes(), 0u);  // The bad frame was consumed.
    target ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_TRUE(Decode(bytes).ok());
}

TEST(WireFuzzTest, UnknownMessageTypeIsAProtocolError) {
  std::vector<uint8_t> bytes = Encode(MakeLoadQuery(1));
  bytes[kTypeOffset] = 0xee;
  ResealHeader(&bytes);
  auto decoded = Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
}

TEST(WireFuzzTest, FlippedSlotBitOnAPageOutIsCorruption) {
  // One flipped slot bit would store the page over another slot and ack it
  // OK; the header CRC turns it into CORRUPTION before anything reads the
  // slot.
  std::vector<uint8_t> bytes = Encode(SamplePageOut());
  bytes[kSlotOffset] ^= 0x01;  // Slot 3 becomes slot 2.
  auto decoded = Decode(bytes);
  ASSERT_FALSE(decoded.ok()) << "decoded with slot " << decoded->slot;
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

// One frame of every message type with every header field nonzero — traced
// and epoch-stamped — plus the untraced samples the other sweeps use.
std::vector<Message> EveryMessageKind() {
  std::vector<Message> kinds = SampleMessages();
  for (int t = static_cast<int>(MessageType::kAllocRequest);
       t <= static_cast<int>(MessageType::kEventsReply); ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.flags = kFlagAdviseStop;
    m.tenant = 7;
    m.request_id = 0x1122334455667788ULL;
    m.slot = 0x0102030405060708ULL;
    m.count = 3;
    m.aux = 1;
    m.epoch = 9;
    m.status = static_cast<uint32_t>(ErrorCode::kStaleEpoch);
    m.trace_id = 0xdeadbeef;
    m.payload.assign(static_cast<size_t>(t) * 3, static_cast<uint8_t>(t));
    kinds.push_back(std::move(m));
  }
  return kinds;
}

TEST(WireFuzzTest, EverySingleBitFlipOfEveryHeaderIsRejected) {
  // Every byte that says where a page lands or whose it is sits under the
  // header CRC: no single flipped prefix bit of any frame may decode, through
  // Decode or through the stream reader, and the reader must reject it from
  // the prefix alone instead of waiting for a payload.
  for (const Message& original : EveryMessageKind()) {
    std::vector<uint8_t> bytes = Encode(original);
    ASSERT_TRUE(Decode(bytes).ok()) << MessageTypeName(original.type);
    for (size_t bit = 0; bit < kWirePrefixSize * 8; ++bit) {
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      // A flipped magic is a desynchronized stream; anything after it fails
      // the header CRC.
      const ErrorCode want = bit < 32 ? ErrorCode::kProtocol : ErrorCode::kCorruption;
      auto decoded = Decode(bytes);
      ASSERT_FALSE(decoded.ok()) << MessageTypeName(original.type) << " bit " << bit;
      ASSERT_EQ(decoded.status().code(), want) << MessageTypeName(original.type) << " bit " << bit;
      FrameReader reader;
      reader.Feed(std::span<const uint8_t>(bytes).first(kWirePrefixSize));
      auto streamed = reader.Next();
      ASSERT_FALSE(streamed.ok()) << MessageTypeName(original.type) << " bit " << bit;
      ASSERT_EQ(streamed.status().code(), want) << MessageTypeName(original.type) << " bit " << bit;
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

// --- Batch validation -------------------------------------------------------

Message RawBatch(MessageType type, uint64_t count, size_t payload_bytes) {
  Message message;
  message.type = type;
  message.request_id = 1;
  message.count = count;
  message.payload.assign(payload_bytes, 0);
  return message;
}

TEST(WireFuzzTest, BatchCountPastTheLimitIsRejected) {
  // A pagein batch claiming kMaxBatchPages + 1 slots, payload sized to match:
  // the count bound must trip before anything trusts the layout.
  const uint64_t count = kMaxBatchPages + 1;
  auto verdict = ValidateBatch(RawBatch(MessageType::kPageInBatch, count, count * 8));
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), ErrorCode::kProtocol);
}

TEST(WireFuzzTest, BatchCountZeroIsRejected) {
  auto verdict = ValidateBatch(RawBatch(MessageType::kPageInBatch, 0, 0));
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), ErrorCode::kProtocol);
}

TEST(WireFuzzTest, BatchPayloadSizeMismatchIsRejected) {
  // Claims 3 slots but carries only 2 slots' worth of bytes.
  auto verdict = ValidateBatch(RawBatch(MessageType::kPageInBatch, 3, 2 * 8));
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), ErrorCode::kProtocol);
  // Pageout batch whose payload is one byte short of count * (slot + page).
  auto truncated =
      ValidateBatch(RawBatch(MessageType::kPageOutBatch, 2, 2 * (8 + kPageSize) - 1));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), ErrorCode::kProtocol);
}

TEST(WireFuzzTest, ServerAnswersMalformedBatchWithCleanError) {
  MemoryServer server;
  // Hostile counts and layouts must produce an error reply, never abort or
  // partially apply.
  for (const auto& hostile :
       {RawBatch(MessageType::kPageInBatch, kMaxBatchPages + 1, (kMaxBatchPages + 1) * 8),
        RawBatch(MessageType::kPageInBatch, 0, 0),
        RawBatch(MessageType::kPageInBatch, 4, 8),
        RawBatch(MessageType::kPageOutBatch, 2, 8 + kPageSize)}) {
    const Message reply = server.Handle(hostile);
    EXPECT_EQ(reply.type, MessageType::kErrorReply);
    EXPECT_NE(reply.status_code(), ErrorCode::kOk);
  }
  EXPECT_EQ(server.live_pages(), 0u);
  EXPECT_EQ(server.stats().bytes_stored.load(), 0u);
}

// --- Hostile tenant-bearing frames (DESIGN.md §15) ---------------------------

TEST(WireFuzzTest, TenantIdRoundTripsThroughTheHeader) {
  Message tagged = MakeAllocRequest(1, 16);
  tagged.tenant = kMaxTenantId;  // The largest id the wire admits.
  auto decoded = Decode(Encode(tagged));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tenant, kMaxTenantId);
  EXPECT_EQ(*decoded, tagged);  // operator== covers the tenant field.
}

TEST(WireFuzzTest, OutOfRangeTenantIdIsRejectedAtDecode) {
  // The id space is bounded before any per-tenant state can exist: a hostile
  // or bit-flipped id past kMaxTenantId must never reach attribution.
  for (const uint16_t hostile : {static_cast<uint16_t>(kMaxTenantId + 1),
                                 static_cast<uint16_t>(0x8000), uint16_t{0xffff}}) {
    std::vector<uint8_t> bytes = Encode(MakeAllocRequest(1, 16));
    bytes[kTenantOffset] = static_cast<uint8_t>(hostile & 0xff);
    bytes[kTenantOffset + 1] = static_cast<uint8_t>(hostile >> 8);
    ResealHeader(&bytes);
    auto decoded = Decode(bytes);
    ASSERT_FALSE(decoded.ok()) << "tenant " << hostile << " decoded";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
    FrameReader reader;
    reader.Feed(bytes);
    auto streamed = reader.Next();
    ASSERT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().code(), ErrorCode::kProtocol);
  }
}

TEST(WireFuzzTest, StrictServerAnswersUnknownTenantFramesCleanly) {
  MemoryServerParams params;
  params.tenants.tenants = {{.id = 7}};
  params.tenants.strict = true;
  MemoryServer server(params);
  // An authenticated-id-only policy: every op from an undeclared tenant is a
  // clean FAILED_PRECONDITION, never a crash or a partial apply.
  PageBuffer page;
  FillPattern(page.span(), 3);
  for (Message hostile : {MakeAllocRequest(1, 8), MakePageIn(2, 5),
                          MakePageOut(3, 5, page.span()), MakeMigrate(4, 5)}) {
    hostile.tenant = 99;
    const Message reply = server.Handle(hostile);
    EXPECT_EQ(reply.status_code(), ErrorCode::kFailedPrecondition);
  }
  EXPECT_EQ(server.live_pages(), 0u);
  EXPECT_EQ(server.TenantReservedPages(99), 0u);
  EXPECT_EQ(server.TenantReservedPages(7), 0u);
}

TEST(WireFuzzTest, FlippedTenantAndFlagBytesNeverCrossCharge) {
  // Seeded sweep over the flags and tenant bytes, re-sealed so every flip
  // gets past the header CRC: whatever id a flip lands on, the decode either
  // rejects it or the server attributes the op to exactly that id —
  // occupancy charged to any tenant must match the grants that tenant's own
  // admitted allocs received.
  MemoryServerParams params;
  params.tenants.tenants = {{.id = 7, .memory_quota_pages = 256}, {.id = 9}};
  MemoryServer server(params);
  Rng rng(0x7e4aULL);
  std::map<uint16_t, uint64_t> granted;
  for (int iter = 0; iter < 200; ++iter) {
    Message request = MakeAllocRequest(static_cast<uint64_t>(iter) + 1, 4);
    request.tenant = rng.Bernoulli(0.5) ? 7 : 9;
    std::vector<uint8_t> bytes = Encode(request);
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      bytes[kFlagsOffset + rng.Below(3)] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    ResealHeader(&bytes);
    auto decoded = Decode(bytes);
    if (!decoded.ok()) {
      continue;  // Out-of-range id: rejected before attribution, by design.
    }
    const Message reply = server.Handle(*decoded);
    if (reply.type == MessageType::kAllocReply && reply.status_code() == ErrorCode::kOk) {
      granted[decoded->tenant] += reply.count;
    }
  }
  for (const auto& [tenant, pages] : granted) {
    if (tenant == 0) {
      continue;  // The untenanted lane is deliberately unaccounted.
    }
    EXPECT_EQ(server.TenantReservedPages(tenant), pages) << "tenant " << tenant;
  }
  // Ids that never received a grant were never charged.
  for (const uint16_t quiet : {uint16_t{3}, uint16_t{500}, kMaxTenantId}) {
    if (granted.find(quiet) == granted.end()) {
      EXPECT_EQ(server.TenantReservedPages(quiet), 0u);
    }
  }
}

// --- Hostile cluster-map frames (DESIGN.md §16) ------------------------------

ClusterMap SampleMap() {
  return ClusterMap::Build(5, 64,
                           {{0, 1, ClusterMember::State::kActive},
                            {1, 3, ClusterMember::State::kActive},
                            {2, 2, ClusterMember::State::kLeaving}});
}

// Patches the little-endian u32 at `offset` in a serialized map.
void PatchU32(std::vector<uint8_t>* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

TEST(WireFuzzTest, EveryTruncationOfAMapFrameFailsClosed) {
  const std::vector<uint8_t> bytes = SampleMap().Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = ClusterMap::Deserialize(std::span<const uint8_t>(bytes.data(), len));
    ASSERT_FALSE(decoded.ok()) << "map prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
  }
  ASSERT_TRUE(ClusterMap::Deserialize(bytes).ok());
}

TEST(WireFuzzTest, MapMemberCountBoundsAreEnforcedBeforeAllocation) {
  // member_count is the u32 at offset 16 (magic + epoch + groups). A hostile
  // count must trip the bound before anything sizes a member vector by it.
  for (const uint32_t hostile : {0u, kMaxClusterMembers + 1, 0xffffffffu}) {
    std::vector<uint8_t> bytes = SampleMap().Serialize();
    PatchU32(&bytes, 16, hostile);
    auto decoded = ClusterMap::Deserialize(bytes);
    ASSERT_FALSE(decoded.ok()) << "member_count " << hostile << " decoded";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
  }
  // A count that *claims* fewer members than the frame carries (and vice
  // versa) is a length mismatch, not a partial parse.
  std::vector<uint8_t> bytes = SampleMap().Serialize();
  PatchU32(&bytes, 16, 2);
  EXPECT_FALSE(ClusterMap::Deserialize(bytes).ok());
}

TEST(WireFuzzTest, MapRingBoundsAndStatesAreValidated) {
  // groups is the u32 at offset 12; 0 and past-the-bound both fail closed.
  for (const uint32_t hostile : {0u, kMaxPageGroups + 1, 0xffffffffu}) {
    std::vector<uint8_t> bytes = SampleMap().Serialize();
    PatchU32(&bytes, 12, hostile);
    auto decoded = ClusterMap::Deserialize(bytes);
    ASSERT_FALSE(decoded.ok()) << "groups " << hostile << " decoded";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
  }
  // An out-of-range member state byte (first member's state is the u8 at
  // offset 20 + 12) must be rejected, not cast blindly into the enum.
  std::vector<uint8_t> bytes = SampleMap().Serialize();
  bytes[20 + 12] = 0x7f;
  EXPECT_FALSE(ClusterMap::Deserialize(bytes).ok());
}

TEST(WireFuzzTest, ServerAnswersHostileMapPublishesCleanly) {
  MemoryServer server;
  const std::vector<uint8_t> good = SampleMap().Serialize();

  // Truncated map payloads: error reply, no map adopted.
  for (const size_t len : {size_t{0}, size_t{4}, good.size() - 1}) {
    const Message reply = server.Handle(
        MakeMapPublish(1, 5, std::span<const uint8_t>(good.data(), len)));
    EXPECT_EQ(reply.type, MessageType::kErrorReply);
    EXPECT_EQ(reply.status_code(), ErrorCode::kProtocol);
    EXPECT_EQ(server.map_epoch(), 0u);
  }
  // A publish whose header epoch disagrees with the map payload's epoch is
  // hostile by definition — one of them lies.
  {
    const Message reply = server.Handle(MakeMapPublish(2, 9, good));
    EXPECT_EQ(reply.type, MessageType::kErrorReply);
    EXPECT_EQ(server.map_epoch(), 0u);
  }
  // The genuine frame lands...
  ASSERT_EQ(server.Handle(MakeMapPublish(3, 5, good)).type, MessageType::kMapPublishAck);
  EXPECT_EQ(server.map_epoch(), 5u);
  // ...an absurd epoch in a frame that fails decode must NOT bump the epoch
  // even though it is numerically newer.
  {
    std::vector<uint8_t> bad = SampleMap().Serialize();
    PatchU32(&bad, 16, 0xffffffffu);
    const Message reply =
        server.Handle(MakeMapPublish(4, 0xffffffffffffffffull, bad));
    EXPECT_EQ(reply.type, MessageType::kErrorReply);
    EXPECT_EQ(server.map_epoch(), 5u);
  }
  EXPECT_EQ(server.stats().stale_epoch_rejections.value(), 0);
}

TEST(WireFuzzTest, RandomByteFlipsNeverBreakTheMapDecoder) {
  // Seeded sweep: any flipped map frame either still decodes to an in-bounds
  // map or fails with a clean protocol error — never an abort, never a map
  // whose fields escape the documented bounds.
  Rng rng(0x3a9cULL);
  const std::vector<uint8_t> good = SampleMap().Serialize();
  int decoded_ok = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> bytes = good;
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    auto decoded = ClusterMap::Deserialize(bytes);
    if (!decoded.ok()) {
      continue;
    }
    ++decoded_ok;
    EXPECT_GE(decoded->epoch(), 1u) << "iteration " << iter;
    EXPECT_GE(decoded->groups(), 1u) << "iteration " << iter;
    EXPECT_LE(decoded->groups(), kMaxPageGroups) << "iteration " << iter;
    EXPECT_GE(decoded->members().size(), 1u) << "iteration " << iter;
    EXPECT_LE(decoded->members().size(), size_t{kMaxClusterMembers}) << "iteration " << iter;
    // Whatever survived must still run the ring without tripping asserts
    // (unless the flips deactivated every member, when there is no ring).
    if (decoded->active_members() > 0) {
      (void)decoded->OwnerOf(decoded->GroupOf(12345));
      (void)decoded->OwnerChain(0, 2);
    }
  }
  EXPECT_LT(decoded_ok, 400);  // The sweep genuinely exercised rejection.
}

// --- Seeded random corruption sweeps ---------------------------------------

TEST(WireFuzzTest, RandomByteFlipsNeverBreakTheDecoder) {
  const std::vector<Message> samples = SampleMessages();
  Rng rng(0xf02dULL);
  MemoryServer server;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> bytes = Encode(samples[static_cast<size_t>(iter) % samples.size()]);
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    // The decoder must return — ok (the flip hit a don't-care field and the
    // CRC still holds) or a clean error — and a message it does accept must
    // then pass harmlessly through the server's dispatcher.
    auto decoded = Decode(bytes);
    if (decoded.ok()) {
      const Message reply = server.Handle(*decoded);
      EXPECT_NE(reply.type, MessageType::kPageOut) << "iteration " << iter;
    }
  }
}

// --- Hostile introspection frames (DESIGN.md §17) ----------------------------

std::vector<Message> SampleIntrospectionReplies() {
  std::vector<Message> samples;
  samples.push_back(MakeStatsReply(
      1, 3, R"({"server.live_pages":{"kind":"gauge","value":42}})"));
  samples.push_back(MakeTraceDumpReply(
      2, 3, R"([{"trace":7,"stage":"srv_service","start":1000,"dur":250}])"));
  samples.push_back(MakeEventsReply(
      3, 3, 9, R"([{"seq":8,"t":123,"kind":"crash","actor":"testbed","detail":"s-0 \"died\""}])"));
  samples.push_back(MakeStatsQuery(4));
  samples.push_back(MakeTraceDump(5, 1));
  samples.push_back(MakeEventsQuery(6, 8));
  return samples;
}

TEST(WireFuzzTest, EveryTruncationOfAnIntrospectionReplyIsACleanError) {
  for (const Message& sample : SampleIntrospectionReplies()) {
    const std::vector<uint8_t> bytes = Encode(sample);
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto decoded = Decode(std::span<const uint8_t>(bytes.data(), len));
      ASSERT_FALSE(decoded.ok())
          << MessageTypeName(sample.type) << " prefix of " << len << " bytes decoded";
    }
    auto whole = Decode(bytes);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(*whole, sample);
    // The JSON payload round-trips byte-exact (escapes included).
    EXPECT_EQ(IntrospectionJson(*whole), IntrospectionJson(sample));
  }
}

TEST(WireFuzzTest, OversizedIntrospectionPayloadLengthIsRejectedBeforeAllocation) {
  // A stats/trace/events reply claiming a multi-gigabyte JSON document must
  // trip the payload bound, not size a string by the hostile length.
  for (const Message& sample : SampleIntrospectionReplies()) {
    std::vector<uint8_t> bytes = Encode(sample);
    const uint32_t huge = kMaxWirePayload + 1;
    std::memcpy(bytes.data() + kPayloadLenOffset, &huge, sizeof(huge));
    ResealHeader(&bytes);
    auto decoded = Decode(bytes);
    ASSERT_FALSE(decoded.ok()) << MessageTypeName(sample.type);
    EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
    FrameReader reader;
    reader.Feed(bytes);
    auto streamed = reader.Next();
    ASSERT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().code(), ErrorCode::kProtocol);
  }
}

TEST(WireFuzzTest, RandomByteFlipsNeverBreakIntrospectionReplies) {
  // Seeded sweep over the introspection frames: every flip either fails the
  // CRC/bounds cleanly or yields a frame whose IntrospectionJson is safe to
  // read — a string_view inside the payload, never past it.
  const std::vector<Message> samples = SampleIntrospectionReplies();
  Rng rng(0x0b5eULL);
  int decoded_ok = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> bytes = Encode(samples[static_cast<size_t>(iter) % samples.size()]);
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    }
    auto decoded = Decode(bytes);
    if (!decoded.ok()) {
      continue;
    }
    ++decoded_ok;
    const std::string_view json = IntrospectionJson(*decoded);
    EXPECT_LE(json.size(), decoded->payload.size()) << "iteration " << iter;
    if (!json.empty()) {
      // Touch both ends; ASan would flag any out-of-payload view.
      volatile char sink = json.front();
      sink = json.back();
      (void)sink;
    }
  }
  EXPECT_LT(decoded_ok, 400);  // The sweep genuinely exercised rejection.
}

TEST(WireFuzzTest, ServerAnswersIntrospectionQueriesUnderFlippedHeaders) {
  // Flipped header bytes on the query side: whatever survives decode must get
  // a well-formed reply (or clean error) out of a live server — the stats,
  // span-ring, and events handlers never abort on hostile slot/count fields.
  MemoryServer server;
  server.events().Append(EventKind::kInfo, "fuzz", "seed event");
  Rng rng(0x15e7ULL);
  const std::vector<Message> queries = {MakeStatsQuery(1), MakeTraceDump(2, 0),
                                        MakeTraceDump(3, 1), MakeEventsQuery(4, 0),
                                        MakeEventsQuery(5, 0xffffffffffffffffull)};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> bytes = Encode(queries[static_cast<size_t>(iter) % queries.size()]);
    // Flip within the header only and re-seal it, so some frames keep a
    // valid CRC and reach the handlers.
    bytes[rng.Below(kWirePrefixSize - 4)] ^= static_cast<uint8_t>(1 + rng.Below(255));
    ResealHeader(&bytes);
    auto decoded = Decode(bytes);
    if (!decoded.ok()) {
      continue;
    }
    const Message reply = server.Handle(*decoded);
    if (reply.type == MessageType::kStatsReply || reply.type == MessageType::kTraceDumpReply ||
        reply.type == MessageType::kEventsReply) {
      // Whatever JSON came back must re-encode into a valid frame.
      auto round = Decode(Encode(reply));
      ASSERT_TRUE(round.ok()) << "iteration " << iter;
    }
  }
}

TEST(WireFuzzTest, RandomTruncationsNeverBreakTheFrameReader) {
  const std::vector<Message> samples = SampleMessages();
  Rng rng(0xfeedULL);
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<uint8_t> bytes =
        Encode(samples[static_cast<size_t>(iter) % samples.size()]);
    FrameReader reader;
    // Feed a random-length prefix, then the rest; possibly flip one byte.
    const size_t cut = rng.Below(bytes.size());
    std::vector<uint8_t> mutated = bytes;
    if (rng.Bernoulli(0.5)) {
      mutated[rng.Below(mutated.size())] ^= 0x10;
    }
    reader.Feed(std::span<const uint8_t>(mutated.data(), cut));
    (void)reader.Next();  // May be NotFound or a hard error; must not abort.
    reader.Feed(std::span<const uint8_t>(mutated.data() + cut, mutated.size() - cut));
    (void)reader.Next();
  }
}

}  // namespace
}  // namespace rmp
