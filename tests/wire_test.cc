#include "src/proto/wire.h"

#include <gtest/gtest.h>

#include "src/util/bytes.h"

namespace rmp {
namespace {

Message SamplePage(uint64_t request_id) {
  PageBuffer page;
  FillPattern(page.span(), request_id);
  return MakePageOut(request_id, 17, page.span());
}

TEST(WireTest, HeaderSizeAudited) {
  const Message m = MakeLoadQuery(1);
  EXPECT_EQ(Encode(m).size(), kWirePrefixSize);
}

TEST(WireTest, RoundTripEmptyPayload) {
  const Message m = MakeAllocRequest(7, 256);
  auto decoded = Decode(std::span<const uint8_t>(Encode(m)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(WireTest, RoundTripPagePayload) {
  const Message m = SamplePage(11);
  auto decoded = Decode(std::span<const uint8_t>(Encode(m)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(decoded->payload), 11));
}

// Round-trip every message constructor.
class WireRoundTripTest : public ::testing::TestWithParam<Message> {};

TEST_P(WireRoundTripTest, EncodeDecodeIdentity) {
  const Message& m = GetParam();
  auto decoded = Decode(std::span<const uint8_t>(Encode(m)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

std::vector<Message> AllMessageKinds() {
  PageBuffer page;
  FillPattern(page.span(), 3);
  std::vector<Message> all;
  all.push_back(MakeAllocRequest(1, 64));
  all.push_back(MakeAllocReply(1, 64, ErrorCode::kOk));
  all.push_back(MakeAllocReply(2, 0, ErrorCode::kNoSpace));
  all.push_back(MakeFreeRequest(3, 10, 4));
  all.push_back(MakePageOut(4, 99, page.span()));
  all.push_back(MakePageOutAck(4, 99, ErrorCode::kOk, /*advise_stop=*/true));
  all.push_back(MakePageIn(5, 99));
  all.push_back(MakePageInReply(5, 99, page.span(), ErrorCode::kOk));
  all.push_back(MakePageInReply(6, 99, {}, ErrorCode::kNotFound));
  all.push_back(MakeLoadQuery(7));
  all.push_back(MakeLoadReport(7, 100, 4096, /*advise_stop=*/false));
  all.push_back(MakeShutdown(8));
  all.push_back(MakeErrorReply(9, ErrorCode::kProtocol));
  Message delta = MakePageOut(10, 5, page.span());
  delta.type = MessageType::kDeltaPageOut;
  all.push_back(delta);
  Message merge = MakePageOut(11, 5, page.span());
  merge.type = MessageType::kXorMerge;
  all.push_back(merge);
  all.push_back(MakeAuth(12, "secret-token"));
  all.push_back(MakeAuthReply(12, ErrorCode::kOk));
  all.push_back(MakeAuthReply(13, ErrorCode::kFailedPrecondition));
  const uint64_t slots[] = {40, 41, 99};
  std::vector<uint8_t> pages;
  for (uint64_t s : slots) {
    PageBuffer p;
    FillPattern(p.span(), s);
    pages.insert(pages.end(), p.span().begin(), p.span().end());
  }
  all.push_back(MakePageOutBatch(14, slots, pages));
  all.push_back(MakePageOutBatchAck(14, 3, ErrorCode::kOk, /*advise_stop=*/true));
  all.push_back(MakePageInBatch(15, slots));
  all.push_back(MakePageInBatchReply(15, pages, ErrorCode::kOk));
  all.push_back(MakePageInBatchReply(16, {}, ErrorCode::kNotFound));
  return all;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WireRoundTripTest, ::testing::ValuesIn(AllMessageKinds()));

TEST(WireTest, AdviseStopFlagSurvives) {
  const Message ack = MakePageOutAck(1, 2, ErrorCode::kOk, true);
  auto decoded = Decode(std::span<const uint8_t>(Encode(ack)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->advise_stop());
}

TEST(WireTest, CorruptPayloadDetected) {
  std::vector<uint8_t> encoded = Encode(SamplePage(1));
  encoded[kWirePrefixSize + 100] ^= 0xff;  // Flip a payload byte.
  auto decoded = Decode(std::span<const uint8_t>(encoded));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

TEST(WireTest, BadMagicRejected) {
  std::vector<uint8_t> encoded = Encode(MakeLoadQuery(1));
  encoded[0] = 0x00;
  auto decoded = Decode(std::span<const uint8_t>(encoded));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kProtocol);
}

TEST(WireTest, UnknownTypeRejected) {
  std::vector<uint8_t> encoded = Encode(MakeLoadQuery(1));
  encoded[4] = 250;
  EXPECT_FALSE(Decode(std::span<const uint8_t>(encoded)).ok());
}

TEST(WireTest, TruncatedMessageRejected) {
  const std::vector<uint8_t> encoded = Encode(SamplePage(1));
  auto decoded = Decode(std::span<const uint8_t>(encoded.data(), encoded.size() - 1));
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTest, TrailingGarbageRejected) {
  std::vector<uint8_t> encoded = Encode(MakeLoadQuery(1));
  encoded.push_back(0);
  EXPECT_FALSE(Decode(std::span<const uint8_t>(encoded)).ok());
}

TEST(FrameReaderTest, ReassemblesFromSingleFeed) {
  FrameReader reader;
  reader.Feed(std::span<const uint8_t>(Encode(MakeLoadQuery(5))));
  auto m = reader.Next();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->type, MessageType::kLoadQuery);
  EXPECT_EQ(reader.Next().status().code(), ErrorCode::kNotFound);
}

TEST(FrameReaderTest, ReassemblesByteByByte) {
  const std::vector<uint8_t> encoded = Encode(SamplePage(21));
  FrameReader reader;
  for (size_t i = 0; i + 1 < encoded.size(); ++i) {
    reader.Feed(std::span<const uint8_t>(&encoded[i], 1));
    EXPECT_EQ(reader.Next().status().code(), ErrorCode::kNotFound);
  }
  reader.Feed(std::span<const uint8_t>(&encoded.back(), 1));
  auto m = reader.Next();
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(m->payload), 21));
}

TEST(FrameReaderTest, MultipleMessagesInOneFeed) {
  std::vector<uint8_t> stream;
  EncodeTo(MakeLoadQuery(1), &stream);
  EncodeTo(SamplePage(2), &stream);
  EncodeTo(MakeShutdown(3), &stream);
  FrameReader reader;
  reader.Feed(std::span<const uint8_t>(stream));
  EXPECT_EQ(reader.Next()->type, MessageType::kLoadQuery);
  EXPECT_EQ(reader.Next()->type, MessageType::kPageOut);
  EXPECT_EQ(reader.Next()->type, MessageType::kShutdown);
  EXPECT_EQ(reader.Next().status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, DesynchronizedStreamReportsProtocolError) {
  FrameReader reader;
  std::vector<uint8_t> junk(kWirePrefixSize, 0xab);
  reader.Feed(std::span<const uint8_t>(junk));
  EXPECT_EQ(reader.Next().status().code(), ErrorCode::kProtocol);
}

TEST(FrameReaderTest, CorruptFrameConsumedNotStuck) {
  std::vector<uint8_t> encoded = Encode(SamplePage(1));
  encoded[kWirePrefixSize] ^= 0xff;
  std::vector<uint8_t> stream = encoded;
  EncodeTo(MakeLoadQuery(2), &stream);
  FrameReader reader;
  reader.Feed(std::span<const uint8_t>(stream));
  EXPECT_EQ(reader.Next().status().code(), ErrorCode::kCorruption);
  // The broken frame was consumed; the next one still parses.
  auto next = reader.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->type, MessageType::kLoadQuery);
}

TEST(WireTest, MessageTypeNamesAreStable) {
  EXPECT_EQ(MessageTypeName(MessageType::kPageOut), "PAGEOUT");
  EXPECT_EQ(MessageTypeName(MessageType::kLoadReport), "LOAD_REPORT");
  EXPECT_EQ(MessageTypeName(MessageType::kXorMerge), "XOR_MERGE");
  EXPECT_EQ(MessageTypeName(MessageType::kPageOutBatch), "PAGEOUT_BATCH");
  EXPECT_EQ(MessageTypeName(MessageType::kPageInBatchReply), "PAGEIN_BATCH_REPLY");
}

std::vector<uint8_t> BatchPages(std::span<const uint64_t> seeds) {
  std::vector<uint8_t> pages;
  for (uint64_t s : seeds) {
    PageBuffer p;
    FillPattern(p.span(), s);
    pages.insert(pages.end(), p.span().begin(), p.span().end());
  }
  return pages;
}

TEST(WireBatchTest, PageOutBatchLayout) {
  const uint64_t slots[] = {7, 3, 1000};
  const std::vector<uint8_t> pages = BatchPages(slots);
  const Message m = MakePageOutBatch(42, slots, pages);
  EXPECT_EQ(m.slot, 7u);  // First slot drives worker dispatch affinity.
  EXPECT_EQ(m.count, 3u);
  auto count = ValidateBatch(m);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(BatchSlot(m, i), slots[i]);
    EXPECT_TRUE(CheckPattern(BatchPage(m, i), slots[i])) << i;
  }
}

TEST(WireBatchTest, PageInBatchAndReply) {
  const uint64_t slots[] = {5, 6};
  const Message request = MakePageInBatch(1, slots);
  ASSERT_TRUE(ValidateBatch(request).ok());
  EXPECT_EQ(BatchSlot(request, 1), 6u);

  const std::vector<uint8_t> pages = BatchPages(slots);
  const Message reply = MakePageInBatchReply(1, pages, ErrorCode::kOk);
  auto count = ValidateBatch(reply);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(*count, 2u);
  EXPECT_TRUE(CheckPattern(BatchPage(reply, 0), 5));
  EXPECT_TRUE(CheckPattern(BatchPage(reply, 1), 6));
}

TEST(WireBatchTest, BatchRoundTripsThroughFrameReader) {
  const uint64_t slots[] = {10, 11, 12, 13};
  const Message m = MakePageOutBatch(9, slots, BatchPages(slots));
  FrameReader reader;
  reader.Feed(std::span<const uint8_t>(Encode(m)));
  auto decoded = reader.Next();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(WireBatchTest, MalformedBatchesRejected) {
  const uint64_t slots[] = {1, 2};
  Message m = MakePageOutBatch(1, slots, BatchPages(slots));

  Message zero_count = m;
  zero_count.count = 0;
  EXPECT_FALSE(ValidateBatch(zero_count).ok());

  Message huge_count = m;
  huge_count.count = kMaxBatchPages + 1;
  EXPECT_FALSE(ValidateBatch(huge_count).ok());

  Message short_payload = m;
  short_payload.payload.pop_back();
  EXPECT_FALSE(ValidateBatch(short_payload).ok());

  Message count_mismatch = m;
  count_mismatch.count = 1;  // Payload still sized for two entries.
  EXPECT_FALSE(ValidateBatch(count_mismatch).ok());

  Message not_batch = MakePageIn(1, 5);
  EXPECT_FALSE(ValidateBatch(not_batch).ok());

  Message failed_reply_with_payload = MakePageInBatchReply(1, BatchPages(slots), ErrorCode::kOk);
  failed_reply_with_payload.status = static_cast<uint32_t>(ErrorCode::kNotFound);
  EXPECT_FALSE(ValidateBatch(failed_reply_with_payload).ok());
}

TEST(WireBatchTest, MaxBatchFitsWirePayloadBound) {
  EXPECT_LE(kMaxBatchPages * (8 + kPageSize), kMaxWirePayload);
}

}  // namespace
}  // namespace rmp
