#include "src/proto/wire.h"

#include <cassert>
#include <cstring>
#include <iterator>
#include <utility>

#include "src/util/checksum.h"
#include "src/util/units.h"

namespace rmp {
namespace {

void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// The header CRC covers every prefix byte before it.
constexpr size_t kHeaderCrcOffset = kWirePrefixSize - 4;

uint32_t Code(ErrorCode status) { return static_cast<uint32_t>(status); }

uint8_t AdviseStop(bool advise_stop) { return advise_stop ? kFlagAdviseStop : 0; }

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(MessageType::kAllocRequest) &&
         t <= static_cast<uint8_t>(MessageType::kEventsReply);
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  // Indexed by type - 1; ValidType bounds the enum.
  static constexpr std::string_view kNames[] = {
      "ALLOC_REQUEST", "ALLOC_REPLY", "FREE_REQUEST", "FREE_REPLY", "PAGEOUT", "PAGEOUT_ACK",
      "PAGEIN", "PAGEIN_REPLY", "LOAD_QUERY", "LOAD_REPORT", "SHUTDOWN", "ERROR_REPLY",
      "DELTA_PAGEOUT", "XOR_MERGE", "XOR_MERGE_ACK", "AUTH", "AUTH_REPLY", "PAGEOUT_BATCH",
      "PAGEOUT_BATCH_ACK", "PAGEIN_BATCH", "PAGEIN_BATCH_REPLY", "HEARTBEAT", "HEARTBEAT_ACK",
      "MIGRATE", "MIGRATE_REPLY", "STATS_QUERY", "STATS_REPLY", "TRACE_DUMP", "TRACE_DUMP_REPLY",
      "MAP_QUERY", "MAP_REPLY", "MAP_PUBLISH", "MAP_PUBLISH_ACK", "EVENTS_QUERY", "EVENTS_REPLY",
  };
  static_assert(std::size(kNames) == static_cast<size_t>(MessageType::kEventsReply));
  const auto t = static_cast<uint8_t>(type);
  return ValidType(t) ? kNames[t - 1] : "UNKNOWN";
}

uint32_t PayloadCrc(std::span<const uint8_t> payload) {
  return Crc32c(payload);
}

void EncodeHeader(const Message& message, uint32_t payload_crc, uint8_t* out) {
  StoreU32(out, kWireMagic);
  out[4] = static_cast<uint8_t>(message.type);
  out[5] = message.flags;
  StoreU16(out + 6, message.tenant);
  StoreU64(out + 8, message.request_id);
  StoreU64(out + 16, message.slot);
  StoreU64(out + 24, message.count);
  StoreU64(out + 32, message.aux);
  StoreU64(out + 40, message.epoch);
  StoreU32(out + 48, message.status);
  StoreU32(out + 52, message.trace_id);
  StoreU32(out + 56, payload_crc);
  StoreU32(out + 60, static_cast<uint32_t>(message.payload.size()));
  SealHeader(out);
}

void SealHeader(uint8_t* prefix) {
  StoreU32(prefix + kHeaderCrcOffset,
           Crc32c(std::span<const uint8_t>(prefix, kHeaderCrcOffset)));
}

Result<WireHeader> DecodeHeader(std::span<const uint8_t> prefix) {
  const uint8_t* p = prefix.data();
  if (prefix.size() >= 4 && GetU32(p) != kWireMagic) {
    return ProtocolError("bad magic");
  }
  if (prefix.size() < kWirePrefixSize) {
    return NotFoundError("incomplete header");
  }
  if (Crc32c(prefix.first(kHeaderCrcOffset)) != GetU32(p + kHeaderCrcOffset)) {
    return CorruptionError("header CRC mismatch");
  }
  const uint8_t raw_type = p[4];
  if (!ValidType(raw_type)) {
    return ProtocolError("unknown message type " + std::to_string(raw_type));
  }
  WireHeader h;
  Message& m = h.message;
  m.type = static_cast<MessageType>(raw_type);
  m.flags = p[5];
  m.tenant = GetU16(p + 6);
  if (m.tenant > kMaxTenantId) {
    // Bound the id space before any per-tenant state exists: a sender must
    // not be able to conjure 65k metric/queue series.
    return ProtocolError("tenant id " + std::to_string(m.tenant) + " exceeds wire maximum");
  }
  m.request_id = GetU64(p + 8);
  m.slot = GetU64(p + 16);
  m.count = GetU64(p + 24);
  m.aux = GetU64(p + 32);
  m.epoch = GetU64(p + 40);
  m.status = GetU32(p + 48);
  m.trace_id = GetU32(p + 52);
  h.payload_crc = GetU32(p + 56);
  h.payload_len = GetU32(p + 60);
  if (h.payload_len > kMaxWirePayload) {
    // A length past the bound must not drive an allocation or make a reader
    // buffer gigabytes waiting for a payload that never ends.
    return ProtocolError("payload length " + std::to_string(h.payload_len) +
                         " exceeds wire maximum");
  }
  return h;
}

Result<Message> DecodePayload(WireHeader header, std::vector<uint8_t> payload) {
  if (PayloadCrc(payload) != header.payload_crc) {
    return CorruptionError("payload CRC mismatch");
  }
  header.message.payload = std::move(payload);
  return std::move(header.message);
}

void EncodeTo(const Message& message, std::vector<uint8_t>* out) {
  const size_t base = out->size();
  out->resize(base + kWirePrefixSize);
  EncodeHeader(message, PayloadCrc(message.payload), out->data() + base);
  out->insert(out->end(), message.payload.begin(), message.payload.end());
}

std::vector<uint8_t> Encode(const Message& message) {
  std::vector<uint8_t> out;
  out.reserve(kWirePrefixSize + message.payload.size());
  EncodeTo(message, &out);
  return out;
}

Result<Message> Decode(std::span<const uint8_t> bytes) {
  auto header = DecodeHeader(bytes);
  if (header.status().code() == ErrorCode::kNotFound) {
    return ProtocolError("message shorter than header");
  }
  if (!header.ok()) {
    return header.status();
  }
  if (bytes.size() != kWirePrefixSize + header->payload_len) {
    return ProtocolError("payload length mismatch");
  }
  return DecodePayload(std::move(*header), {bytes.begin() + kWirePrefixSize, bytes.end()});
}

void FrameReader::Feed(std::span<const uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<Message> FrameReader::Next() {
  // A bad prefix fails here, before a byte of its payload is waited for.
  auto header = DecodeHeader(buffer_);
  if (!header.ok()) {
    return header.status();
  }
  const size_t total = kWirePrefixSize + header->payload_len;
  if (buffer_.size() < total) {
    return NotFoundError("incomplete payload");
  }
  const auto end = buffer_.begin() + static_cast<ptrdiff_t>(total);
  std::vector<uint8_t> payload(buffer_.begin() + kWirePrefixSize, end);
  // Consume the frame even when its payload fails the CRC so a corrupt
  // message cannot wedge the stream forever; the caller drops the connection
  // on error.
  buffer_.erase(buffer_.begin(), end);
  return DecodePayload(std::move(*header), std::move(payload));
}

// The Make* constructors name only the fields they set; every other field
// keeps its member default, which -Wmissing-field-initializers cannot see.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

Message MakeAllocRequest(uint64_t request_id, uint64_t pages) {
  return {.type = MessageType::kAllocRequest, .request_id = request_id, .count = pages};
}

Message MakeAllocReply(uint64_t request_id, uint64_t granted, ErrorCode status) {
  return {.type = MessageType::kAllocReply, .request_id = request_id, .count = granted,
          .status = Code(status)};
}

Message MakePageOut(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data) {
  return {.type = MessageType::kPageOut, .request_id = request_id, .slot = slot,
          .payload = {data.begin(), data.end()}};
}

Message MakePageOutAck(uint64_t request_id, uint64_t slot, ErrorCode status, bool advise_stop) {
  return {.type = MessageType::kPageOutAck, .flags = AdviseStop(advise_stop),
          .request_id = request_id, .slot = slot, .status = Code(status)};
}

Message MakePageIn(uint64_t request_id, uint64_t slot) {
  return {.type = MessageType::kPageIn, .request_id = request_id, .slot = slot};
}

Message MakePageInReply(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data,
                        ErrorCode status) {
  return {.type = MessageType::kPageInReply, .request_id = request_id, .slot = slot,
          .status = Code(status), .payload = {data.begin(), data.end()}};
}

Message MakeFreeRequest(uint64_t request_id, uint64_t first_slot, uint64_t pages) {
  return {.type = MessageType::kFreeRequest, .request_id = request_id, .slot = first_slot,
          .count = pages};
}

Message MakeLoadQuery(uint64_t request_id) {
  return {.type = MessageType::kLoadQuery, .request_id = request_id};
}

Message MakeLoadReport(uint64_t request_id, uint64_t free_pages, uint64_t total_pages,
                       bool advise_stop) {
  return {.type = MessageType::kLoadReport, .flags = AdviseStop(advise_stop),
          .request_id = request_id, .count = free_pages, .aux = total_pages};
}

Message MakeHeartbeat(uint64_t request_id) {
  return {.type = MessageType::kHeartbeat, .request_id = request_id};
}

Message MakeHeartbeatAck(uint64_t request_id, uint64_t incarnation, uint64_t free_pages,
                         uint64_t total_pages, bool advise_stop) {
  return {.type = MessageType::kHeartbeatAck, .flags = AdviseStop(advise_stop),
          .request_id = request_id, .slot = incarnation, .count = free_pages,
          .aux = total_pages};
}

Message MakeMigrate(uint64_t request_id, uint64_t slot) {
  return {.type = MessageType::kMigrate, .request_id = request_id, .slot = slot};
}

Message MakeMigrateReply(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data,
                         ErrorCode status) {
  return {.type = MessageType::kMigrateReply, .request_id = request_id, .slot = slot,
          .status = Code(status), .payload = {data.begin(), data.end()}};
}

// The introspection replies carry the server's incarnation in `slot` and the
// JSON document as the payload, its length in `count`.
Message MakeStatsQuery(uint64_t request_id) {
  return {.type = MessageType::kStatsQuery, .request_id = request_id};
}

Message MakeStatsReply(uint64_t request_id, uint64_t incarnation, std::string_view json) {
  return {.type = MessageType::kStatsReply, .request_id = request_id, .slot = incarnation,
          .count = json.size(), .payload = {json.begin(), json.end()}};
}

Message MakeTraceDump(uint64_t request_id, uint64_t document) {
  return {.type = MessageType::kTraceDump, .request_id = request_id, .slot = document};
}

Message MakeTraceDumpReply(uint64_t request_id, uint64_t incarnation, std::string_view json) {
  return {.type = MessageType::kTraceDumpReply, .request_id = request_id, .slot = incarnation,
          .count = json.size(), .payload = {json.begin(), json.end()}};
}

Message MakeEventsQuery(uint64_t request_id, uint64_t min_seq) {
  return {.type = MessageType::kEventsQuery, .request_id = request_id, .slot = min_seq};
}

Message MakeEventsReply(uint64_t request_id, uint64_t incarnation, uint64_t next_seq,
                        std::string_view json) {
  return {.type = MessageType::kEventsReply, .request_id = request_id, .slot = incarnation,
          .count = next_seq, .payload = {json.begin(), json.end()}};
}

Message MakeMapQuery(uint64_t request_id) {
  return {.type = MessageType::kMapQuery, .request_id = request_id};
}

Message MakeMapReply(uint64_t request_id, uint64_t epoch, std::span<const uint8_t> map_bytes,
                     ErrorCode status) {
  return {.type = MessageType::kMapReply, .request_id = request_id, .count = map_bytes.size(),
          .epoch = epoch, .status = Code(status),
          .payload = {map_bytes.begin(), map_bytes.end()}};
}

Message MakeMapPublish(uint64_t request_id, uint64_t epoch, std::span<const uint8_t> map_bytes) {
  return {.type = MessageType::kMapPublish, .request_id = request_id, .count = map_bytes.size(),
          .epoch = epoch, .payload = {map_bytes.begin(), map_bytes.end()}};
}

Message MakeMapPublishAck(uint64_t request_id, uint64_t epoch, ErrorCode status) {
  return {.type = MessageType::kMapPublishAck, .request_id = request_id, .epoch = epoch,
          .status = Code(status)};
}

std::string_view IntrospectionJson(const Message& message) {
  return std::string_view(reinterpret_cast<const char*>(message.payload.data()),
                          message.payload.size());
}

Message MakeShutdown(uint64_t request_id) {
  return {.type = MessageType::kShutdown, .request_id = request_id};
}

Message MakeErrorReply(uint64_t request_id, ErrorCode status) {
  return {.type = MessageType::kErrorReply, .request_id = request_id, .status = Code(status)};
}

Message MakeAuth(uint64_t request_id, std::string_view token, uint16_t tenant) {
  return {.type = MessageType::kAuth, .tenant = tenant, .request_id = request_id,
          .payload = {token.begin(), token.end()}};
}

Message MakeAuthReply(uint64_t request_id, ErrorCode status) {
  return {.type = MessageType::kAuthReply, .request_id = request_id, .status = Code(status)};
}

Message MakePageOutBatch(uint64_t request_id, std::span<const uint64_t> slots,
                         std::span<const uint8_t> pages) {
  assert(!slots.empty() && slots.size() <= kMaxBatchPages);
  assert(pages.size() == slots.size() * kPageSize);
  Message m;
  m.type = MessageType::kPageOutBatch;
  m.request_id = request_id;
  m.slot = slots[0];  // Worker dispatch affinity.
  m.count = slots.size();
  m.payload.resize(slots.size() * 8 + pages.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    StoreU64(m.payload.data() + i * 8, slots[i]);
  }
  std::memcpy(m.payload.data() + slots.size() * 8, pages.data(), pages.size());
  return m;
}

Message MakePageOutBatchAck(uint64_t request_id, uint64_t stored, ErrorCode status,
                            bool advise_stop) {
  return {.type = MessageType::kPageOutBatchAck, .flags = AdviseStop(advise_stop),
          .request_id = request_id, .count = stored, .status = Code(status)};
}

Message MakePageInBatch(uint64_t request_id, std::span<const uint64_t> slots) {
  assert(!slots.empty() && slots.size() <= kMaxBatchPages);
  Message m;
  m.type = MessageType::kPageInBatch;
  m.request_id = request_id;
  m.slot = slots[0];  // Worker dispatch affinity.
  m.count = slots.size();
  m.payload.resize(slots.size() * 8);
  for (size_t i = 0; i < slots.size(); ++i) {
    StoreU64(m.payload.data() + i * 8, slots[i]);
  }
  return m;
}

Message MakePageInBatchReply(uint64_t request_id, std::span<const uint8_t> pages,
                             ErrorCode status) {
  assert(pages.size() % kPageSize == 0);
  return {.type = MessageType::kPageInBatchReply, .request_id = request_id,
          .count = pages.size() / kPageSize, .status = Code(status),
          .payload = {pages.begin(), pages.end()}};
}

#pragma GCC diagnostic pop

Result<size_t> ValidateBatch(const Message& message) {
  const size_t count = message.count;
  switch (message.type) {
    case MessageType::kPageOutBatch:
      if (count == 0 || count > kMaxBatchPages) {
        return ProtocolError("batch count out of range");
      }
      if (message.payload.size() != count * (8 + kPageSize)) {
        return ProtocolError("pageout batch payload size mismatch");
      }
      return count;
    case MessageType::kPageInBatch:
      if (count == 0 || count > kMaxBatchPages) {
        return ProtocolError("batch count out of range");
      }
      if (message.payload.size() != count * 8) {
        return ProtocolError("pagein batch payload size mismatch");
      }
      return count;
    case MessageType::kPageInBatchReply:
      if (message.status_code() != ErrorCode::kOk) {
        if (!message.payload.empty()) {
          return ProtocolError("failed batch reply carries payload");
        }
        return count;
      }
      if (count == 0 || count > kMaxBatchPages) {
        return ProtocolError("batch count out of range");
      }
      if (message.payload.size() != count * kPageSize) {
        return ProtocolError("pagein batch reply payload size mismatch");
      }
      return count;
    case MessageType::kPageOutBatchAck:
      if (!message.payload.empty()) {
        return ProtocolError("batch ack carries payload");
      }
      return count;
    default:
      return ProtocolError("not a batch message");
  }
}

uint64_t BatchSlot(const Message& message, size_t i) {
  assert(message.type == MessageType::kPageOutBatch || message.type == MessageType::kPageInBatch);
  assert(i < message.count);
  return GetU64(message.payload.data() + i * 8);
}

std::span<const uint8_t> BatchPage(const Message& message, size_t i) {
  assert(message.type == MessageType::kPageOutBatch ||
         message.type == MessageType::kPageInBatchReply);
  assert(i < message.count);
  const size_t base =
      message.type == MessageType::kPageOutBatch ? static_cast<size_t>(message.count) * 8 : 0;
  return std::span<const uint8_t>(message.payload.data() + base + i * kPageSize, kPageSize);
}

}  // namespace rmp
