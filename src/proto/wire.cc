#include "src/proto/wire.h"

#include <cassert>
#include <cstring>

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

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(MessageType::kAllocRequest) &&
         t <= static_cast<uint8_t>(MessageType::kEventsReply);
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kAllocRequest:
      return "ALLOC_REQUEST";
    case MessageType::kAllocReply:
      return "ALLOC_REPLY";
    case MessageType::kFreeRequest:
      return "FREE_REQUEST";
    case MessageType::kFreeReply:
      return "FREE_REPLY";
    case MessageType::kPageOut:
      return "PAGEOUT";
    case MessageType::kPageOutAck:
      return "PAGEOUT_ACK";
    case MessageType::kPageIn:
      return "PAGEIN";
    case MessageType::kPageInReply:
      return "PAGEIN_REPLY";
    case MessageType::kLoadQuery:
      return "LOAD_QUERY";
    case MessageType::kLoadReport:
      return "LOAD_REPORT";
    case MessageType::kShutdown:
      return "SHUTDOWN";
    case MessageType::kErrorReply:
      return "ERROR_REPLY";
    case MessageType::kDeltaPageOut:
      return "DELTA_PAGEOUT";
    case MessageType::kXorMerge:
      return "XOR_MERGE";
    case MessageType::kXorMergeAck:
      return "XOR_MERGE_ACK";
    case MessageType::kAuth:
      return "AUTH";
    case MessageType::kAuthReply:
      return "AUTH_REPLY";
    case MessageType::kPageOutBatch:
      return "PAGEOUT_BATCH";
    case MessageType::kPageOutBatchAck:
      return "PAGEOUT_BATCH_ACK";
    case MessageType::kPageInBatch:
      return "PAGEIN_BATCH";
    case MessageType::kPageInBatchReply:
      return "PAGEIN_BATCH_REPLY";
    case MessageType::kHeartbeat:
      return "HEARTBEAT";
    case MessageType::kHeartbeatAck:
      return "HEARTBEAT_ACK";
    case MessageType::kMigrate:
      return "MIGRATE";
    case MessageType::kMigrateReply:
      return "MIGRATE_REPLY";
    case MessageType::kStatsQuery:
      return "STATS_QUERY";
    case MessageType::kStatsReply:
      return "STATS_REPLY";
    case MessageType::kTraceDump:
      return "TRACE_DUMP";
    case MessageType::kTraceDumpReply:
      return "TRACE_DUMP_REPLY";
    case MessageType::kMapQuery:
      return "MAP_QUERY";
    case MessageType::kMapReply:
      return "MAP_REPLY";
    case MessageType::kMapPublish:
      return "MAP_PUBLISH";
    case MessageType::kMapPublishAck:
      return "MAP_PUBLISH_ACK";
    case MessageType::kEventsQuery:
      return "EVENTS_QUERY";
    case MessageType::kEventsReply:
      return "EVENTS_REPLY";
  }
  return "UNKNOWN";
}

bool Message::operator==(const Message& other) const {
  return type == other.type && flags == other.flags && tenant == other.tenant &&
         request_id == other.request_id &&
         slot == other.slot && count == other.count && aux == other.aux &&
         status == other.status && payload == other.payload;
}

uint32_t PayloadCrc(std::span<const uint8_t> payload) {
  return Crc32c(payload);
}

void EncodeHeader(const Message& message, uint32_t payload_crc, uint8_t* out) {
  static_assert(kWireHeaderSize == 48, "layout audit");
  StoreU32(out, kWireMagic);
  out[4] = static_cast<uint8_t>(message.type);
  out[5] = message.flags;
  StoreU16(out + 6, message.tenant);  // Was reserved-zero pre-§15; tenant 0
                                      // keeps the encoding byte-identical.
  StoreU64(out + 8, message.request_id);
  StoreU64(out + 16, message.slot);
  StoreU64(out + 24, message.count);
  StoreU64(out + 32, message.aux);
  StoreU32(out + 40, message.status);
  StoreU32(out + 44, payload_crc);
  StoreU32(out + 48, static_cast<uint32_t>(message.payload.size()));
}

Result<WireHeader> DecodeHeader(std::span<const uint8_t> prefix) {
  if (prefix.size() < kWirePrefixSize) {
    return ProtocolError("message shorter than header");
  }
  const uint8_t* p = prefix.data();
  if (GetU32(p) != kWireMagic) {
    return ProtocolError("bad magic");
  }
  const uint8_t raw_type = p[4];
  if (!ValidType(raw_type)) {
    return ProtocolError("unknown message type " + std::to_string(raw_type));
  }
  const uint16_t tenant = GetU16(p + 6);
  if (tenant > kMaxTenantId) {
    // Bound the id space before any per-tenant state exists: a flipped bit in
    // the old reserved field must not conjure 65k metric/queue series.
    return ProtocolError("tenant id " + std::to_string(tenant) + " exceeds wire maximum");
  }
  WireHeader h;
  h.type = static_cast<MessageType>(raw_type);
  h.flags = p[5];
  h.tenant = tenant;
  h.request_id = GetU64(p + 8);
  h.slot = GetU64(p + 16);
  h.count = GetU64(p + 24);
  h.aux = GetU64(p + 32);
  h.status = GetU32(p + 40);
  h.payload_crc = GetU32(p + 44);
  h.payload_len = GetU32(p + 48);
  if (h.payload_len > kMaxWirePayload) {
    return ProtocolError("payload length " + std::to_string(h.payload_len) +
                         " exceeds wire maximum");
  }
  return h;
}

Message MessageFromHeader(const WireHeader& header) {
  Message m;
  m.type = header.type;
  m.flags = header.flags;
  m.tenant = header.tenant;
  m.request_id = header.request_id;
  m.slot = header.slot;
  m.count = header.count;
  m.aux = header.aux;
  m.status = header.status;
  return m;
}

void EncodeTo(const Message& message, std::vector<uint8_t>* out) {
  const size_t base = out->size();
  out->resize(base + kWirePrefixSize);
  EncodeHeader(message, PayloadCrc(std::span<const uint8_t>(message.payload)),
               out->data() + base);
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
  if (!header.ok()) {
    return header.status();
  }
  if (bytes.size() != kWirePrefixSize + header->payload_len) {
    return ProtocolError("payload length mismatch");
  }
  Message m = MessageFromHeader(*header);
  m.payload.assign(bytes.begin() + kWirePrefixSize, bytes.end());
  if (PayloadCrc(std::span<const uint8_t>(m.payload)) != header->payload_crc) {
    return CorruptionError("payload CRC mismatch");
  }
  return m;
}

void FrameReader::Feed(std::span<const uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<Message> FrameReader::Next() {
  if (buffer_.size() < kWirePrefixSize) {
    return NotFoundError("incomplete header");
  }
  if (GetU32(buffer_.data()) != kWireMagic) {
    return ProtocolError("stream desynchronized: bad magic");
  }
  const uint32_t payload_len = GetU32(buffer_.data() + kWireHeaderSize);
  if (payload_len > kMaxWirePayload) {
    // Reject the hostile length as soon as the prefix is in: waiting for
    // payload_len more bytes would let a corrupt frame demand gigabytes of
    // buffering before DecodeHeader ever saw it.
    return ProtocolError("payload length " + std::to_string(payload_len) +
                         " exceeds wire limit");
  }
  const size_t total = kWirePrefixSize + payload_len;
  if (buffer_.size() < total) {
    return NotFoundError("incomplete payload");
  }
  auto result = Decode(std::span<const uint8_t>(buffer_.data(), total));
  // Consume the frame even on decode failure so a corrupt message cannot
  // wedge the stream forever; the caller drops the connection on error.
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(total));
  return result;
}

Message MakeAllocRequest(uint64_t request_id, uint64_t pages) {
  Message m;
  m.type = MessageType::kAllocRequest;
  m.request_id = request_id;
  m.count = pages;
  return m;
}

Message MakeAllocReply(uint64_t request_id, uint64_t granted, ErrorCode status) {
  Message m;
  m.type = MessageType::kAllocReply;
  m.request_id = request_id;
  m.count = granted;
  m.status = static_cast<uint32_t>(status);
  return m;
}

Message MakePageOut(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data) {
  Message m;
  m.type = MessageType::kPageOut;
  m.request_id = request_id;
  m.slot = slot;
  m.payload.assign(data.begin(), data.end());
  return m;
}

Message MakePageOutAck(uint64_t request_id, uint64_t slot, ErrorCode status, bool advise_stop) {
  Message m;
  m.type = MessageType::kPageOutAck;
  m.request_id = request_id;
  m.slot = slot;
  m.status = static_cast<uint32_t>(status);
  if (advise_stop) {
    m.flags |= kFlagAdviseStop;
  }
  return m;
}

Message MakePageIn(uint64_t request_id, uint64_t slot) {
  Message m;
  m.type = MessageType::kPageIn;
  m.request_id = request_id;
  m.slot = slot;
  return m;
}

Message MakePageInReply(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data,
                        ErrorCode status) {
  Message m;
  m.type = MessageType::kPageInReply;
  m.request_id = request_id;
  m.slot = slot;
  m.status = static_cast<uint32_t>(status);
  m.payload.assign(data.begin(), data.end());
  return m;
}

Message MakeFreeRequest(uint64_t request_id, uint64_t first_slot, uint64_t pages) {
  Message m;
  m.type = MessageType::kFreeRequest;
  m.request_id = request_id;
  m.slot = first_slot;
  m.count = pages;
  return m;
}

Message MakeLoadQuery(uint64_t request_id) {
  Message m;
  m.type = MessageType::kLoadQuery;
  m.request_id = request_id;
  return m;
}

Message MakeLoadReport(uint64_t request_id, uint64_t free_pages, uint64_t total_pages,
                       bool advise_stop) {
  Message m;
  m.type = MessageType::kLoadReport;
  m.request_id = request_id;
  m.count = free_pages;
  m.aux = total_pages;
  if (advise_stop) {
    m.flags |= kFlagAdviseStop;
  }
  return m;
}

Message MakeHeartbeat(uint64_t request_id) {
  Message m;
  m.type = MessageType::kHeartbeat;
  m.request_id = request_id;
  return m;
}

Message MakeHeartbeatAck(uint64_t request_id, uint64_t incarnation, uint64_t free_pages,
                         uint64_t total_pages, bool advise_stop) {
  Message m;
  m.type = MessageType::kHeartbeatAck;
  m.request_id = request_id;
  m.slot = incarnation;
  m.count = free_pages;
  m.aux = total_pages;
  if (advise_stop) {
    m.flags |= kFlagAdviseStop;
  }
  return m;
}

Message MakeMigrate(uint64_t request_id, uint64_t slot) {
  Message m;
  m.type = MessageType::kMigrate;
  m.request_id = request_id;
  m.slot = slot;
  return m;
}

Message MakeMigrateReply(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data,
                         ErrorCode status) {
  Message m;
  m.type = MessageType::kMigrateReply;
  m.request_id = request_id;
  m.slot = slot;
  m.status = static_cast<uint32_t>(status);
  m.payload.assign(data.begin(), data.end());
  return m;
}

namespace {

Message MakeIntrospectionReply(MessageType type, uint64_t request_id, uint64_t incarnation,
                               std::string_view json) {
  Message m;
  m.type = type;
  m.request_id = request_id;
  m.slot = incarnation;
  m.count = json.size();
  m.payload.assign(json.begin(), json.end());
  return m;
}

}  // namespace

Message MakeStatsQuery(uint64_t request_id) {
  Message m;
  m.type = MessageType::kStatsQuery;
  m.request_id = request_id;
  return m;
}

Message MakeStatsReply(uint64_t request_id, uint64_t incarnation, std::string_view json) {
  return MakeIntrospectionReply(MessageType::kStatsReply, request_id, incarnation, json);
}

Message MakeTraceDump(uint64_t request_id, uint64_t document) {
  Message m;
  m.type = MessageType::kTraceDump;
  m.request_id = request_id;
  m.slot = document;
  return m;
}

Message MakeTraceDumpReply(uint64_t request_id, uint64_t incarnation, std::string_view json) {
  return MakeIntrospectionReply(MessageType::kTraceDumpReply, request_id, incarnation, json);
}

Message MakeEventsQuery(uint64_t request_id, uint64_t min_seq) {
  Message m;
  m.type = MessageType::kEventsQuery;
  m.request_id = request_id;
  m.slot = min_seq;
  return m;
}

Message MakeEventsReply(uint64_t request_id, uint64_t incarnation, uint64_t next_seq,
                        std::string_view json) {
  Message m = MakeIntrospectionReply(MessageType::kEventsReply, request_id, incarnation, json);
  m.count = next_seq;
  return m;
}

void StampTraceId(Message* request, uint32_t trace_id) {
  if (trace_id == 0) {
    request->flags &= static_cast<uint8_t>(~kFlagTraced);
    request->status = 0;
    return;
  }
  request->flags |= kFlagTraced;
  request->status = trace_id;
}

Message MakeMapQuery(uint64_t request_id) {
  Message m;
  m.type = MessageType::kMapQuery;
  m.request_id = request_id;
  return m;
}

Message MakeMapReply(uint64_t request_id, uint64_t epoch, std::span<const uint8_t> map_bytes,
                     ErrorCode status) {
  Message m;
  m.type = MessageType::kMapReply;
  m.request_id = request_id;
  m.slot = epoch;
  m.count = map_bytes.size();
  m.status = static_cast<uint32_t>(status);
  m.payload.assign(map_bytes.begin(), map_bytes.end());
  return m;
}

Message MakeMapPublish(uint64_t request_id, uint64_t epoch, std::span<const uint8_t> map_bytes) {
  Message m;
  m.type = MessageType::kMapPublish;
  m.request_id = request_id;
  m.slot = epoch;
  m.count = map_bytes.size();
  m.payload.assign(map_bytes.begin(), map_bytes.end());
  return m;
}

Message MakeMapPublishAck(uint64_t request_id, uint64_t epoch, ErrorCode status) {
  Message m;
  m.type = MessageType::kMapPublishAck;
  m.request_id = request_id;
  m.slot = epoch;
  m.status = static_cast<uint32_t>(status);
  return m;
}

std::string_view IntrospectionJson(const Message& message) {
  return std::string_view(reinterpret_cast<const char*>(message.payload.data()),
                         message.payload.size());
}

Message MakeShutdown(uint64_t request_id) {
  Message m;
  m.type = MessageType::kShutdown;
  m.request_id = request_id;
  return m;
}

Message MakeErrorReply(uint64_t request_id, ErrorCode status) {
  Message m;
  m.type = MessageType::kErrorReply;
  m.request_id = request_id;
  m.status = static_cast<uint32_t>(status);
  return m;
}

Message MakeAuth(uint64_t request_id, std::string_view token, uint16_t tenant) {
  Message m;
  m.type = MessageType::kAuth;
  m.tenant = tenant;
  m.request_id = request_id;
  m.payload.assign(token.begin(), token.end());
  return m;
}

Message MakeAuthReply(uint64_t request_id, ErrorCode status) {
  Message m;
  m.type = MessageType::kAuthReply;
  m.request_id = request_id;
  m.status = static_cast<uint32_t>(status);
  return m;
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
  Message m;
  m.type = MessageType::kPageOutBatchAck;
  m.request_id = request_id;
  m.count = stored;
  m.status = static_cast<uint32_t>(status);
  if (advise_stop) {
    m.flags |= kFlagAdviseStop;
  }
  return m;
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
  Message m;
  m.type = MessageType::kPageInBatchReply;
  m.request_id = request_id;
  m.count = pages.size() / kPageSize;
  m.status = static_cast<uint32_t>(status);
  m.payload.assign(pages.begin(), pages.end());
  return m;
}

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
