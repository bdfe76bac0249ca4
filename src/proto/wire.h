// Wire protocol between the Remote Memory Pager client and memory servers.
//
// The paper's pager speaks a small request/reply protocol over TCP sockets
// (§3.1-3.2): swap-space allocation and release, pageout, pagein, and
// periodic memory-load reports that let the client notice an overloaded
// server and migrate pages away. This module defines those messages and a
// compact little-endian binary encoding with CRC-guarded payloads.
//
// Layout (all integers little-endian):
//   magic      u32   'RMP1'
//   type       u8
//   flags      u8    (bit 0: ADVISE_STOP piggyback)
//   tenant_id  u16   0 = legacy/untenanted (the field was reserved-zero
//                    before DESIGN.md §15, so old frames decode unchanged)
//   request_id u64   client-chosen; echoed in the reply
//   slot       u64   server swap slot (pageout/pagein)
//   count      u64   page count (alloc/free) or free-pages (load report)
//   aux        u64   total pages (load report) / error detail
//   status     u32   rmp::ErrorCode of a reply. On a *request* the field was
//                    reserved-zero; a request with the TRACED flag set
//                    repurposes it as the trace id (DESIGN.md §17), the same
//                    precedent tenant_id set for the reserved u16. Requests
//                    without the flag leave it zero, so legacy frames decode
//                    unchanged.
//   payload_crc u32  CRC-32C of payload (0 when empty; header not covered)
//   payload_len u32
//   payload    payload_len bytes

#ifndef SRC_PROTO_WIRE_H_
#define SRC_PROTO_WIRE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace rmp {

enum class MessageType : uint8_t {
  kAllocRequest = 1,   // count = pages wanted.
  kAllocReply = 2,     // count = pages granted (0 + status=NO_SPACE on denial).
  kFreeRequest = 3,    // slot = first slot, count = pages.
  kFreeReply = 4,
  kPageOut = 5,        // slot + payload.
  kPageOutAck = 6,     // slot echoed; flags may carry ADVISE_STOP.
  kPageIn = 7,         // slot.
  kPageInReply = 8,    // slot + payload (or status != OK).
  kLoadQuery = 9,
  kLoadReport = 10,    // count = free pages, aux = total pages.
  kShutdown = 11,
  kErrorReply = 12,    // Catch-all failure reply; status holds the code.
  // Storage primitives used by the basic (in-place) parity scheme, where the
  // paper has the data server compute old^new and the parity server fold a
  // delta into the stored parity (§2.2 "Parity").
  kDeltaPageOut = 13,  // Store payload at slot; reply carries old XOR new.
  kXorMerge = 14,      // stored[slot] ^= payload (slot auto-created as zero).
  kXorMergeAck = 15,
  // Connection authentication: the paper restricts access to the superuser
  // via privileged ports (§3.1); the modern equivalent is a shared secret
  // presented as the first message of a session. Payload = token bytes.
  kAuth = 16,
  kAuthReply = 17,
  // Vectored data-plane operations: one frame moves up to kMaxBatchPages
  // (slot, page) pairs, amortizing the fixed per-message overhead (header,
  // CRC, syscall, round trip) that the paper's one-page-per-message protocol
  // pays in full. Batch payload layout (all little-endian):
  //   kPageOutBatch:     count u64 slots, then count pages of kPageSize.
  //   kPageOutBatchAck:  count = pages stored; on error status != OK and
  //                      aux = index of the first failing entry.
  //   kPageInBatch:      count u64 slots.
  //   kPageInBatchReply: count pages in request order; on error status != OK,
  //                      aux = failing index, and the payload is empty.
  // The header `slot` field of a batch carries the first slot (used for
  // worker dispatch affinity only); `count` carries the entry count.
  kPageOutBatch = 18,
  kPageOutBatchAck = 19,
  kPageInBatch = 20,
  kPageInBatchReply = 21,
  // Self-healing control plane (DESIGN.md §11). HEARTBEAT is a lightweight
  // liveness probe the HealthMonitor sends on a fixed period; the ack carries
  // the same load report as kLoadReport (count = free pages, aux low 32 bits
  // unused) plus the server's *incarnation* in `slot` — a counter bumped on
  // every restart, so the client can tell a rebooted-empty server (rebuild
  // its pages) from a healed network partition (re-admit, pages intact).
  // ADVISE_STOP piggybacks on the ack flags like it does on pageout acks.
  kHeartbeat = 22,
  kHeartbeatAck = 23,  // slot = incarnation, count = free pages, aux = total.
  // MIGRATE reads a page and frees its slot in one round trip: the read half
  // of the §2.1 drain path costs one protocol crossing instead of a PAGEIN
  // followed by a FREE_REQUEST.
  kMigrate = 24,       // slot.
  kMigrateReply = 25,  // slot + payload; the slot is freed server-side on OK.
  // Live introspection (DESIGN.md §12): STATS pulls the server's metrics
  // registry as a JSON snapshot, TRACE_DUMP its trace ring. Both replies
  // carry the JSON document as the payload; `count` is the document length
  // and `slot` the server's incarnation, so a client can tell which life of
  // the server the numbers describe.
  kStatsQuery = 26,
  kStatsReply = 27,
  kTraceDump = 28,
  kTraceDumpReply = 29,
  // Elastic membership (DESIGN.md §16): the cluster map — epoch, member list
  // with incarnations, consistent-hash ring parameters — travels as a
  // serialized payload (see src/proto/cluster_map.h for the layout, bounds,
  // and the fail-closed decoder). MAP_QUERY pulls a server's current map;
  // MAP_PUBLISH installs a newer one (servers accept only epoch >= their
  // own). Both replies carry the epoch in `slot` so a stale client can
  // learn how far behind it is without parsing the payload.
  kMapQuery = 30,
  kMapReply = 31,       // slot = epoch, count = payload size, payload = map.
  kMapPublish = 32,     // slot = epoch, payload = serialized map.
  kMapPublishAck = 33,  // slot = epoch now in force at the server.
  // Flight recorder (DESIGN.md §17): EVENTS_QUERY pulls the server's
  // structured event journal — health transitions, epoch adoptions,
  // STALE_EPOCH refusals, tenant sheds — as a JSON array. The request `slot`
  // is the minimum sequence number wanted (0 = everything still in the
  // ring); the reply carries `slot` = incarnation and `count` = the journal's
  // next sequence number, so a poller can resume from where it left off.
  kEventsQuery = 34,
  kEventsReply = 35,
};

std::string_view MessageTypeName(MessageType type);

// Flag bits.
inline constexpr uint8_t kFlagAdviseStop = 0x1;  // "send no more pages here" (§2.1).
// Request carries a trace id in its `status` field (DESIGN.md §17). Only
// ever set on requests; replies keep `status` as the error code.
inline constexpr uint8_t kFlagTraced = 0x2;

struct Message {
  MessageType type = MessageType::kErrorReply;
  uint8_t flags = 0;
  // Tenant identity carried by every frame (DESIGN.md §15). 0 is the legacy
  // untenanted id: it encodes to the bytes the old reserved field held, so a
  // tenant-unaware peer is wire-compatible. Nonzero ids are bound to a
  // session at AUTH time and validated against server quotas.
  uint16_t tenant = 0;
  uint64_t request_id = 0;
  uint64_t slot = 0;
  uint64_t count = 0;
  uint64_t aux = 0;
  uint32_t status = 0;  // static_cast<uint32_t>(ErrorCode).
  std::vector<uint8_t> payload;

  bool advise_stop() const { return (flags & kFlagAdviseStop) != 0; }
  ErrorCode status_code() const { return static_cast<ErrorCode>(status); }
  // Trace id of a request frame; 0 = untraced (legacy frames and sampled-out
  // requests). Meaningless on replies.
  uint32_t trace_id() const { return (flags & kFlagTraced) != 0 ? status : 0; }

  bool operator==(const Message& other) const;
};

// Size of the fixed header in bytes.
inline constexpr size_t kWireHeaderSize = 48;
// The full fixed-size frame prefix: header plus the payload_len field. A
// receiver that reads exactly this many bytes knows the exact payload size
// and can recv the payload directly into its destination buffer.
inline constexpr size_t kWirePrefixSize = kWireHeaderSize + 4;
inline constexpr uint32_t kWireMagic = 0x31504d52;  // "RMP1".
// Most (slot, page) pairs one batch frame may carry — one alloc extent's
// worth of 8 KB pages (see RemotePagerParams::alloc_extent_pages).
inline constexpr uint32_t kMaxBatchPages = 256;
// Upper bound on payload_len accepted from the wire; a corrupt length field
// must not drive an unbounded allocation. Sized for a full batch frame
// (kMaxBatchPages x (8-byte slot + 8 KB page) is just over 2 MB).
inline constexpr uint32_t kMaxWirePayload = 4u << 20;
// Largest tenant id accepted from the wire. The field is a u16, but per-tenant
// state (quota buckets, scheduler queues, metric series) is allocated per
// observed id, so a hostile frame must not be able to demand 65k series; the
// decoder rejects ids above this bound outright. 0 stays the legacy id.
inline constexpr uint16_t kMaxTenantId = 1024;

// The decoded fixed-size frame prefix. Splitting the prefix from the payload
// lets the transport frame messages without coalescing header and payload
// into one temporary buffer (writev on send, two exact reads on receive).
struct WireHeader {
  MessageType type = MessageType::kErrorReply;
  uint8_t flags = 0;
  uint16_t tenant = 0;
  uint64_t request_id = 0;
  uint64_t slot = 0;
  uint64_t count = 0;
  uint64_t aux = 0;
  uint32_t status = 0;
  uint32_t payload_crc = 0;
  uint32_t payload_len = 0;
};

// Writes the frame prefix for `message` (whose payload CRC is `payload_crc`)
// into `out`, which must hold kWirePrefixSize bytes.
void EncodeHeader(const Message& message, uint32_t payload_crc, uint8_t* out);

// Parses and validates a frame prefix (magic, type, tenant bound, payload
// bound). `prefix` must hold at least kWirePrefixSize bytes.
Result<WireHeader> DecodeHeader(std::span<const uint8_t> prefix);

// Expands header fields into a Message with an empty payload.
Message MessageFromHeader(const WireHeader& header);

// The CRC as computed for the wire: CRC-32C of the payload, 0 when empty.
uint32_t PayloadCrc(std::span<const uint8_t> payload);

// Serializes `message`, computing the payload CRC.
std::vector<uint8_t> Encode(const Message& message);

// Appends the encoding to `out` (avoids an allocation per message on the
// socket send path).
void EncodeTo(const Message& message, std::vector<uint8_t>* out);

// Decodes one complete message from `bytes` (which must contain exactly one
// message). Verifies magic and payload CRC.
Result<Message> Decode(std::span<const uint8_t> bytes);

// Incremental decoder for a TCP byte stream: feed arbitrary chunks, pop
// complete messages as they form.
class FrameReader {
 public:
  // Appends raw bytes from the socket.
  void Feed(std::span<const uint8_t> bytes);

  // Extracts the next complete message, if any. Returns:
  //   Result with a message  — one message consumed from the buffer,
  //   NotFoundError          — need more bytes,
  //   ProtocolError/Corruption — stream is broken (caller should drop it).
  Result<Message> Next();

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

// Convenience constructors for the common messages.
Message MakeAllocRequest(uint64_t request_id, uint64_t pages);
Message MakeAllocReply(uint64_t request_id, uint64_t granted, ErrorCode status);
Message MakePageOut(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data);
Message MakePageOutAck(uint64_t request_id, uint64_t slot, ErrorCode status, bool advise_stop);
Message MakePageIn(uint64_t request_id, uint64_t slot);
Message MakePageInReply(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data,
                        ErrorCode status);
Message MakeFreeRequest(uint64_t request_id, uint64_t first_slot, uint64_t pages);
Message MakeLoadQuery(uint64_t request_id);
Message MakeLoadReport(uint64_t request_id, uint64_t free_pages, uint64_t total_pages,
                       bool advise_stop);
Message MakeShutdown(uint64_t request_id);
Message MakeErrorReply(uint64_t request_id, ErrorCode status);
// `tenant` binds the session to a tenant id server-side (DESIGN.md §15);
// 0 preserves the legacy untenanted handshake byte-for-byte.
Message MakeAuth(uint64_t request_id, std::string_view token, uint16_t tenant = 0);
Message MakeAuthReply(uint64_t request_id, ErrorCode status);
Message MakeHeartbeat(uint64_t request_id);
Message MakeHeartbeatAck(uint64_t request_id, uint64_t incarnation, uint64_t free_pages,
                         uint64_t total_pages, bool advise_stop);
Message MakeMigrate(uint64_t request_id, uint64_t slot);
Message MakeMigrateReply(uint64_t request_id, uint64_t slot, std::span<const uint8_t> data,
                         ErrorCode status);
Message MakeStatsQuery(uint64_t request_id);
Message MakeStatsReply(uint64_t request_id, uint64_t incarnation, std::string_view json);
// `document` selects what TRACE_DUMP returns (travels in the request `slot`):
// 0 = the attached tracer's trace ring (the original PR 5 behaviour),
// 1 = the server's own span ring (DESIGN.md §17), for client-side stitching.
Message MakeTraceDump(uint64_t request_id, uint64_t document = 0);
Message MakeTraceDumpReply(uint64_t request_id, uint64_t incarnation, std::string_view json);
Message MakeEventsQuery(uint64_t request_id, uint64_t min_seq = 0);
Message MakeEventsReply(uint64_t request_id, uint64_t incarnation, uint64_t next_seq,
                        std::string_view json);

// Stamps `trace_id` onto a request frame (sets kFlagTraced and the status
// field); 0 clears both. Never call on replies.
void StampTraceId(Message* request, uint32_t trace_id);
// Cluster-map distribution (DESIGN.md §16). `map_bytes` is a serialized
// ClusterMap (src/proto/cluster_map.h); `epoch` duplicates the map's epoch in
// the header so receivers can order frames without decoding the payload.
Message MakeMapQuery(uint64_t request_id);
Message MakeMapReply(uint64_t request_id, uint64_t epoch, std::span<const uint8_t> map_bytes,
                     ErrorCode status);
Message MakeMapPublish(uint64_t request_id, uint64_t epoch, std::span<const uint8_t> map_bytes);
Message MakeMapPublishAck(uint64_t request_id, uint64_t epoch, ErrorCode status);

// The JSON document carried by a kStatsReply / kTraceDumpReply /
// kEventsReply payload.
std::string_view IntrospectionJson(const Message& message);

// Batched data-plane messages. `pages` is the concatenation of
// slots.size() pages of exactly kPageSize bytes each.
Message MakePageOutBatch(uint64_t request_id, std::span<const uint64_t> slots,
                         std::span<const uint8_t> pages);
Message MakePageOutBatchAck(uint64_t request_id, uint64_t stored, ErrorCode status,
                            bool advise_stop);
Message MakePageInBatch(uint64_t request_id, std::span<const uint64_t> slots);
Message MakePageInBatchReply(uint64_t request_id, std::span<const uint8_t> pages,
                             ErrorCode status);

// Validates a batch message's count/payload-size consistency (count within
// [1, kMaxBatchPages], payload exactly the declared layout) and returns the
// entry count. ProtocolError on malformed frames.
Result<size_t> ValidateBatch(const Message& message);

// Slot i of a validated kPageOutBatch / kPageInBatch payload.
uint64_t BatchSlot(const Message& message, size_t i);

// Page i of a validated kPageOutBatch or kPageInBatchReply payload.
std::span<const uint8_t> BatchPage(const Message& message, size_t i);

}  // namespace rmp

#endif  // SRC_PROTO_WIRE_H_
