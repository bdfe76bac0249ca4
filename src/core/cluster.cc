#include "src/core/cluster.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"
#include "src/util/units.h"

namespace rmp {
namespace {

// Request types that carry the client's map epoch (DESIGN.md §16) — the ops
// the server's epoch gate examines. Control traffic stays unstamped so it
// keeps flowing while a client is mid-refresh.
bool EpochStamped(MessageType type) {
  switch (type) {
    case MessageType::kAllocRequest:
    case MessageType::kFreeRequest:
    case MessageType::kPageOut:
    case MessageType::kPageIn:
    case MessageType::kPageOutBatch:
    case MessageType::kPageInBatch:
    case MessageType::kDeltaPageOut:
    case MessageType::kXorMerge:
    case MessageType::kMigrate:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<uint64_t> ServerPeer::TakeSlot() {
  if (!returned_.empty()) {
    const uint64_t slot = returned_.back();
    returned_.pop_back();
    return slot;
  }
  while (!extents_.empty()) {
    SlotExtent& extent = extents_.back();
    if (extent.count == 0) {
      extents_.pop_back();
      continue;
    }
    const uint64_t slot = extent.first;
    ++extent.first;
    --extent.count;
    return slot;
  }
  return NotFoundError("slot pool empty on " + name_);
}

uint64_t ServerPeer::pooled_slots() const {
  uint64_t n = returned_.size();
  for (const SlotExtent& extent : extents_) {
    n += extent.count;
  }
  return n;
}

void ServerPeer::DropPool() {
  extents_.clear();
  returned_.clear();
}

void ServerPeer::Stamp(Message* request) const {
  if (request->tenant == 0) {
    request->tenant = tenant_;
  }
  // The data ops carry the map epoch they were routed by and, when tracing is
  // attached, the operation's trace id: the server's epoch gate examines
  // exactly these ops, and they are the ones with server-side stages worth
  // measuring.
  if (EpochStamped(request->type)) {
    request->epoch = epoch_;
    if (trace_source_ != nullptr) {
      request->trace_id = trace_source_->load(std::memory_order_relaxed);
    }
  }
}

Result<Message> ServerPeer::Call(Message request) {
  Stamp(&request);
  return transport_->Call(request);
}

RpcFuture ServerPeer::CallAsync(Message request) {
  Stamp(&request);
  return transport_->CallAsync(std::move(request));
}

void ServerPeer::AttachMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  metric_prefix_ = "peer." + name_ + ".";
  sent_counter_ = registry->GetCounter(metric_prefix_ + "pages_sent");
  fetched_counter_ = registry->GetCounter(metric_prefix_ + "pages_fetched");
  dead_marks_ = registry->GetCounter(metric_prefix_ + "dead_marks");
  reset_count_ = registry->GetCounter(metric_prefix_ + "resets");
  // Seed the registered counters with whatever accounting preceded the
  // attach, so the registry and the plain accessors agree.
  sent_counter_->Increment(pages_sent_);
  fetched_counter_->Increment(pages_fetched_);
}

void ServerPeer::Reset() {
  DropPool();
  stopped_ = false;
  no_new_extents_ = false;
  known_free_pages_ = 0;
  alive_ = true;
  pages_sent_ = 0;
  pages_fetched_ = 0;
  // A reset means a new server incarnation: zero the registered metrics so
  // the old life's traffic never mixes into the new one, then record that a
  // reset happened (the one counter that survives as a tally of lives).
  if (metrics_ != nullptr) {
    metrics_->ResetPrefix(metric_prefix_);
    reset_count_->Increment();
  }
}

Status ServerPeer::AllocExtent(uint64_t pages) {
  auto reply = Call(MakeAllocRequest(NextRequestId(), pages));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kAllocReply) {
    return ProtocolError("unexpected reply to ALLOC on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "alloc denied by " + name_);
  }
  AddExtent(SlotExtent{reply->slot, reply->count});
  // Client-side accounting: the grant consumed server memory, so most-free
  // selection stays meaningful between load refreshes.
  known_free_pages_ -= std::min(known_free_pages_, reply->count);
  return OkStatus();
}

RpcFuture ServerPeer::StartPageOut(uint64_t slot, std::span<const uint8_t> page) {
  return CallAsync(MakePageOut(NextRequestId(), slot, page));
}

Result<bool> ServerPeer::JoinPageOut(RpcFuture future) {
  const auto& reply = future.Wait();
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kPageOutAck) {
    return ProtocolError("unexpected reply to PAGEOUT on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "pageout rejected by " + name_);
  }
  NoteSent(1);
  return reply->advise_stop();
}

Result<bool> ServerPeer::PageOutTo(uint64_t slot, std::span<const uint8_t> page) {
  return JoinPageOut(StartPageOut(slot, page));
}

RpcFuture ServerPeer::StartPageIn(uint64_t slot) {
  return CallAsync(MakePageIn(NextRequestId(), slot));
}

Status ServerPeer::JoinPageIn(RpcFuture future, std::span<uint8_t> out) {
  if (out.size() != kPageSize) {
    return InvalidArgumentError("pagein target must be kPageSize");
  }
  const auto& reply = future.Wait();
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kPageInReply) {
    return ProtocolError("unexpected reply to PAGEIN on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "pagein failed on " + name_);
  }
  if (reply->payload.size() != kPageSize) {
    return ProtocolError("short pagein payload from " + name_);
  }
  std::copy(reply->payload.begin(), reply->payload.end(), out.begin());
  NoteFetched(1);
  return OkStatus();
}

Status ServerPeer::PageInFrom(uint64_t slot, std::span<uint8_t> out) {
  return JoinPageIn(StartPageIn(slot), out);
}

RpcFuture ServerPeer::StartPageOutBatch(std::span<const uint64_t> slots,
                                        std::span<const uint8_t> pages) {
  return CallAsync(MakePageOutBatch(NextRequestId(), slots, pages));
}

Result<bool> ServerPeer::JoinPageOutBatch(RpcFuture future, uint64_t expected) {
  const auto& reply = future.Wait();
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kPageOutBatchAck) {
    return ProtocolError("unexpected reply to PAGEOUT_BATCH on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(),
                  "batch pageout rejected by " + name_ + " at entry " +
                      std::to_string(reply->aux));
  }
  if (reply->count != expected) {
    return ProtocolError("partial batch ack from " + name_);
  }
  NoteSent(static_cast<int64_t>(expected));
  return reply->advise_stop();
}

Result<bool> ServerPeer::PageOutBatchTo(std::span<const uint64_t> slots,
                                        std::span<const uint8_t> pages) {
  return JoinPageOutBatch(StartPageOutBatch(slots, pages), slots.size());
}

RpcFuture ServerPeer::StartPageInBatch(std::span<const uint64_t> slots) {
  return CallAsync(MakePageInBatch(NextRequestId(), slots));
}

Status ServerPeer::JoinPageInBatch(RpcFuture future, uint64_t expected, std::span<uint8_t> out) {
  if (out.size() != expected * kPageSize) {
    return InvalidArgumentError("batch pagein target must be expected * kPageSize");
  }
  const auto& reply = future.Wait();
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kPageInBatchReply) {
    return ProtocolError("unexpected reply to PAGEIN_BATCH on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(),
                  "batch pagein failed on " + name_ + " at entry " + std::to_string(reply->aux));
  }
  if (reply->count != expected || reply->payload.size() != expected * kPageSize) {
    return ProtocolError("short batch pagein payload from " + name_);
  }
  std::copy(reply->payload.begin(), reply->payload.end(), out.begin());
  NoteFetched(static_cast<int64_t>(expected));
  return OkStatus();
}

Status ServerPeer::PageInBatchFrom(std::span<const uint64_t> slots, std::span<uint8_t> out) {
  return JoinPageInBatch(StartPageInBatch(slots), slots.size(), out);
}

Status ServerPeer::FreeOn(uint64_t first_slot, uint64_t count) {
  auto reply = Call(MakeFreeRequest(NextRequestId(), first_slot, count));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "free failed on " + name_);
  }
  return OkStatus();
}

Result<PageBuffer> ServerPeer::DeltaPageOutTo(uint64_t slot, std::span<const uint8_t> page) {
  Message request = MakePageOut(NextRequestId(), slot, page);
  request.type = MessageType::kDeltaPageOut;
  auto reply = Call(std::move(request));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "delta pageout rejected by " + name_);
  }
  if (reply->payload.size() != kPageSize) {
    return ProtocolError("short delta payload from " + name_);
  }
  NoteSent(1);
  return PageBuffer(std::span<const uint8_t>(reply->payload));
}

Status ServerPeer::XorMergeOn(uint64_t slot, std::span<const uint8_t> delta) {
  Message request = MakePageOut(NextRequestId(), slot, delta);
  request.type = MessageType::kXorMerge;
  auto reply = Call(std::move(request));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "xor merge rejected by " + name_);
  }
  NoteSent(1);
  return OkStatus();
}

Result<ServerPeer::LoadInfo> ServerPeer::QueryLoad() {
  auto reply = Call(MakeLoadQuery(NextRequestId()));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kLoadReport) {
    return ProtocolError("unexpected reply to LOAD_QUERY on " + name_);
  }
  LoadInfo info;
  info.free_pages = reply->count;
  info.total_pages = reply->aux;
  info.advise_stop = reply->advise_stop();
  known_free_pages_ = info.free_pages;
  return info;
}

Result<ServerPeer::HeartbeatInfo> ServerPeer::Heartbeat() {
  auto reply = Call(MakeHeartbeat(NextRequestId()));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kHeartbeatAck) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "heartbeat refused by " + name_);
    }
    return ProtocolError("unexpected reply to HEARTBEAT on " + name_);
  }
  HeartbeatInfo info;
  info.incarnation = reply->slot;
  info.free_pages = reply->count;
  info.total_pages = reply->aux;
  info.advise_stop = reply->advise_stop();
  known_free_pages_ = info.free_pages;
  return info;
}

Status ServerPeer::MigrateRead(uint64_t slot, std::span<uint8_t> out) {
  if (out.size() != kPageSize) {
    return InvalidArgumentError("migrate target must be kPageSize");
  }
  auto reply = Call(MakeMigrate(NextRequestId(), slot));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kMigrateReply) {
    return ProtocolError("unexpected reply to MIGRATE on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
    }
    return Status(reply->status_code(), "migrate failed on " + name_);
  }
  if (reply->payload.size() != kPageSize) {
    return ProtocolError("short migrate payload from " + name_);
  }
  std::copy(reply->payload.begin(), reply->payload.end(), out.begin());
  NoteFetched(1);
  return OkStatus();
}

Result<std::string> ServerPeer::QueryStats() {
  auto reply = Call(MakeStatsQuery(NextRequestId()));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kStatsReply) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "stats query refused by " + name_);
    }
    return ProtocolError("unexpected reply to STATS_QUERY on " + name_);
  }
  return std::string(IntrospectionJson(*reply));
}

Result<std::string> ServerPeer::DumpRemoteTrace() {
  auto reply = Call(MakeTraceDump(NextRequestId()));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kTraceDumpReply) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "trace dump refused by " + name_);
    }
    return ProtocolError("unexpected reply to TRACE_DUMP on " + name_);
  }
  return std::string(IntrospectionJson(*reply));
}

Result<std::string> ServerPeer::DumpServerSpans() {
  auto reply = Call(MakeTraceDump(NextRequestId(), /*document=*/1));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kTraceDumpReply) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "span dump refused by " + name_);
    }
    return ProtocolError("unexpected reply to TRACE_DUMP on " + name_);
  }
  return std::string(IntrospectionJson(*reply));
}

Result<std::string> ServerPeer::QueryEvents(uint64_t min_seq, uint64_t* next_seq,
                                            uint64_t* incarnation) {
  auto reply = Call(MakeEventsQuery(NextRequestId(), min_seq));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kEventsReply) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "events query refused by " + name_);
    }
    return ProtocolError("unexpected reply to EVENTS_QUERY on " + name_);
  }
  if (next_seq != nullptr) {
    *next_seq = reply->count;
  }
  if (incarnation != nullptr) {
    *incarnation = reply->slot;
  }
  return std::string(IntrospectionJson(*reply));
}

Result<ClusterMap> ServerPeer::QueryMap() {
  auto reply = Call(MakeMapQuery(NextRequestId()));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kMapReply) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "map query refused by " + name_);
    }
    return ProtocolError("unexpected reply to MAP_QUERY on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    return Status(reply->status_code(), "map query failed on " + name_);
  }
  return ClusterMap::Deserialize(std::span<const uint8_t>(reply->payload));
}

Status ServerPeer::PublishMap(uint64_t epoch, std::span<const uint8_t> map_bytes) {
  auto reply = Call(MakeMapPublish(NextRequestId(), epoch, map_bytes));
  if (!reply.ok()) {
    mark_dead();
    return reply.status();
  }
  if (reply->type != MessageType::kMapPublishAck) {
    if (reply->status_code() == ErrorCode::kUnavailable) {
      mark_dead();
      return Status(reply->status_code(), "map publish refused by " + name_);
    }
    return ProtocolError("unexpected reply to MAP_PUBLISH on " + name_);
  }
  if (reply->status_code() != ErrorCode::kOk) {
    return Status(reply->status_code(), "map publish rejected by " + name_);
  }
  return OkStatus();
}

Result<size_t> Cluster::MostPromising(bool refresh) {
  Result<size_t> best = NotFoundError("no usable server");
  uint64_t best_free = 0;
  for (size_t i = 0; i < peers_.size(); ++i) {
    ServerPeer& p = *peers_[i];
    if (!p.alive() || p.stopped()) {
      continue;
    }
    if (refresh) {
      auto load = p.QueryLoad();
      if (!load.ok()) {
        continue;
      }
      p.set_no_new_extents(load->advise_stop);
    }
    if (!p.usable()) {
      continue;
    }
    if (!best.ok() || p.known_free_pages() > best_free) {
      best = i;
      best_free = p.known_free_pages();
    }
  }
  return best;
}

Result<size_t> Cluster::NextUsable(size_t* cursor) const {
  if (peers_.empty()) {
    return NotFoundError("cluster is empty");
  }
  for (size_t step = 1; step <= peers_.size(); ++step) {
    const size_t i = (*cursor + step) % peers_.size();
    const ServerPeer& p = *peers_[i];
    if (p.usable()) {
      *cursor = i;
      return i;
    }
  }
  return NotFoundError("no usable server");
}

bool Cluster::AnyUsable() const {
  for (const auto& p : peers_) {
    if (p->usable()) {
      return true;
    }
  }
  return false;
}

}  // namespace rmp
