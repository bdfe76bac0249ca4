#include "src/util/events.h"

#include <chrono>

namespace rmp {

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kHealth:
      return "health";
    case EventKind::kRepair:
      return "repair";
    case EventKind::kRebalance:
      return "rebalance";
    case EventKind::kMigrate:
      return "migrate";
    case EventKind::kEpoch:
      return "epoch";
    case EventKind::kStaleEpoch:
      return "stale_epoch";
    case EventKind::kTenantShed:
      return "tenant_shed";
    case EventKind::kFault:
      return "fault";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kRestart:
      return "restart";
    case EventKind::kMembership:
      return "membership";
    case EventKind::kInfo:
      return "info";
  }
  return "unknown";
}

int64_t EventWallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ConfigTable EventsConfigKeys(EventJournalOptions* options) {
  return {
      {"events.ring", ConfigKey::kInt, &options->ring_capacity, 0, 1 << 20},
      {"events.max_detail", ConfigKey::kInt, &options->max_detail_bytes, 1, 1 << 16},
  };
}

std::string JsonEscape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

EventJournal::EventJournal(const EventJournalOptions& options)
    : max_detail_bytes_(options.max_detail_bytes), ring_(options.ring_capacity) {}

void EventJournal::Append(EventKind kind, std::string_view actor, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.capacity() == 0) {
    return;  // Disabled: the event takes no sequence number either.
  }
  ring_.Push(Event{next_seq_++, EventWallNanos(), kind, std::string(actor),
                   std::string(detail.substr(0, max_detail_bytes_))});
}

std::vector<Event> EventJournal::Since(uint64_t min_seq, size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Event& event = ring_[i];
    if (event.seq < min_seq) {
      continue;
    }
    out.push_back(event);
    if (limit > 0 && out.size() >= limit) {
      break;
    }
  }
  return out;
}

std::string EventJournal::ToJson(uint64_t min_seq, size_t limit) const {
  const std::vector<Event> events = Since(min_seq, limit);
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"seq\":" + std::to_string(event.seq);
    out += ",\"t\":" + std::to_string(event.wall_ns);
    out += ",\"kind\":\"" + std::string(EventKindName(event.kind)) + "\"";
    out += ",\"actor\":\"" + JsonEscape(event.actor) + "\"";
    out += ",\"detail\":\"" + JsonEscape(event.detail) + "\"}";
  }
  out += "]";
  return out;
}

size_t EventJournal::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

uint64_t EventJournal::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

int64_t EventJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.dropped();
}

size_t EventJournal::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.capacity();
}

void EventJournal::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.Resize(capacity);
}

}  // namespace rmp
