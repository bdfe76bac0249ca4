// Cluster flight recorder (DESIGN.md §17).
//
// The fault/repair/membership machinery makes decisions that leave no
// durable record: a health transition flips a flag, a STALE_EPOCH refusal
// bumps a counter, a fault-injection rule fires silently. When the
// 18-scenario crash matrix fails under TSan, reconstructing *what the
// cluster was doing* from counters alone is a repro hunt. The EventJournal
// closes that gap: every state machine appends one structured line —
// monotonic sequence number, process-monotonic wall timestamp, kind, actor,
// detail — into a bounded ring. Journals are per-owner (each MemoryServer
// holds one, the client pager another); a server's journal is queryable over
// the EVENTS_QUERY wire op, and the Testbed merges all of them into one
// sorted timeline for post-mortem dumps.
//
// Appends are lock-cheap, not lock-free: events are *decisions* (transitions,
// refusals, fault firings), orders of magnitude rarer than data ops, so one
// short mutex-guarded ring write is the right complexity. The ring bounds
// memory; overwritten events count in dropped() and leave a sequence gap the
// reader can detect (first returned seq > requested seq).

#ifndef SRC_UTIL_EVENTS_H_
#define SRC_UTIL_EVENTS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bounded_ring.h"
#include "src/util/config.h"
#include "src/util/status.h"

namespace rmp {

// What kind of decision the event records. Order is wire-stable (the kind
// ships as its name string, but tests index by enum).
enum class EventKind : uint8_t {
  kHealth = 0,      // Peer health transition (ALIVE -> SUSPECT -> DEAD -> ...).
  kRepair = 1,      // Repair job armed / stepped / completed.
  kRebalance = 2,   // Rebalance range moved / job completed.
  kMigrate = 3,     // Overload-migration drain step.
  kEpoch = 4,       // Cluster-map epoch adopted or published.
  kStaleEpoch = 5,  // Data op refused with STALE_EPOCH.
  kTenantShed = 6,  // Tenant admission denial (rate / quota / strict).
  kFault = 7,       // Fault-injection rule fired.
  kCrash = 8,       // Server crashed (page store dropped).
  kRestart = 9,     // Server restarted / partition healed.
  kMembership = 10, // Join / decommission lifecycle.
  kInfo = 11,       // Anything else worth a timeline line.
};
inline constexpr int kNumEventKinds = 12;

std::string_view EventKindName(EventKind kind);

struct Event {
  uint64_t seq = 0;     // 1-based, monotonic per journal; gaps = overwritten.
  int64_t wall_ns = 0;  // Process-monotonic clock; comparable across in-proc
                        // journals, which is what timeline merging needs.
  EventKind kind = EventKind::kInfo;
  std::string actor;    // Which state machine / server appended it.
  std::string detail;
};

struct EventJournalOptions {
  // Events held before the oldest is overwritten. 0 disables the journal
  // entirely: Append becomes a cheap early-out.
  size_t ring_capacity = 1024;
  // Detail strings longer than this are truncated at append (a hostile or
  // buggy caller must not balloon a ring entry).
  size_t max_detail_bytes = 256;
};

// The `events.*` config table over `options` (README: observability knobs).
ConfigTable EventsConfigKeys(EventJournalOptions* options);

// Bounded, thread-safe structured event ring. Not copyable; hand out
// pointers (state machines hold an `EventJournal*` that may be null —
// appending through a null journal is the disabled path).
class EventJournal {
 public:
  explicit EventJournal(const EventJournalOptions& options = EventJournalOptions());
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  void Append(EventKind kind, std::string_view actor, std::string_view detail);

  // Events with seq >= min_seq, oldest first, at most `limit` (0 = all still
  // in the ring). The first returned seq exceeding min_seq when min_seq is
  // within [1, next_seq) tells the reader the ring wrapped past it.
  std::vector<Event> Since(uint64_t min_seq, size_t limit = 0) const;
  std::vector<Event> All() const { return Since(0); }

  // JSON array of Since(min_seq, limit) — the EVENTS_QUERY reply payload.
  // Example element: {"seq":7,"t":123456,"kind":"health","actor":"health",
  // "detail":"peer=1 ALIVE->SUSPECT"}.
  std::string ToJson(uint64_t min_seq = 0, size_t limit = 0) const;

  size_t size() const;
  uint64_t next_seq() const;   // Seq the next Append will take.
  int64_t dropped() const;     // Events overwritten (oldest lost).
  size_t capacity() const;

  // Resizes the ring (clearing it; sequence numbering continues).
  void SetCapacity(size_t capacity);

 private:
  mutable std::mutex mutex_;
  size_t max_detail_bytes_;
  BoundedRing<Event> ring_;
  uint64_t next_seq_ = 1;
};

// Escapes `in` for embedding inside a JSON string literal (quotes,
// backslashes, control bytes). Shared by the journal and the span-ring JSON.
std::string JsonEscape(std::string_view in);

// The process-monotonic timestamp Append stamps (steady-clock nanoseconds).
// Exposed so timeline consumers (Testbed::DumpFlightRecorder) can anchor
// "now" on the same clock.
int64_t EventWallNanos();

}  // namespace rmp

#endif  // SRC_UTIL_EVENTS_H_
