// Deterministic fault injection at the transport boundary.
//
// The paper's reliability claim (§4) is that remote memory paging survives a
// single server crash under mirroring, parity, parity logging and
// write-through. Exercising that claim requires crashing servers *mid-RPC* —
// between a request landing and its reply returning, between a stripe's data
// write and its parity flush — not only at the quiescent points
// Testbed::CrashServer reaches naturally. This module provides that:
//
//   FaultPlan               — a seeded, deterministic schedule of faults,
//                             triggered by op-count, simulated time, or a
//                             seeded per-op probability, optionally filtered
//                             by message type. The same seed always yields
//                             the same fault interleaving, so any failing
//                             scenario is reproducible from one integer.
//   FaultInjectingTransport — a Transport decorator that consults the plan
//                             on every RPC and perturbs delivery: drop the
//                             request, drop the reply, delay it past a
//                             deadline, deliver it twice, flip a payload
//                             bit or a request or reply header bit (caught
//                             by the wire CRCs), sever the
//                             connection, or crash the server before/after
//                             the request applies (via a crash hook the
//                             Testbed wires to CrashServer).
//
// Both the in-process testbed transports and TcpTransport can be wrapped:
// the decorator only speaks the Transport interface. The non-faulted path
// forwards CallAsync to the inner transport, so pipelining is preserved when
// no fault fires.

#ifndef SRC_TRANSPORT_FAULT_INJECTION_H_
#define SRC_TRANSPORT_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/transport/transport.h"
#include "src/util/events.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace rmp {

enum class FaultKind : uint8_t {
  kNone = 0,
  kDropRequest,       // Request never reaches the server; client sees UNAVAILABLE.
  kDropReply,         // Server applies the op, the ack is lost: the classic
                      // ambiguous-outcome window (did my pageout land?).
  kDelay,             // Reply arrives late; past the RPC deadline it becomes
                      // a timeout with the op applied server-side.
  kDuplicate,         // Request delivered twice (retransmit storm); exercises
                      // server-side idempotency.
  kCorruptPayload,    // A payload bit flips in flight; the wire CRC must
                      // catch it and the op must not apply.
  kDisconnect,        // Connection drops (server process alive); persists
                      // until Reconnect().
  kCrashBeforeApply,  // Server workstation dies before applying the request.
  kCrashAfterApply,   // Server applies the request, then dies; the reply is
                      // lost with it.
  kCorruptRequestHeader,  // One bit of the request's frame prefix flips in
                          // flight; the header CRC must catch it and the op
                          // must not apply.
  kCorruptReplyHeader,    // The op applies, then one bit of the reply's frame
                          // prefix flips; the caller sees CORRUPTION and must
                          // retry idempotently.
};
inline constexpr size_t kFaultKindCount = static_cast<size_t>(FaultKind::kCorruptReplyHeader) + 1;

std::string_view FaultKindName(FaultKind kind);

// One scheduled fault. A rule *matches* an operation when the optional
// message-type filter accepts it; among matching operations the rule *fires*
// when any trigger condition holds, at most `repeat` times.
struct FaultRule {
  FaultKind kind = FaultKind::kNone;

  // Fires on the `at_op`-th matching operation (0-based). Negative: unused.
  int64_t at_op = -1;
  // Fires on the first matching operation at or after this simulated time
  // (requires a clock hook on the wrapper). 0: unused.
  TimeNs at_time = 0;
  // Fires on any matching operation with this probability, drawn from the
  // plan's seeded RNG (deterministic given the seed and the op sequence).
  double probability = 0.0;

  // Only operations of this message type match; nullopt matches everything.
  std::optional<MessageType> only_type = std::nullopt;

  // How many times the rule may fire; negative = unlimited.
  int repeat = 1;

  // Injected latency for kDelay.
  DurationNs delay = 0;

  // Set by Decide in the copy of a firing header corruption it hands back:
  // the frame-prefix bit to flip (bit i % 8 of byte i / 8), drawn past the
  // magic from the plan's seeded RNG.
  int corrupt_bit = -1;
};

// Counts of injected faults, by kind (index = FaultKind value).
struct FaultStats {
  int64_t injected[kFaultKindCount] = {};
  int64_t total() const {
    int64_t n = 0;
    for (int64_t k : injected) {
      n += k;
    }
    return n;
  }
  int64_t count(FaultKind kind) const { return injected[static_cast<size_t>(kind)]; }
};

// A deterministic fault schedule. May be shared by several transports (the
// op counter is then global across them, which lets one plan order faults
// across peers); all methods are thread-safe.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) : seed_(seed), rng_(seed) {}

  void AddRule(FaultRule rule);

  // Decision for the next operation `request` issued at simulated time
  // `now`. The first firing rule wins; *fired (when non-null) receives a
  // copy of it (for kDelay's duration and a header corruption's bit).
  // Advances the op counter and — for probability rules and header
  // corruptions — the RNG, so calls must be made once per op.
  FaultKind Decide(const Message& request, TimeNs now, FaultRule* fired);

  uint64_t seed() const { return seed_; }
  int64_t ops_seen() const;
  int64_t faults_fired() const;

  // Flight recorder (DESIGN.md §17): every firing appends one kFault event
  // ("<KIND> on <op> at op #N") under `actor`. Not owned; null disables.
  void AttachEvents(EventJournal* journal, std::string actor = "faults");

 private:
  struct ArmedRule {
    FaultRule rule;
    int64_t matches_seen = 0;
    int fired = 0;
  };

  const uint64_t seed_;
  mutable std::mutex mutex_;
  EventJournal* events_journal_ = nullptr;
  std::string actor_;
  Rng rng_;
  std::vector<ArmedRule> rules_;
  int64_t ops_seen_ = 0;
  int64_t faults_fired_ = 0;
};

// Transport decorator that injects the plan's faults. Without a plan (or
// with a plan that never fires) it is a transparent passthrough — CallAsync
// keeps the inner transport's pipelining.
class FaultInjectingTransport final : public Transport {
 public:
  using CrashHook = std::function<void()>;
  using Clock = std::function<TimeNs()>;

  explicit FaultInjectingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  // --- Configuration -------------------------------------------------------

  void InstallPlan(std::shared_ptr<FaultPlan> plan);
  void ClearPlan();
  bool has_plan() const;

  // Invoked when a kCrashBeforeApply / kCrashAfterApply fault fires; the
  // Testbed wires this to CrashServer(i). Called without any wrapper lock
  // held, so the hook may re-enter Disconnect().
  void SetCrashHook(CrashHook hook);

  // Source of simulated time for FaultRule::at_time triggers. Without a
  // clock, time-triggered rules never fire.
  void SetClock(Clock clock);

  // Per-RPC deadline: an injected delay longer than this turns into an
  // UNAVAILABLE timeout (the op still applied server-side). 0 = no deadline,
  // delays always succeed.
  void set_rpc_deadline(DurationNs deadline) { rpc_deadline_.store(deadline); }
  DurationNs rpc_deadline() const { return rpc_deadline_.load(); }

  // --- Fault state ---------------------------------------------------------

  // Severs the logical connection (kDisconnect does this internally). The
  // inner transport is left open, so Reconnect() fully restores service —
  // this models a dropped connection to a live server, distinct from a
  // crash.
  void Disconnect() { connected_.store(false); }
  void Reconnect() { connected_.store(true); }

  const FaultStats& fault_stats() const { return fault_stats_; }
  // Total injected latency that successfully-delivered replies accrued
  // (kDelay faults under the deadline). The paging layers fold this into
  // their timing via the retry/backoff accounting.
  DurationNs injected_delay() const { return injected_delay_.load(); }

  Transport& inner() { return *inner_; }

  // --- Transport -----------------------------------------------------------

  Result<Message> Call(const Message& request) override;
  RpcFuture CallAsync(Message request) override;
  Status SendOneWay(const Message& request) override;
  bool connected() const override { return connected_.load() && inner_->connected(); }
  void Close() override {
    connected_.store(false);
    inner_->Close();
  }

 private:
  // Applies the decided fault around one blocking exchange.
  Result<Message> FaultedCall(const Message& request, FaultKind kind, const FaultRule& rule);

  void CountFault(FaultKind kind);
  void InvokeCrashHook();

  std::unique_ptr<Transport> inner_;
  std::atomic<bool> connected_{true};
  std::atomic<int64_t> rpc_deadline_{0};
  std::atomic<int64_t> injected_delay_{0};

  mutable std::mutex mutex_;  // Guards plan_, hooks and fault_stats_.
  std::shared_ptr<FaultPlan> plan_;
  CrashHook crash_hook_;
  Clock clock_;
  FaultStats fault_stats_;
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_FAULT_INJECTION_H_
