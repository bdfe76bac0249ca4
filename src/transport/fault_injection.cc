#include "src/transport/fault_injection.h"

#include <string>
#include <utility>

#include "src/proto/wire.h"

namespace rmp {
namespace {

// Runs `message` through the real wire encoding with frame bit `bit` flipped
// and decodes it, so the actual header and payload checks decide the outcome
// rather than a simulation of them.
Result<Message> DecodeWithFlippedBit(const Message& message, size_t bit, const std::string& tag) {
  std::vector<uint8_t> bytes = Encode(message);
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  Result<Message> decoded = Decode(bytes);
  if (!decoded.ok()) {
    return decoded.status();
  }
  return CorruptionError("fault: corrupted frame escaped the CRC (" + tag + ")");
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "NONE";
    case FaultKind::kDropRequest:
      return "DROP_REQUEST";
    case FaultKind::kDropReply:
      return "DROP_REPLY";
    case FaultKind::kDelay:
      return "DELAY";
    case FaultKind::kDuplicate:
      return "DUPLICATE";
    case FaultKind::kCorruptPayload:
      return "CORRUPT_PAYLOAD";
    case FaultKind::kDisconnect:
      return "DISCONNECT";
    case FaultKind::kCrashBeforeApply:
      return "CRASH_BEFORE_APPLY";
    case FaultKind::kCrashAfterApply:
      return "CRASH_AFTER_APPLY";
    case FaultKind::kCorruptRequestHeader:
      return "CORRUPT_REQUEST_HEADER";
    case FaultKind::kCorruptReplyHeader:
      return "CORRUPT_REPLY_HEADER";
  }
  return "UNKNOWN";
}

void FaultPlan::AddRule(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.push_back(ArmedRule{rule});
}

void FaultPlan::AttachEvents(EventJournal* journal, std::string actor) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_journal_ = journal;
  actor_ = std::move(actor);
}

FaultKind FaultPlan::Decide(const Message& request, TimeNs now, FaultRule* fired) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_seen_;
  ArmedRule* winner = nullptr;
  for (ArmedRule& armed : rules_) {
    const FaultRule& rule = armed.rule;
    if (rule.only_type.has_value() && *rule.only_type != request.type) {
      continue;
    }
    const int64_t match_index = armed.matches_seen++;
    bool triggers = false;
    if (rule.at_op >= 0 && match_index == rule.at_op) {
      triggers = true;
    }
    if (rule.at_time > 0 && now >= rule.at_time) {
      triggers = true;
    }
    // Probability rules always draw, even when a prior rule already won this
    // op, so the RNG sequence — and with it every later decision — depends
    // only on the seed and the op stream, not on which rules fired.
    if (rule.probability > 0.0 && rng_.Bernoulli(rule.probability)) {
      triggers = true;
    }
    if (!triggers || winner != nullptr) {
      continue;
    }
    if (rule.repeat >= 0 && armed.fired >= rule.repeat) {
      continue;  // Exhausted.
    }
    winner = &armed;
  }
  if (winner == nullptr) {
    return FaultKind::kNone;
  }
  ++winner->fired;
  ++faults_fired_;
  if (events_journal_ != nullptr) {
    events_journal_->Append(EventKind::kFault, actor_,
                            std::string(FaultKindName(winner->rule.kind)) + " on " +
                                std::string(MessageTypeName(request.type)) + " at op #" +
                                std::to_string(ops_seen_));
  }
  FaultRule chosen = winner->rule;
  const bool header_fault = chosen.kind == FaultKind::kCorruptRequestHeader ||
                            chosen.kind == FaultKind::kCorruptReplyHeader;
  if (header_fault) {
    // Past the magic: a flipped magic is a PROTOCOL error, not corruption.
    chosen.corrupt_bit = static_cast<int>(32 + rng_.Below(kWirePrefixSize * 8 - 32));
  }
  if (fired != nullptr) {
    *fired = chosen;
  }
  return chosen.kind;
}

int64_t FaultPlan::ops_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_seen_;
}

int64_t FaultPlan::faults_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_fired_;
}

void FaultInjectingTransport::InstallPlan(std::shared_ptr<FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = std::move(plan);
}

void FaultInjectingTransport::ClearPlan() {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_.reset();
}

bool FaultInjectingTransport::has_plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_ != nullptr;
}

void FaultInjectingTransport::SetCrashHook(CrashHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  crash_hook_ = std::move(hook);
}

void FaultInjectingTransport::SetClock(Clock clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

void FaultInjectingTransport::CountFault(FaultKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++fault_stats_.injected[static_cast<size_t>(kind)];
}

void FaultInjectingTransport::InvokeCrashHook() {
  CrashHook hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = crash_hook_;
  }
  if (hook) {
    hook();
  }
}

Result<Message> FaultInjectingTransport::Call(const Message& request) {
  if (!connected_.load()) {
    return UnavailableError("fault transport: disconnected");
  }
  std::shared_ptr<FaultPlan> plan;
  Clock clock;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plan = plan_;
    clock = clock_;
  }
  if (plan == nullptr) {
    return inner_->Call(request);
  }
  const TimeNs now = clock ? clock() : 0;
  FaultRule rule;
  const FaultKind kind = plan->Decide(request, now, &rule);
  if (kind == FaultKind::kNone) {
    return inner_->Call(request);
  }
  return FaultedCall(request, kind, rule);
}

RpcFuture FaultInjectingTransport::CallAsync(Message request) {
  if (!connected_.load()) {
    return RpcFuture::MakeReady(UnavailableError("fault transport: disconnected"));
  }
  std::shared_ptr<FaultPlan> plan;
  Clock clock;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plan = plan_;
    clock = clock_;
  }
  if (plan == nullptr) {
    return inner_->CallAsync(std::move(request));
  }
  const TimeNs now = clock ? clock() : 0;
  FaultRule rule;
  const FaultKind kind = plan->Decide(request, now, &rule);
  if (kind == FaultKind::kNone) {
    // The common path keeps the inner transport's pipelining.
    return inner_->CallAsync(std::move(request));
  }
  // Faulted calls resolve synchronously: the fault semantics (crash hooks,
  // disconnects) must take effect before the caller's next operation, which
  // an eager completion guarantees on every inner transport.
  return RpcFuture::MakeReady(FaultedCall(request, kind, rule));
}

Result<Message> FaultInjectingTransport::FaultedCall(const Message& request, FaultKind kind,
                                                     const FaultRule& rule) {
  CountFault(kind);
  const std::string tag(MessageTypeName(request.type));
  switch (kind) {
    case FaultKind::kNone:
      return inner_->Call(request);

    case FaultKind::kDropRequest:
      // The request never reaches the server; the connection itself is fine,
      // so a retry of an idempotent op should succeed.
      return UnavailableError("fault: request dropped (" + tag + ")");

    case FaultKind::kDropReply: {
      // The server applies the operation but the ack is lost: the classic
      // ambiguous-outcome window. The caller sees UNAVAILABLE and cannot
      // tell whether the op landed.
      (void)inner_->Call(request);
      return UnavailableError("fault: reply dropped (" + tag + ")");
    }

    case FaultKind::kDelay: {
      Result<Message> reply = inner_->Call(request);
      if (!reply.ok()) {
        return reply;
      }
      const DurationNs deadline = rpc_deadline_.load();
      if (deadline > 0 && rule.delay > deadline) {
        // Late reply: by the time it arrives the client has timed out. The
        // op is applied server-side — same ambiguity as a dropped reply.
        return UnavailableError("fault: rpc deadline exceeded (" + tag + ")");
      }
      injected_delay_.fetch_add(rule.delay);
      return reply;
    }

    case FaultKind::kDuplicate: {
      // Deliver the request twice (a retransmission); the server must treat
      // the second copy idempotently. The caller gets the second reply.
      Result<Message> first = inner_->Call(request);
      if (!first.ok()) {
        return first;
      }
      return inner_->Call(request);
    }

    case FaultKind::kCorruptPayload: {
      // The last payload byte flips (a payload CRC mismatch); with no
      // payload, a magic byte does (a PROTOCOL error). The op never reaches
      // the server.
      const size_t byte =
          request.payload.empty() ? 0 : kWirePrefixSize + request.payload.size() - 1;
      return DecodeWithFlippedBit(request, byte * 8 + 6, tag);
    }

    case FaultKind::kCorruptRequestHeader:
      // The server's header check drops the frame: the op never applies.
      return DecodeWithFlippedBit(request, static_cast<size_t>(rule.corrupt_bit), tag);

    case FaultKind::kCorruptReplyHeader: {
      Result<Message> reply = inner_->Call(request);
      if (!reply.ok()) {
        return reply;
      }
      return DecodeWithFlippedBit(*reply, static_cast<size_t>(rule.corrupt_bit), tag);
    }

    case FaultKind::kDisconnect:
      Disconnect();
      return UnavailableError("fault: connection dropped (" + tag + ")");

    case FaultKind::kCrashBeforeApply:
      InvokeCrashHook();
      return UnavailableError("fault: server crashed before apply (" + tag + ")");

    case FaultKind::kCrashAfterApply: {
      (void)inner_->Call(request);
      InvokeCrashHook();
      return UnavailableError("fault: server crashed after apply (" + tag + ")");
    }
  }
  return InternalError("fault: unknown fault kind");
}

Status FaultInjectingTransport::SendOneWay(const Message& request) {
  if (!connected_.load()) {
    return UnavailableError("fault transport: disconnected");
  }
  return inner_->SendOneWay(request);
}

}  // namespace rmp
