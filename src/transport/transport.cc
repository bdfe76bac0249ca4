#include "src/transport/transport.h"

#include <chrono>

#include "src/transport/reactor.h"

namespace rmp {

RpcFuture RpcFuture::MakeReady(Result<Message> result) {
  auto state = NewState();
  state->result.emplace(std::move(result));
  return RpcFuture(std::move(state));
}

bool RpcFuture::ready() const {
  if (state_ == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->result.has_value();
}

const Result<Message>& RpcFuture::Wait() {
  if (state_ == nullptr) {
    static const Result<Message> invalid = InternalError("Wait() on an invalid RpcFuture");
    return invalid;
  }
  if (!ready()) {
    // Run to completion: read our own reply when no one else is reading.
    // Falls through at once when the loop or another waiter holds the role.
    if (std::shared_ptr<ReactorConnection> conn = state_->conn.lock()) {
      conn->ReadOnCaller([this] { return ready(); });
    }
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->result.has_value(); });
  // The result is set once and never changed, so the reference outlives the
  // lock.
  return *state_->result;
}

Result<Message> RpcFuture::WaitFor(DurationNs timeout) {
  if (state_ == nullptr) {
    return InternalError("WaitFor() on an invalid RpcFuture");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  const bool completed = state_->cv.wait_for(lock, std::chrono::nanoseconds(timeout),
                                             [this] { return state_->result.has_value(); });
  if (!completed) {
    return UnavailableError("rpc deadline exceeded");
  }
  return *state_->result;
}

void RpcFuture::Complete(const std::shared_ptr<State>& state, Result<Message> result) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->result.has_value()) {
      return;  // First completion wins (reply vs. teardown race).
    }
    state->result.emplace(std::move(result));
  }
  state->cv.notify_all();
}

InlineService& InlineServiceFlags() {
  thread_local InlineService flags;
  return flags;
}

RpcFuture Transport::CallAsync(Message request) { return RpcFuture::MakeReady(Call(request)); }

}  // namespace rmp
