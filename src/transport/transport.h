// Transport abstraction between the paging client and a memory server.
//
// The paper's client runs "one dedicated paging daemon" that issues blocking
// request/reply exchanges over a TCP socket per server (§3.1). Transport
// keeps that blocking Call() but extends it with a pipelined CallAsync():
// many requests can be outstanding on one connection, with replies
// demultiplexed by request_id. Two implementations exist:
//   - InProcTransport: direct dispatch to a MessageHandler in the same
//     process. Deterministic (CallAsync completes immediately); used by
//     tests, benches and the simulator.
//   - TcpTransport (tcp.h): a nonblocking socket to a TcpServer, possibly in
//     another process (examples/rmp_serverd). The connection lives on the
//     client's reactor event loops (reactor.h); the submitting thread writes
//     its own frame, and a thread blocked in Wait() reads its own reply off
//     the socket when no one else is reading, as the paper's daemon does.

#ifndef SRC_TRANSPORT_TRANSPORT_H_
#define SRC_TRANSPORT_TRANSPORT_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "src/proto/wire.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace rmp {

class ReactorConnection;

// Server-side message dispatch: a MemoryServer implements this.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;

  // Processes one request and produces the reply. Transport-level failures
  // are not representable here; a handler that cannot satisfy a request
  // returns a reply message with a non-OK status field. May be invoked
  // concurrently when the server pipelines a session's requests.
  virtual Message Handle(const Message& request) = 0;
};

// Run to completion (DESIGN.md §13). When its scheduler is idle, TcpServer
// calls Handle on the connection's event-loop thread instead of waking a
// service worker, and sets `active` for the duration of the call. A request
// that could sleep (an emulated service delay, spill-disk I/O) must not stall
// a loop: before any side effect the handler sets `declined` and returns an
// empty Message. The transport discards that reply and queues the untouched
// request for a worker. The flags belong to the thread, not to a handler
// object, so a handler that forwards to another needs to do nothing.
struct InlineService {
  bool active = false;    // Handle runs on a loop thread.
  bool declined = false;  // Set by the handler; the reply is discarded.
};
InlineService& InlineServiceFlags();  // This thread's flags.

// Completion handle for one in-flight CallAsync. Copyable; all copies share
// the same completion state. Wait() may be called from any thread and is
// idempotent.
class RpcFuture {
 public:
  RpcFuture() = default;  // Invalid until assigned from a CallAsync.

  // A future that is already complete (used by synchronous transports and
  // for immediately-failed submissions).
  static RpcFuture MakeReady(Result<Message> result);

  bool valid() const { return state_ != nullptr; }

  // Non-blocking completion poll.
  bool ready() const;

  // Blocks until the reply (or transport failure) arrives. The reference
  // stays valid as long as any copy of this future lives. A TcpTransport
  // future whose connection has no reader runs to completion: the waiting
  // thread reads and dispatches frames itself until its own reply is in
  // (ReactorConnection::ReadOnCaller), instead of sleeping until the event
  // loop wakes it.
  const Result<Message>& Wait();

  // Wait() with a deadline: if no reply arrives within `timeout`, returns
  // UnavailableError without consuming the future — the reply (should it
  // still arrive) completes the shared state and a later Wait() observes it.
  // This is the client-side failure detector's primitive: a server that
  // stops answering is indistinguishable from a crashed one (§2.2), so
  // after the deadline the caller treats the peer as UNAVAILABLE.
  Result<Message> WaitFor(DurationNs timeout);

 private:
  friend class TcpTransport;

  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<Result<Message>> result;
    // The connection the reply arrives on; Wait() reads it itself when it
    // can. Empty for futures that complete without a socket.
    std::weak_ptr<ReactorConnection> conn;
  };

  static std::shared_ptr<State> NewState() { return std::make_shared<State>(); }
  static void Complete(const std::shared_ptr<State>& state, Result<Message> result);

  explicit RpcFuture(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Blocking RPC: sends `request`, waits for the matching reply.
  // Returns UnavailableError if the peer is gone (crash / closed socket).
  virtual Result<Message> Call(const Message& request) = 0;

  // Pipelined RPC: submits `request` and returns immediately; the future
  // completes when the matching reply (by request_id) arrives. request_ids
  // must be unique among in-flight calls — a duplicate fails the future
  // with InvalidArgument. The base implementation degrades to a blocking
  // Call with an already-complete future, which is also the deterministic
  // behavior InProcTransport wants.
  virtual RpcFuture CallAsync(Message request);

  // Fire-and-forget send (e.g. SHUTDOWN). Best effort.
  virtual Status SendOneWay(const Message& request) = 0;

  virtual bool connected() const = 0;
  virtual void Close() = 0;
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_TRANSPORT_H_
