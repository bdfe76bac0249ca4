// Real TCP transport: the paper's deployment shape, usable across processes.
//
// Since DESIGN.md §13 the socket core is event-driven: every connection —
// client side and server side — is a nonblocking socket multiplexed onto a
// small pool of reactor event-loop threads (reactor.h) instead of owning
// dedicated I/O threads. The paper's user-level memory server forked "a new
// instance of the server" per client (§3.2); the per-connection state here is
// just a session object and a handler, so thousands of concurrent paging
// sessions fit in one process.
//
// TcpServer accepts on a loopback or LAN port through its own reactor. Each
// accepted connection gets a MessageHandler from the factory; decoded
// requests flow through a two-level fair-share scheduler (scheduler.h) to a
// shared service-worker pool, so foreground PAGEIN traffic is dispatched
// ahead of background repair/migration streams and no single session can
// monopolize the workers. When the scheduler is idle, the loop thread serves
// a request itself instead of waking a worker — the paper's server answering
// straight off its socket (§3.2). Replies may leave the socket out of order
// — the pipelined client demultiplexes them by request_id. Same-slot
// requests of a session stay ordered (they share a scheduler lane).
//
// TcpTransport is the client half; see its class comment.

#ifndef SRC_TRANSPORT_TCP_H_
#define SRC_TRANSPORT_TCP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/transport/reactor.h"
#include "src/transport/scheduler.h"
#include "src/transport/transport.h"

namespace rmp {

// Blocking-socket helpers for tools and tests; the transports themselves go
// through the reactor.
//
// Frames `message` onto `fd` with one sendmsg: a stack-allocated header iovec
// plus the payload iovec straight out of Message::payload (zero-copy).
Status SendFrame(int fd, const Message& message);

// Reads exactly one frame: the fixed-size prefix first, then the payload
// directly into Message::payload. UnavailableError on EOF.
Result<Message> ReadFrame(int fd);

// The client end of one connection to a TcpServer, registered on the
// process-wide client reactor. CallAsync registers a future under the
// request's id and writes the frame on the calling thread (the reactor's
// direct-write path); at most kMaxQueuedSends frames may wait for the wire
// before further submissions block, which is the backpressure toward the
// paging policies. Replies are matched to futures by request_id, in any
// order. Whoever holds the connection's read role decodes them: a thread
// blocked in RpcFuture::Wait() when no one else is reading takes the role
// and reads until its own reply is in (run to completion, DESIGN.md §13), so
// a depth-1 caller is woken by the kernel, not by a loop thread. Replies no
// one is waiting for — pipelined futures polled with ready(), a straggler
// after its caller moved on — are read by the event loop. Call() is
// CallAsync().Wait().
class TcpTransport final : public Transport {
 public:
  // Frames the connection will buffer before CallAsync blocks for space
  // (backpressure toward the paging policies).
  static constexpr size_t kMaxQueuedSends = 64;

  // Connects to host:port (host is an IPv4 dotted quad or "localhost").
  // The connection is registered on the process-wide Reactor::Shared().
  // When `auth_token` is non-empty or `tenant` is nonzero, an AUTH handshake
  // runs before the connection is handed back (the AUTH frame is what binds
  // the session's tenant server-side, DESIGN.md §15); a server that requires
  // a different token fails the connect with FAILED_PRECONDITION. A nonzero
  // `tenant` is stamped onto every outgoing request that does not carry one.
  static Result<std::unique_ptr<TcpTransport>> Connect(const std::string& host, uint16_t port,
                                                       const std::string& auth_token = "",
                                                       uint16_t tenant = 0);

  ~TcpTransport() override { Close(); }

  Result<Message> Call(const Message& request) override;
  RpcFuture CallAsync(Message request) override;
  Status SendOneWay(const Message& request) override;
  bool connected() const override;

  // Closes the connection. Every outstanding future completes with
  // UnavailableError. Idempotent.
  void Close() override;

  // Number of requests currently awaiting a reply (test/debug probe).
  size_t inflight() const;

  // Number of callers blocked in CallAsync or SendOneWay because
  // kMaxQueuedSends frames already wait for the wire (test/debug probe).
  size_t space_waiters() const;

 private:
  class Demux;  // The connection's FrameSink: request_id → future demux.

  explicit TcpTransport(std::shared_ptr<ReactorConnection> conn, std::shared_ptr<Demux> demux);

  // RpcFuture private-state bridge for the nested Demux (only TcpTransport
  // is befriended by RpcFuture).
  static std::shared_ptr<RpcFuture::State> NewFutureState() { return RpcFuture::NewState(); }
  static void CompleteFuture(const std::shared_ptr<RpcFuture::State>& state,
                             Result<Message> result) {
    RpcFuture::Complete(state, std::move(result));
  }
  static RpcFuture WrapFuture(std::shared_ptr<RpcFuture::State> state) {
    return RpcFuture(std::move(state));
  }

  std::shared_ptr<ReactorConnection> conn_;
  std::shared_ptr<Demux> demux_;
  uint16_t tenant_ = 0;  // Stamped onto untagged requests; immutable.
};

// Server-side tuning, set in code (no config keys read these). The defaults
// reproduce the paper-scale testbed.
struct TcpServerOptions {
  std::string required_token;  // Empty = open server.
  // Threads servicing requests. Loop threads run a handler only when the
  // scheduler is idle and the request cannot sleep (run to completion,
  // DESIGN.md §13); everything else, and all backlog, goes to this pool.
  // 0 = pick a small default. The pool is shared by every session;
  // sizing it past the typical runnable-lane count buys nothing and costs a
  // futex wake/park round per dispatch (measured ~6% of depth-16 pipelined
  // throughput at 16 workers on one core).
  int service_workers = 8;
  ReactorOptions reactor;
  SchedulerOptions scheduler;

  static constexpr int kListenBacklog = 1024;
};

// Reactor-backed server: one accept listener + N event loops + a fair-share
// scheduled service-worker pool shared by every session.
class TcpServer {
 public:
  using HandlerFactory = std::function<std::unique_ptr<MessageHandler>()>;

  // The common factory: every connection's handler forwards to one shared,
  // thread-safe handler — a MemoryServer serving all of its sessions.
  static HandlerFactory ForwardTo(std::shared_ptr<MessageHandler> handler);

  // Binds to 127.0.0.1:`port` (0 picks an ephemeral port). `factory` is
  // invoked once per accepted connection. When `required_token` is
  // non-empty, every session must open with a matching AUTH message before
  // any other request is served (the paper's privileged-port restriction,
  // modernized). `session_workers` maps onto the reactor model: it sizes the
  // service-worker pool and the per-session lane count, reproducing the old
  // transport's ordering contract — `session_workers == 0` serves each
  // session's requests strictly in order, > 0 allows same-session
  // parallelism with same-slot requests kept ordered.
  static Result<std::unique_ptr<TcpServer>> Start(uint16_t port, HandlerFactory factory,
                                                  std::string required_token = "",
                                                  int session_workers = 0);

  // Full-control overload.
  static Result<std::unique_ptr<TcpServer>> Start(uint16_t port, HandlerFactory factory,
                                                  TcpServerOptions options);

  ~TcpServer();

  uint16_t port() const { return port_; }
  int connections_served() const { return connections_served_.load(); }

  // Sessions currently open (closed sessions are reaped eagerly, not at
  // Shutdown — the connect/disconnect churn regression probe).
  size_t live_sessions() const;

  // Scheduler introspection (per-class served counts in tests).
  const FairShareScheduler& scheduler() const { return *scheduler_; }

  // Stops accepting, closes every session, joins the loop and worker
  // threads. Idempotent.
  void Shutdown();

 private:
  class ServerSession;

  TcpServer(UniqueFd listen_fd, uint16_t port, HandlerFactory factory, TcpServerOptions options);

  void OnAccept(UniqueFd fd);
  void WorkerLoop();
  void Reap(ServerSession* session);

  uint16_t port_;
  HandlerFactory factory_;
  TcpServerOptions options_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<FairShareScheduler> scheduler_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> connections_served_{0};

  mutable std::mutex sessions_mutex_;
  std::unordered_map<ServerSession*, std::shared_ptr<ServerSession>> sessions_;

  std::vector<std::thread> workers_;
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_TCP_H_
