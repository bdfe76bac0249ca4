#include "src/transport/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>

#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/tracing.h"

namespace rmp {
namespace {

// Transport-level telemetry lives in the process-wide registry: transports
// come and go per connection, but queue depth and in-flight totals are only
// meaningful summed across all of them.
struct TransportMetrics {
  Counter& frames_sent;
  Counter& frames_received;
  Counter& connection_failures;
  Gauge& send_queue_depth;
  Gauge& inflight_rpcs;
};

TransportMetrics& TcpMetrics() {
  static TransportMetrics* metrics = new TransportMetrics{
      *MetricsRegistry::Global().GetCounter("tcp.frames_sent"),
      *MetricsRegistry::Global().GetCounter("tcp.frames_received"),
      *MetricsRegistry::Global().GetCounter("tcp.connection_failures"),
      *MetricsRegistry::Global().GetGauge("tcp.send_queue_depth"),
      *MetricsRegistry::Global().GetGauge("tcp.inflight_rpcs"),
  };
  return *metrics;
}

Status ErrnoError(const char* what) {
  return IoError(std::string(what) + ": " + std::strerror(errno));
}

// Reads exactly `len` bytes. UnavailableError on clean EOF, IoError otherwise.
Status RecvExact(int fd, uint8_t* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n == 0) {
      return UnavailableError("peer closed connection");
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError("recv");
    }
    got += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace

Status SendFrame(int fd, const Message& message) {
  uint8_t prefix[kWirePrefixSize];
  EncodeHeader(message, PayloadCrc(std::span<const uint8_t>(message.payload)), prefix);
  iovec iov[2];
  iov[0].iov_base = prefix;
  iov[0].iov_len = kWirePrefixSize;
  iov[1].iov_base = const_cast<uint8_t*>(message.payload.data());
  iov[1].iov_len = message.payload.size();
  size_t first = 0;  // Index of the first iovec with bytes left.
  const int iovcnt = message.payload.empty() ? 1 : 2;
  while (first < static_cast<size_t>(iovcnt)) {
    msghdr msg{};
    msg.msg_iov = &iov[first];
    msg.msg_iovlen = static_cast<size_t>(iovcnt) - first;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError("sendmsg");
    }
    size_t remaining = static_cast<size_t>(n);
    while (first < static_cast<size_t>(iovcnt) && remaining >= iov[first].iov_len) {
      remaining -= iov[first].iov_len;
      ++first;
    }
    if (first < static_cast<size_t>(iovcnt)) {
      iov[first].iov_base = static_cast<uint8_t*>(iov[first].iov_base) + remaining;
      iov[first].iov_len -= remaining;
    }
  }
  return OkStatus();
}

Result<Message> ReadFrame(int fd) {
  uint8_t prefix[kWirePrefixSize];
  Status status = RecvExact(fd, prefix, kWirePrefixSize);
  if (!status.ok()) {
    return status;
  }
  auto header = DecodeHeader(std::span<const uint8_t>(prefix, kWirePrefixSize));
  if (!header.ok()) {
    return header.status();
  }
  Message message = MessageFromHeader(*header);
  if (header->payload_len > 0) {
    message.payload.resize(header->payload_len);
    status = RecvExact(fd, message.payload.data(), message.payload.size());
    if (!status.ok()) {
      return status;
    }
  }
  if (PayloadCrc(std::span<const uint8_t>(message.payload)) != header->payload_crc) {
    return CorruptionError("payload CRC mismatch");
  }
  return message;
}

// --- TcpTransport -----------------------------------------------------------

// The client connection's FrameSink: a request_id → future map plus the
// bounded-submission accounting. Producers run CallAsync from arbitrary
// threads; OnFrame runs on whichever thread holds the read role (the loop or
// a caller blocked in Wait), OnClose on the loop, so all state is under
// mutex_. The demux outlives the TcpTransport if the loop still holds the
// sink when the transport is destroyed, hence the shared_ptr split.
class TcpTransport::Demux final : public FrameSink {
 public:
  RpcFuture Submit(const std::shared_ptr<ReactorConnection>& conn, Message request,
                   std::shared_ptr<Demux> self) {
    auto state = TcpTransport::NewFutureState();
    state->conn = conn;  // Wait() may read the reply off this connection itself.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_cv_.wait(lock, [this] { return stopping_ || unsent_ < kMaxQueuedSends; });
      if (stopping_) {
        return RpcFuture::MakeReady(UnavailableError("transport closed"));
      }
      // Checked after the wait, which drops the lock: a duplicate submitted
      // meanwhile must not be sent with no future to complete.
      if (!pending_.try_emplace(request.request_id, state).second) {
        return RpcFuture::MakeReady(InvalidArgumentError(
            "request_id " + std::to_string(request.request_id) + " already in flight"));
      }
      unsent_ += 1;
      TcpMetrics().inflight_rpcs.Add(1);
      TcpMetrics().send_queue_depth.Add(1);
    }
    // If the connection closed in between, the frame is dropped and OnClose
    // (which always follows) fails the pending entry we just registered.
    conn->Send(std::move(request),
               [self = std::move(self)] { self->OnWritten(); });
    return TcpTransport::WrapFuture(std::move(state));
  }

  Status SubmitOneWay(const std::shared_ptr<ReactorConnection>& conn, Message request,
                      std::shared_ptr<Demux> self) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_) {
        return UnavailableError("transport closed");
      }
      space_cv_.wait(lock, [this] { return stopping_ || unsent_ < kMaxQueuedSends; });
      if (stopping_) {
        return UnavailableError("transport closed");
      }
      unsent_ += 1;
      TcpMetrics().send_queue_depth.Add(1);
    }
    conn->Send(std::move(request),
               [self = std::move(self)] { self->OnWritten(); });
    return OkStatus();
  }

  // Fails every pending and queued request. `count_failure` marks an
  // unexpected (peer-initiated) loss; an explicit Close is not a failure.
  void FailAll(const std::string& reason, bool count_failure) {
    std::unordered_map<uint64_t, std::shared_ptr<RpcFuture::State>> orphaned;
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      first = !stopping_;
      stopping_ = true;
      connected_.store(false, std::memory_order_release);
      orphaned.swap(pending_);
      TcpMetrics().send_queue_depth.Add(-static_cast<int64_t>(unsent_));
      unsent_ = 0;
    }
    if (first && count_failure) {
      TcpMetrics().connection_failures.Increment();
    }
    TcpMetrics().inflight_rpcs.Add(-static_cast<int64_t>(orphaned.size()));
    space_cv_.notify_all();
    for (auto& [id, state] : orphaned) {
      TcpTransport::CompleteFuture(state, UnavailableError(reason));
    }
  }

  bool connected() const { return connected_.load(std::memory_order_acquire); }

  size_t inflight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }

  // FrameSink.
  void OnFrame(Message frame, bool /*more*/) override {
    TcpMetrics().frames_received.Increment();
    std::shared_ptr<RpcFuture::State> state;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(frame.request_id);
      if (it != pending_.end()) {
        state = std::move(it->second);
        pending_.erase(it);
        TcpMetrics().inflight_rpcs.Add(-1);
      }
    }
    if (state != nullptr) {
      TcpTransport::CompleteFuture(state, std::move(frame));
    } else {
      RMP_LOG(kWarning) << "dropping unmatched reply for request_id " << frame.request_id;
    }
  }

  void OnClose(const Status& reason) override {
    FailAll(reason.code() == ErrorCode::kUnavailable ? reason.message()
                                                     : "connection lost: " + reason.message(),
            /*count_failure=*/true);
  }

 private:
  void OnWritten() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (unsent_ > 0) {
        unsent_ -= 1;
        TcpMetrics().send_queue_depth.Add(-1);
      }
    }
    TcpMetrics().frames_sent.Increment();
    space_cv_.notify_one();
  }

  mutable std::mutex mutex_;
  std::condition_variable space_cv_;
  std::unordered_map<uint64_t, std::shared_ptr<RpcFuture::State>> pending_;
  size_t unsent_ = 0;  // Frames accepted but not yet on the wire.
  bool stopping_ = false;
  std::atomic<bool> connected_{true};
};

TcpTransport::TcpTransport(std::shared_ptr<ReactorConnection> conn, std::shared_ptr<Demux> demux)
    : conn_(std::move(conn)), demux_(std::move(demux)) {}

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(const std::string& host,
                                                            uint16_t port,
                                                            const std::string& auth_token,
                                                            uint16_t tenant) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return ErrnoError("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad host address: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoError("connect");
  }
  // Page-sized RPCs benefit from immediate sends.
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto demux = std::make_shared<Demux>();
  auto conn = Reactor::Shared().Register(std::move(fd), demux);
  if (conn == nullptr) {
    return UnavailableError("client reactor unavailable");
  }
  auto transport =
      std::unique_ptr<TcpTransport>(new TcpTransport(std::move(conn), std::move(demux)));
  transport->tenant_ = tenant;
  if (!auth_token.empty() || tenant != 0) {
    // A tenant-only AUTH (empty token against an open server) still runs the
    // handshake: the AUTH frame is what binds the tenant server-side.
    auto reply = transport->Call(MakeAuth(1, auth_token, tenant));
    if (!reply.ok()) {
      return reply.status();
    }
    if (reply->type != MessageType::kAuthReply || reply->status_code() != ErrorCode::kOk) {
      return FailedPreconditionError("server rejected authentication");
    }
  }
  return transport;
}

void TcpTransport::Close() {
  demux_->FailAll("transport closed", /*count_failure=*/false);
  conn_->Close(UnavailableError("transport closed"));
}

RpcFuture TcpTransport::CallAsync(Message request) {
  if (request.tenant == 0) {
    request.tenant = tenant_;
  }
  return demux_->Submit(conn_, std::move(request), demux_);
}

Result<Message> TcpTransport::Call(const Message& request) { return CallAsync(request).Wait(); }

Status TcpTransport::SendOneWay(const Message& request) {
  if (request.tenant == 0 && tenant_ != 0) {
    Message tagged = request;
    tagged.tenant = tenant_;
    return demux_->SubmitOneWay(conn_, std::move(tagged), demux_);
  }
  return demux_->SubmitOneWay(conn_, request, demux_);
}

bool TcpTransport::connected() const { return demux_->connected(); }

size_t TcpTransport::inflight() const { return demux_->inflight(); }

// --- TcpServer --------------------------------------------------------------

// Per-connection server state: the handler, the auth gate, and the scheduler
// session. All FrameSink callbacks run on the connection's loop thread; the
// service workers touch only handler() and SendReply(), both safe after the
// scheduler handoff. The handler may also run on the loop thread itself
// (ServeInline), concurrently with workers serving this session's other
// lanes — the same concurrency a multi-worker dispatch already has.
class TcpServer::ServerSession final : public FrameSink {
 public:
  ServerSession(TcpServer* server, std::unique_ptr<MessageHandler> handler,
                std::string required_token)
      : server_(server),
        handler_(std::move(handler)),
        required_token_(std::move(required_token)),
        authenticated_(required_token_.empty()) {}

  void OnOpen(const std::shared_ptr<ReactorConnection>& conn) override { conn_ = conn; }

  void OnFrame(Message frame, bool more) override {
    if (frame.type == MessageType::kShutdown) {
      conn_->CloseAfterFlush(UnavailableError("session shutdown"));
      return;
    }
    if (frame.type == MessageType::kAuth) {
      const std::string presented(frame.payload.begin(), frame.payload.end());
      const bool good = required_token_.empty() || presented == required_token_;
      authenticated_ = authenticated_ || good;
      if (good && frame.tenant != 0 && tenant_ == 0) {
        // The AUTH frame binds the session's tenant (DESIGN.md §15): every
        // later frame is attributed to it, and the scheduler moves the
        // session into that tenant's fair-share queue.
        tenant_ = frame.tenant;
        server_->scheduler_->SetSessionTenant(sched_, tenant_);
      }
      conn_->Send(MakeAuthReply(frame.request_id,
                                good ? ErrorCode::kOk : ErrorCode::kFailedPrecondition));
      if (!good) {
        // Bad token: the reply flushes, then the connection drops.
        conn_->CloseAfterFlush(FailedPreconditionError("authentication rejected"));
      }
      return;
    }
    if (!authenticated_) {
      // Nothing but AUTH is served before the handshake.
      conn_->Send(MakeErrorReply(frame.request_id, ErrorCode::kFailedPrecondition));
      return;
    }
    if (frame.tenant == 0) {
      frame.tenant = tenant_;  // Attribute untagged frames to the bound tenant.
    } else if (tenant_ == 0) {
      // Open server (or token-only AUTH): the first tagged frame binds.
      tenant_ = frame.tenant;
      server_->scheduler_->SetSessionTenant(sched_, tenant_);
    } else if (frame.tenant != tenant_) {
      // A session speaks for exactly one tenant; a mid-session flip is a
      // spoof attempt (or a confused client), never silently re-attributed.
      conn_->Send(MakeErrorReply(frame.request_id, ErrorCode::kFailedPrecondition));
      return;
    }
    // Only the last frame of a read may run inline: serving a pipelined
    // burst one frame at a time on the loop would serialize it.
    if (!more && ServeInline(frame)) {
      return;
    }
    const uint64_t request_id = frame.request_id;
    switch (server_->scheduler_->SubmitEx(sched_, std::move(frame))) {
      case SubmitResult::kOk:
        break;
      case SubmitResult::kShed:
        // Overload shed: transient, back off and retry (vs kUnavailable's
        // dead-session finality).
        conn_->Send(MakeErrorReply(request_id, ErrorCode::kResourceExhausted));
        break;
      case SubmitResult::kRejected:
        conn_->Send(MakeErrorReply(request_id, ErrorCode::kUnavailable));
        break;
    }
  }

  void OnClose(const Status& reason) override {
    (void)reason;
    server_->Reap(this);
  }

  // Run to completion (DESIGN.md §13): with the scheduler idle, serve the
  // request here and reply without waking a worker. False when the claim is
  // refused or the handler declines (the request could sleep); the caller
  // then submits the untouched request as usual.
  bool ServeInline(const Message& request) {
    FairShareScheduler& scheduler = *server_->scheduler_;
    if (!scheduler.TryClaimInline(sched_, request)) {
      return false;
    }
    InlineService& inline_service = InlineServiceFlags();
    inline_service.active = true;
    inline_service.declined = false;
    Message reply = handler_->Handle(request);
    inline_service.active = false;
    const bool served = !inline_service.declined;
    scheduler.FinishInline(sched_, request, served);
    if (served) {
      conn_->Send(std::move(reply));
    }
    return served;
  }

  MessageHandler* handler() { return handler_.get(); }
  void SendReply(Message reply) { conn_->Send(std::move(reply)); }
  const std::shared_ptr<ReactorConnection>& connection() const { return conn_; }

  std::shared_ptr<FairShareScheduler::Session> sched_;

 private:
  TcpServer* server_;
  std::unique_ptr<MessageHandler> handler_;
  const std::string required_token_;
  bool authenticated_;
  // The session's bound tenant (0 = unbound). Touched only on the
  // connection's loop thread, like the rest of the FrameSink state.
  uint16_t tenant_ = 0;
  std::shared_ptr<ReactorConnection> conn_;
};

TcpServer::HandlerFactory TcpServer::ForwardTo(std::shared_ptr<MessageHandler> handler) {
  struct Forwarder final : MessageHandler {
    explicit Forwarder(std::shared_ptr<MessageHandler> target) : target(std::move(target)) {}
    Message Handle(const Message& request) override { return target->Handle(request); }
    std::shared_ptr<MessageHandler> target;
  };
  return [handler = std::move(handler)]() -> std::unique_ptr<MessageHandler> {
    return std::make_unique<Forwarder>(handler);
  };
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(uint16_t port, HandlerFactory factory,
                                                    std::string required_token,
                                                    int session_workers) {
  TcpServerOptions options;
  options.required_token = std::move(required_token);
  // Map the legacy knob onto the reactor model: `session_workers == 0` meant
  // strict in-order service per session (one lane), > 0 meant slot-affine
  // parallelism (lane = slot % workers, the old worker-pool keying). The knob
  // sets the *ordering contract* (lanes), not the pool size — the service
  // pool is shared by all sessions and stays at its own default.
  options.scheduler.lanes_per_session = session_workers > 0 ? session_workers : 1;
  return Start(port, std::move(factory), std::move(options));
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(uint16_t port, HandlerFactory factory,
                                                    TcpServerOptions options) {
  UniqueFd listen_fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listen_fd.valid()) {
    return ErrnoError("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoError("bind");
  }
  if (::listen(listen_fd.get(), TcpServerOptions::kListenBacklog) != 0) {
    return ErrnoError("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoError("getsockname");
  }
  const uint16_t bound_port = ntohs(addr.sin_port);
  return std::unique_ptr<TcpServer>(
      new TcpServer(std::move(listen_fd), bound_port, std::move(factory), std::move(options)));
}

TcpServer::TcpServer(UniqueFd listen_fd, uint16_t port, HandlerFactory factory,
                     TcpServerOptions options)
    : port_(port), factory_(std::move(factory)), options_(std::move(options)) {
  reactor_ = std::make_unique<Reactor>(options_.reactor);
  scheduler_ = std::make_unique<FairShareScheduler>(options_.scheduler);
  const int workers = options_.service_workers < 1 ? 1 : options_.service_workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  Status listening =
      reactor_->AddListener(std::move(listen_fd), [this](UniqueFd fd) { OnAccept(std::move(fd)); });
  if (!listening.ok()) {
    RMP_LOG(kError) << "listener setup failed: " << listening.ToString();
  }
}

TcpServer::~TcpServer() { Shutdown(); }

void TcpServer::OnAccept(UniqueFd fd) {
  if (stopping_.load(std::memory_order_acquire)) {
    return;  // Dropping the fd closes the connection.
  }
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto session = std::make_shared<ServerSession>(this, factory_(), options_.required_token);
  session->sched_ = scheduler_->AddSession(session);
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.emplace(session.get(), session);
  }
  connections_served_.fetch_add(1);
  if (reactor_->Register(std::move(fd), session) == nullptr) {
    Reap(session.get());
  }
}

void TcpServer::WorkerLoop() {
  FairShareScheduler::Item item;
  bool have = scheduler_->Next(&item);
  while (have) {
    auto session = std::static_pointer_cast<ServerSession>(item.owner);
    if (session != nullptr) {
      if (item.request.trace_id() != 0) {
        // Traced request (DESIGN.md §17): hand the handler its scheduler
        // queue + lane wait so the server can record a srv_queue span.
        // Untraced requests skip even the clock read.
        const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now().time_since_epoch())
                                .count();
        ServerScratch().queue_ns = std::max<int64_t>(0, now - item.enqueue_ns);
      }
      Message reply = session->handler()->Handle(item.request);
      session->SendReply(std::move(reply));
    }
    auto sched_session = std::move(item.session);
    const int lane = item.lane;
    item = FairShareScheduler::Item();  // Drop session refs before blocking.
    have = scheduler_->DoneAndNext(sched_session, lane, &item);
  }
}

void TcpServer::Reap(ServerSession* session) {
  std::shared_ptr<ServerSession> owned;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return;
    }
    owned = std::move(it->second);
    sessions_.erase(it);
  }
  scheduler_->RemoveSession(owned->sched_);
}

size_t TcpServer::live_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

void TcpServer::Shutdown() {
  if (stopping_.exchange(true)) {
    return;
  }
  // Order matters: stopping the reactor closes every connection (OnClose →
  // Reap runs on the loop threads before Stop returns), then the scheduler
  // wakes the workers, which drain and exit. In-flight items keep their
  // sessions alive via the owner backref until the workers drop them.
  reactor_->Stop();
  scheduler_->Stop();
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_.clear();
}

}  // namespace rmp
