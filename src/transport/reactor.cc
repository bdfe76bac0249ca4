#include "src/transport/reactor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/util/logging.h"

namespace rmp {

namespace {

Status ErrnoError(const char* what) {
  return IoError(std::string(what) + ": " + std::strerror(errno));
}

// Process-wide reactor counters: connections come and go, so totals are only
// meaningful summed across every loop and instance.
struct ReactorMetrics {
  Counter& frames_sent;
  Counter& frames_received;
  Counter& bytes_sent;
  Counter& bytes_received;
  Counter& accepts;
  Gauge& connections;
};

ReactorMetrics& Metrics() {
  static ReactorMetrics* metrics = new ReactorMetrics{
      *MetricsRegistry::Global().GetCounter("reactor.frames_sent"),
      *MetricsRegistry::Global().GetCounter("reactor.frames_received"),
      *MetricsRegistry::Global().GetCounter("reactor.bytes_sent"),
      *MetricsRegistry::Global().GetCounter("reactor.bytes_received"),
      *MetricsRegistry::Global().GetCounter("reactor.accepts"),
      *MetricsRegistry::Global().GetGauge("reactor.connections"),
  };
  return *metrics;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl(O_NONBLOCK)");
  }
  return OkStatus();
}

// Frames handed to writev per call: 32 frames → at most 64 iovecs, well
// under IOV_MAX, large enough to coalesce small acks into one syscall.
constexpr size_t kWritevFrames = 32;
constexpr int kMaxPollEvents = 128;
// Read rounds per readable event; level-triggered epoll re-fires for the
// rest, so one flooding connection cannot monopolize its loop.
constexpr int kReadRounds = 4;
constexpr int kAcceptsPerEvent = 64;

}  // namespace

// --- UniqueFd ---------------------------------------------------------------

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) {
    Reset(other.Release());
  }
  return *this;
}

int UniqueFd::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = fd;
}

// --- BufferPool -------------------------------------------------------------

BufferPool::BufferPool(size_t buffer_bytes, size_t max_pooled)
    : buffer_bytes_(buffer_bytes), max_pooled_(max_pooled) {}

BufferPool::Lease& BufferPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    data_ = std::move(other.data_);
    other.pool_ = nullptr;
  }
  return *this;
}

void BufferPool::Lease::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    pool_->Release(std::move(data_));
  }
  pool_ = nullptr;
}

BufferPool::Lease BufferPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto buffer = std::move(free_.back());
      free_.pop_back();
      return Lease(this, std::move(buffer));
    }
  }
  return Lease(this, std::make_unique<uint8_t[]>(buffer_bytes_));
}

void BufferPool::Release(std::unique_ptr<uint8_t[]> buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() < max_pooled_) {
    free_.push_back(std::move(buffer));
  }
}

// --- ReactorConnection ------------------------------------------------------

ReactorConnection::ReactorConnection(UniqueFd fd, std::shared_ptr<FrameSink> sink,
                                     EventLoop* loop)
    : loop_(loop), fd_(std::move(fd)), sink_(std::move(sink)) {}

bool ReactorConnection::Send(Message frame, std::function<void()> on_written,
                             bool flush) {
  OutFrame out;
  EncodeHeader(frame, PayloadCrc(std::span<const uint8_t>(frame.payload)), out.prefix);
  out.payload = std::move(frame.payload);
  out.on_written = std::move(on_written);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) {
      return false;
    }
    outq_.push_back(std::move(out));
  }
  if (flush) {
    MaybeFlush();
  }
  return true;
}

void ReactorConnection::Close(Status reason) {
  closed_.store(true, std::memory_order_release);
  loop_->Post([self = shared_from_this(), reason = std::move(reason)] {
    self->CloseOnLoop(reason);
  });
}

void ReactorConnection::CloseAfterFlush(Status reason) {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_.store(true, std::memory_order_release);  // No further Sends.
    closing_after_flush_ = true;
    deferred_close_reason_ = reason;
    if (outq_.empty() && !close_posted_) {
      close_posted_ = true;
      drained = true;
    }
  }
  if (drained) {
    loop_->Post([self = shared_from_this(), reason = std::move(reason)] {
      self->CloseOnLoop(reason);
    });
  }
  // Otherwise the flusher that drains the last frame posts the close.
}

void ReactorConnection::MaybeFlush() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A running flusher picks up newly queued frames itself; with EPOLLOUT
    // armed the loop owns the resumption.
    if (flushing_ || want_write_ || outq_.empty()) {
      return;
    }
    flushing_ = true;
  }
  DoFlush();
}

void ReactorConnection::DoFlush() {
  // Holds the single-flusher role: only this thread pops outq_ until it
  // clears `flushing_`, so iovecs built under the lock stay valid across the
  // unlocked sendmsg (deque push_back does not invalidate references).
  std::vector<std::function<void()>> completed;
  std::deque<OutFrame> dropped;
  for (;;) {
    iovec iov[kWritevFrames * 2];
    int iovcnt = 0;
    size_t want = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_.load(std::memory_order_relaxed) && close_posted_) {
        // CloseOnLoop ran (or is posted) while we flushed: it left the queue
        // to us. Drop it without firing callbacks.
        dropped.swap(outq_);
        flushing_ = false;
        break;
      }
      if (outq_.empty() || want_write_) {
        if (outq_.empty() && closing_after_flush_ && !close_posted_) {
          close_posted_ = true;
          loop_->Post([self = shared_from_this()] {
            self->CloseOnLoop(self->deferred_close_reason_);
          });
        }
        flushing_ = false;
        break;
      }
      // Scatter-gather straight out of the queued frames (no coalescing
      // copy): each frame contributes its header iovec and its payload
      // iovec, offset by how much a previous partial write already sent.
      for (const OutFrame& frame : outq_) {
        if (iovcnt + 2 > static_cast<int>(kWritevFrames * 2)) {
          break;
        }
        size_t offset = frame.sent;
        if (offset < kWirePrefixSize) {
          iov[iovcnt].iov_base = const_cast<uint8_t*>(frame.prefix) + offset;
          iov[iovcnt].iov_len = kWirePrefixSize - offset;
          ++iovcnt;
          offset = 0;
        } else {
          offset -= kWirePrefixSize;
        }
        if (offset < frame.payload.size()) {
          iov[iovcnt].iov_base = const_cast<uint8_t*>(frame.payload.data()) + offset;
          iov[iovcnt].iov_len = frame.payload.size() - offset;
          ++iovcnt;
        }
      }
      for (int i = 0; i < iovcnt; ++i) {
        want += iov[i].iov_len;
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Socket full: hand the remainder to the event loop via EPOLLOUT.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          want_write_ = true;
          flushing_ = false;
        }
        if (loop_->IsLoopThread()) {
          ArmWriteOnLoop();
        } else {
          loop_->Post([self = shared_from_this()] { self->ArmWriteOnLoop(); });
        }
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        flushing_ = false;
      }
      Close(ErrnoError("sendmsg"));
      break;
    }
    Metrics().bytes_sent.Increment(n);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      size_t remaining = static_cast<size_t>(n);
      while (remaining > 0 && !outq_.empty()) {
        OutFrame& frame = outq_.front();
        const size_t total = kWirePrefixSize + frame.payload.size();
        const size_t take = std::min(remaining, total - frame.sent);
        frame.sent += take;
        remaining -= take;
        if (frame.sent < total) {
          break;
        }
        Metrics().frames_sent.Increment();
        if (frame.on_written) {
          completed.push_back(std::move(frame.on_written));
        }
        outq_.pop_front();
      }
    }
    for (auto& cb : completed) {
      cb();
    }
    completed.clear();
    if (static_cast<size_t>(n) < want) {
      // Short write: the socket buffer is (nearly) full. Try once more; the
      // next sendmsg returns EAGAIN if it truly is, arming EPOLLOUT above.
      continue;
    }
  }
}

uint32_t ReactorConnection::InterestLocked() const {
  uint32_t events = 0;
  if (read_role_ != ReadRole::kCaller) {
    events |= EPOLLIN;
  }
  if (want_write_) {
    events |= EPOLLOUT;
  }
  return events;
}

Status ReactorConnection::SetInterestLocked() {
  if (!watched_) {
    return OkStatus();
  }
  return loop_->Watch(EPOLL_CTL_MOD, fd_.get(), InterestLocked());
}

void ReactorConnection::ArmWriteOnLoop() {
  Status status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    status = SetInterestLocked();
  }
  if (!status.ok()) {
    CloseOnLoop(status);
  }
}

void ReactorConnection::HandleWritable() {
  if (closed_on_loop_) {
    return;
  }
  bool take = false;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    want_write_ = false;
    // Disarm EPOLLOUT before flushing: level-triggered OUT on a writable
    // socket would spin the loop otherwise. A renewed EAGAIN re-arms it.
    status = SetInterestLocked();
    if (status.ok() && !flushing_) {
      flushing_ = true;
      take = true;
    }
  }
  if (!status.ok()) {
    CloseOnLoop(status);
    return;
  }
  if (take) {
    DoFlush();
  }
}

void ReactorConnection::HandleReadable() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (read_role_ != ReadRole::kNone) {
      return;  // A caller is reading this data on its own thread.
    }
    read_role_ = ReadRole::kLoop;
  }
  // Hold the sink across the reads: a sink that closes us mid-batch must
  // not be freed under its own OnFrame.
  std::shared_ptr<FrameSink> sink = sink_;
  Status status = ReadOnLoop(*sink);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    read_role_ = ReadRole::kNone;
  }
  if (!status.ok()) {
    CloseOnLoop(status);
  }
}

Status ReactorConnection::ReadOnLoop(FrameSink& sink) {
  BufferPool::Lease lease = loop_->pool_->Acquire();
  for (int round = 0; round < kReadRounds; ++round) {
    const ssize_t n = ::recv(fd_.get(), lease.data(), lease.size(), 0);
    if (n > 0) {
      Metrics().bytes_received.Increment(n);
      const bool read_full = static_cast<size_t>(n) == lease.size();
      Status status = Dispatch(sink, std::span<const uint8_t>(lease.data(), static_cast<size_t>(n)),
                               read_full, closed_on_loop_);
      if (!status.ok()) {
        return status;
      }
      if (closed_on_loop_ || !read_full) {
        // Closed by the sink, or likely drained; level-triggered poll
        // re-fires otherwise.
        return OkStatus();
      }
      continue;
    }
    if (n == 0) {
      return UnavailableError("peer closed connection");
    }
    if (errno == EINTR) {
      --round;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return OkStatus();
    }
    return ErrnoError("recv");
  }
  return OkStatus();
}

Status ReactorConnection::Dispatch(FrameSink& sink, std::span<const uint8_t> chunk,
                                   bool read_full, const bool& stop) {
  // Resume a partial frame through the buffering FrameReader first; its
  // hostile-length check (payload_len bound before any buffering) is the
  // wire-safety gate for the slow path.
  if (reader_.buffered_bytes() > 0) {
    reader_.Feed(chunk);
    chunk = {};
    for (;;) {
      auto frame = reader_.Next();
      if (!frame.ok()) {
        if (frame.status().code() == ErrorCode::kNotFound) {
          break;  // Partial frame; resume on the next read.
        }
        return frame.status();  // Hostile length / bad magic / CRC mismatch.
      }
      Metrics().frames_received.Increment();
      sink.OnFrame(std::move(*frame), read_full || reader_.buffered_bytes() > 0);
      if (stop) {
        return OkStatus();
      }
    }
  }
  // Fast path: decode complete frames straight out of the scratch buffer,
  // skipping the FrameReader copy; only a trailing partial frame is
  // buffered. DecodeHeader performs the same magic / reserved field /
  // payload-bound validation the FrameReader path applies.
  while (chunk.size() >= kWirePrefixSize) {
    auto header = DecodeHeader(chunk.subspan(0, kWirePrefixSize));
    if (!header.ok()) {
      return header.status();
    }
    const size_t total = kWirePrefixSize + header->payload_len;
    if (chunk.size() < total) {
      break;
    }
    Message frame = MessageFromHeader(*header);
    if (header->payload_len > 0) {
      frame.payload.assign(chunk.data() + kWirePrefixSize, chunk.data() + total);
    }
    if (PayloadCrc(std::span<const uint8_t>(frame.payload)) != header->payload_crc) {
      return CorruptionError("payload CRC mismatch");
    }
    Metrics().frames_received.Increment();
    sink.OnFrame(std::move(frame), read_full || chunk.size() > total);
    if (stop) {
      return OkStatus();
    }
    chunk = chunk.subspan(total);
  }
  if (!chunk.empty()) {
    reader_.Feed(chunk);
  }
  return OkStatus();
}

bool ReactorConnection::ReadOnCaller(const std::function<bool()>& done) {
  std::shared_ptr<FrameSink> sink;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (read_role_ != ReadRole::kNone || !watched_ || sink_ == nullptr ||
        closed_.load(std::memory_order_relaxed) || loop_->IsLoopThread()) {
      return false;
    }
    read_role_ = ReadRole::kCaller;
    status = SetInterestLocked();
    if (!status.ok()) {
      read_role_ = ReadRole::kNone;
    }
    sink = sink_;  // CloseOnLoop may move sink_ out while we read.
  }
  if (!status.ok()) {
    Close(status);
    return false;
  }
  BufferPool::Lease lease = loop_->pool_->Acquire();
  const bool never = false;  // Dispatch's `stop`: only the loop closes mid-dispatch.
  while (status.ok() && !done()) {
    const ssize_t n = ::recv(fd_.get(), lease.data(), lease.size(), MSG_DONTWAIT);
    if (n > 0) {
      Metrics().bytes_received.Increment(n);
      status = Dispatch(*sink, std::span<const uint8_t>(lease.data(), static_cast<size_t>(n)),
                        static_cast<size_t>(n) == lease.size(), never);
    } else if (n == 0) {
      status = UnavailableError("peer closed connection");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // A local close shuts the socket down, which wakes this poll too.
      pollfd pfd{fd_.get(), POLLIN, 0};
      (void)::poll(&pfd, 1, -1);
    } else if (errno != EINTR) {
      status = ErrnoError("recv");
    }
  }
  if (!status.ok()) {
    Close(status);  // Before the hand-back, so no one claims a dead stream.
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    read_role_ = ReadRole::kNone;
    status = SetInterestLocked();  // The loop reads whatever is left.
  }
  if (!status.ok()) {
    Close(status);
  }
  return true;
}

void ReactorConnection::CloseOnLoop(const Status& reason) {
  if (closed_on_loop_) {
    return;
  }
  closed_on_loop_ = true;
  std::deque<OutFrame> dropped;
  // Release the sink after the callback: breaks the conn↔sink ownership
  // cycle so sessions free as soon as their owner lets go. A caller reading
  // on its own thread holds its own reference.
  std::shared_ptr<FrameSink> sink;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_.store(true, std::memory_order_release);
    close_posted_ = true;
    if (!flushing_) {
      // No flusher mid-sendmsg: safe to free the queued frames here. An
      // active flusher sees closed_ + close_posted_ on its next lock and
      // drops the queue itself (freeing frames under it would leave its
      // iovecs dangling).
      dropped.swap(outq_);
    }
    if (watched_) {
      loop_->Unwatch(fd_.get());
      watched_ = false;
    }
    sink = std::move(sink_);
  }
  loop_->conns_.erase(fd_.get());
  // Shutdown, don't close: the fd stays allocated until the connection
  // object dies, so a racing flusher can never write to a recycled
  // descriptor (its sendmsg just fails with EPIPE).
  ::shutdown(fd_.get(), SHUT_RDWR);
  Metrics().connections.Add(-1);
  if (sink != nullptr) {
    sink->OnClose(reason);
  }
}

// --- EventLoop --------------------------------------------------------------

EventLoop::EventLoop(int index, BufferPool* pool, const std::string& metric_prefix)
    : index_(index),
      pool_(pool),
      ready_events_gauge_(*MetricsRegistry::Global().GetGauge(
          metric_prefix + ".loop" + std::to_string(index) + ".ready_events")),
      dispatches_(*MetricsRegistry::Global().GetCounter(
          metric_prefix + ".loop" + std::to_string(index) + ".dispatches")) {}

EventLoop::~EventLoop() { StopAndJoin(); }

Status EventLoop::Start() {
  epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return ErrnoError("epoll_create1");
  }
  wakeup_fd_.Reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wakeup_fd_.valid()) {
    return ErrnoError("eventfd");
  }
  Status status = Watch(EPOLL_CTL_ADD, wakeup_fd_.get(), EPOLLIN);
  if (!status.ok()) {
    return status;
  }
  thread_ = std::thread([this] { Run(); });
  return OkStatus();
}

Status EventLoop::Watch(int op, int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
    return ErrnoError("epoll_ctl");
  }
  return OkStatus();
}

void EventLoop::Unwatch(int fd) {
  epoll_event ev{};
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, &ev);
}

void EventLoop::Post(std::function<void()> task) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    if (!accepting_tasks_) {
      return;
    }
    tasks_.push_back(std::move(task));
    if (!wakeup_armed_) {
      wakeup_armed_ = true;
      wake = true;
    }
  }
  if (wake) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeup_fd_.get(), &one, sizeof(one));
  }
}

void EventLoop::RunTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    tasks.swap(tasks_);
    wakeup_armed_ = false;
  }
  for (auto& task : tasks) {
    task();
  }
}

void EventLoop::AcceptReady(Listener* listener) {
  for (int i = 0; i < kAcceptsPerEvent; ++i) {
    const int fd = ::accept4(listener->fd.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ECONNABORTED) {
        RMP_LOG(kWarning) << "accept failed: " << std::strerror(errno);
      }
      return;
    }
    Metrics().accepts.Increment();
    listener->on_accept(UniqueFd(fd));
  }
}

void EventLoop::CloseAllOnLoop() {
  // Copy: CloseOnLoop erases from conns_.
  std::vector<std::shared_ptr<ReactorConnection>> conns;
  conns.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) {
    conns.push_back(conn);
  }
  for (auto& conn : conns) {
    conn->CloseOnLoop(UnavailableError("reactor stopped"));
  }
  listeners_.clear();
}

void EventLoop::Run() {
  epoll_event events[kMaxPollEvents];
  while (running_) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxPollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      RMP_LOG(kWarning) << "epoll_wait failed on loop " << index_ << ": "
                        << std::strerror(errno) << "; loop exiting";
      break;
    }
    ready_events_gauge_.Set(n);
    for (int i = 0; i < n && running_; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ready = events[i].events;
      dispatches_.Increment();
      if (fd == wakeup_fd_.get()) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(wakeup_fd_.get(), &drained, sizeof(drained));
        RunTasks();
        continue;
      }
      auto listener_it = listeners_.find(fd);
      if (listener_it != listeners_.end()) {
        AcceptReady(&listener_it->second);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;  // Closed earlier in this batch.
      }
      std::shared_ptr<ReactorConnection> conn = it->second;
      if ((ready & EPOLLERR) != 0) {
        conn->CloseOnLoop(IoError("socket error"));
        continue;
      }
      if ((ready & (EPOLLIN | EPOLLHUP | EPOLLRDHUP)) != 0) {
        conn->HandleReadable();
      }
      if ((ready & EPOLLOUT) != 0) {
        conn->HandleWritable();
      }
    }
  }
}

void EventLoop::StopAndJoin() {
  if (!thread_.joinable()) {
    return;
  }
  Post([this] {
    CloseAllOnLoop();
    running_ = false;
  });
  thread_.join();
  std::lock_guard<std::mutex> lock(task_mutex_);
  accepting_tasks_ = false;
  tasks_.clear();
}

// --- Reactor ----------------------------------------------------------------

namespace {
std::string AutoPrefix(const std::string& requested) {
  if (!requested.empty()) {
    return requested;
  }
  static std::atomic<int> next{0};
  return "reactor" + std::to_string(next.fetch_add(1));
}
}  // namespace

Reactor::Reactor(ReactorOptions options, std::string metric_prefix)
    : pool_(ReactorOptions::kReadChunkBytes, ReactorOptions::kPooledReadBuffers) {
  const std::string prefix = AutoPrefix(metric_prefix);
  const int loops = options.loop_threads < 1 ? 1 : options.loop_threads;
  loops_.reserve(static_cast<size_t>(loops));
  for (int i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(i, &pool_, prefix));
    Status started = loops_.back()->Start();
    if (!started.ok()) {
      RMP_LOG(kError) << "event loop " << i << " failed to start: " << started.ToString();
      loops_.pop_back();
    }
  }
  if (loops_.empty()) {
    // Keep the invariant that at least one loop exists; a loop whose Start
    // failed still drops posted tasks safely.
    loops_.push_back(std::make_unique<EventLoop>(0, &pool_, prefix));
    (void)loops_.back()->Start();
  }
}

Reactor::~Reactor() { Stop(); }

Reactor& Reactor::Shared() {
  static Reactor* shared = [] {
    ReactorOptions options;
    if (const char* env = std::getenv("RMP_CLIENT_LOOPS")) {
      const int loops = std::atoi(env);
      if (loops >= 1 && loops <= 64) {
        options.loop_threads = loops;
      }
    }
    return new Reactor(options, "reactor.cli");
  }();
  return *shared;
}

std::shared_ptr<ReactorConnection> Reactor::Register(UniqueFd fd,
                                                     std::shared_ptr<FrameSink> sink) {
  if (stopped_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  Status nonblocking = SetNonBlocking(fd.get());
  if (!nonblocking.ok()) {
    return nullptr;
  }
  // Nonblocking writers pay an EPOLLOUT round trip (two epoll_ctl calls plus
  // a poll cycle of delay) every time sendmsg hits EAGAIN; the kernel default
  // (net.ipv4.tcp_wmem[1], commonly 16KB) backpressures after two pages.
  // Explicit headroom keeps the direct-write fast path direct.
  const int sndbuf = ReactorOptions::kSndbufBytes;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  EventLoop* loop =
      loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size()].get();
  auto conn = std::shared_ptr<ReactorConnection>(
      new ReactorConnection(std::move(fd), std::move(sink), loop));
  loop->Post([loop, conn] {
    const int fd = conn->fd_.get();
    loop->conns_[fd] = conn;
    Metrics().connections.Add(1);
    conn->sink_->OnOpen(conn);
    Status added;
    {
      std::lock_guard<std::mutex> lock(conn->mutex_);
      added = loop->Watch(EPOLL_CTL_ADD, fd, conn->InterestLocked());
      conn->watched_ = added.ok();
    }
    if (!added.ok()) {
      conn->CloseOnLoop(added);
    }
  });
  return conn;
}

Status Reactor::AddListener(UniqueFd listen_fd, std::function<void(UniqueFd)> on_accept) {
  if (stopped_.load(std::memory_order_acquire)) {
    return UnavailableError("reactor stopped");
  }
  Status nonblocking = SetNonBlocking(listen_fd.get());
  if (!nonblocking.ok()) {
    return nonblocking;
  }
  EventLoop* loop =
      loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size()].get();
  const int fd = listen_fd.get();
  loop->Post([loop, fd, listen_fd = std::make_shared<UniqueFd>(std::move(listen_fd)),
              on_accept = std::move(on_accept)]() mutable {
    EventLoop::Listener listener;
    listener.fd = std::move(*listen_fd);
    listener.on_accept = std::move(on_accept);
    Status added = loop->Watch(EPOLL_CTL_ADD, fd, EPOLLIN);
    if (!added.ok()) {
      RMP_LOG(kError) << "listener registration failed: " << added.ToString();
      return;
    }
    loop->listeners_.emplace(fd, std::move(listener));
  });
  return OkStatus();
}

void Reactor::Stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  for (auto& loop : loops_) {
    loop->StopAndJoin();
  }
}

}  // namespace rmp
