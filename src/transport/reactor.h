// Event-driven transport core (DESIGN.md §13).
//
// A Reactor is a small fixed pool of event-loop threads — one level-triggered
// epoll instance and one eventfd per loop — that multiplexes every registered
// connection over nonblocking sockets. This replaces the thread-per-session
// transport, whose two I/O threads per connection plus per-session worker
// pools were a hard wall at thousands of concurrent paging sessions.
//
// Structure:
//   EventLoop          — owns an epoll fd, an eventfd for cross-thread task
//                        submission, and the connections assigned to it. All
//                        I/O for a connection happens on its loop thread.
//   ReactorConnection  — one nonblocking socket: a resumable FrameReader for
//                        partial reads (the hostile-length checks in
//                        FrameReader::Next are the wire-safety gate), a
//                        partial-write resumable output queue flushed with
//                        scatter-gather writev (header iovec + payload iovec,
//                        zero-copy), thread-safe Send from any thread, and a
//                        read role that a blocked caller can take from the
//                        loop (ReadOnCaller).
//   BufferPool         — registered, reusable read-scratch buffers shared by
//                        the loops and reading callers, so 10k idle
//                        connections do not each pin a 64 KB receive buffer.
//   Reactor            — the loop pool. Connections are assigned round-robin;
//                        Reactor::Shared() is the process-wide client-side
//                        instance (TcpTransport registers there).
//
// Threading contract: OnOpen and OnClose fire on the connection's loop
// thread. OnFrame runs on whichever thread holds the connection's read role —
// the loop, or a caller blocked in ReadOnCaller — and never concurrently with
// another OnFrame of the same connection. OnClose can overlap an OnFrame
// running on a caller thread, so a sink that is read by callers locks its own
// state. Send/Close are safe from any thread. Loop threads never block on
// user work — anything that can block (a service delay, disk) belongs on the
// FairShareScheduler's workers (scheduler.h), not in a FrameSink callback. A sink may run short,
// non-blocking work to completion on the loop (TcpServer does when its
// scheduler is idle); OnFrame's `more` flag tells it when a burst is still
// being decoded, so it can queue instead and let the burst spread.

#ifndef SRC_TRANSPORT_REACTOR_H_
#define SRC_TRANSPORT_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/proto/wire.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace rmp {

// RAII file descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release();
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

struct ReactorOptions {
  // Event-loop threads in the pool. The paper's 1-client/16-server testbed
  // needed none of this; thousands of sessions share these few loops.
  int loop_threads = 2;

  // Size of one pooled read-scratch buffer and how many the pool retains.
  static constexpr size_t kReadChunkBytes = 64 * 1024;
  static constexpr size_t kPooledReadBuffers = 8;
  // SO_SNDBUF for registered sockets. The default tcp_wmem of ~16KB EAGAINs
  // after two 8KB pages, forcing the direct-write path through an EPOLLOUT
  // round trip; 256KB absorbs a depth-16 pipelined burst of page replies
  // without backpressure. Kernel memory is allocated lazily, so idle
  // connections don't pay this.
  static constexpr int kSndbufBytes = 256 * 1024;
};

// Registered, reusable scratch buffers. Loops borrow one per readable event
// instead of every connection pinning its own; the pool caps how many stay
// resident between bursts.
class BufferPool {
 public:
  BufferPool(size_t buffer_bytes, size_t max_pooled);

  class Lease {
   public:
    Lease() = default;
    Lease(BufferPool* pool, std::unique_ptr<uint8_t[]> data) noexcept
        : pool_(pool), data_(std::move(data)) {}
    ~Lease() { Release(); }
    Lease(Lease&& other) noexcept : pool_(other.pool_), data_(std::move(other.data_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    uint8_t* data() { return data_.get(); }
    size_t size() const { return pool_ != nullptr ? pool_->buffer_bytes() : 0; }

   private:
    void Release();
    BufferPool* pool_ = nullptr;
    std::unique_ptr<uint8_t[]> data_;
  };

  Lease Acquire();
  size_t buffer_bytes() const { return buffer_bytes_; }

 private:
  friend class Lease;
  void Release(std::unique_ptr<uint8_t[]> buffer);

  const size_t buffer_bytes_;
  const size_t max_pooled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<uint8_t[]>> free_;
};

class EventLoop;
class Reactor;
class ReactorConnection;

// Decoded-frame and lifecycle callbacks for one connection (see the threading
// contract above for which thread runs each).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  // Fired once, before any OnFrame, when the connection is registered.
  virtual void OnOpen(const std::shared_ptr<ReactorConnection>& conn) { (void)conn; }
  // `more` is true when bytes of another frame follow this one in the same
  // read (or the read filled the scratch buffer, so more are waiting).
  virtual void OnFrame(Message frame, bool more) = 0;
  // Fired exactly once; after it returns the sink is released by the loop.
  virtual void OnClose(const Status& reason) = 0;
};

// One nonblocking socket owned by an event loop.
//
// Reads happen on the loop thread unless a caller has taken the read role
// (ReadOnCaller). Writes use a direct path: the thread calling Send flushes
// the output queue itself (scatter-gather sendmsg on the nonblocking socket)
// when it can take the single-flusher role, so the common uncongested send
// costs no cross-thread hop; only when the socket back-pressures (EAGAIN)
// does the connection arm EPOLLOUT and hand the remainder to the event loop.
class ReactorConnection : public std::enable_shared_from_this<ReactorConnection> {
 public:
  // Queues a frame for transmission. Thread-safe; returns false when the
  // connection is (being) closed and the frame was dropped. `on_written`,
  // when set, fires after the frame's last byte reaches the socket, on
  // whichever thread flushed it (not fired for frames dropped by a close);
  // it must not block or re-enter Send recursively without bound. With
  // `flush` false the frame is only queued (corked); the caller batches
  // several frames and then calls Flush() once, collapsing them into a
  // single scatter-gather write.
  bool Send(Message frame, std::function<void()> on_written = nullptr,
            bool flush = true);

  // Kicks the flusher for frames queued with Send(..., flush=false).
  // Thread-safe; a no-op when the queue is empty or a flush is in flight.
  void Flush() { MaybeFlush(); }

  // Asynchronously tears the connection down; OnClose(reason) fires once on
  // the loop thread. Idempotent, thread-safe.
  void Close(Status reason);

  // Like Close, but the already-queued frames are flushed first (e.g. an
  // auth-failure reply that must reach the peer before the drop).
  void CloseAfterFlush(Status reason);

  // True once the connection stops accepting Sends.
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  int fd() const { return fd_.get(); }

  // Run to completion on the client (DESIGN.md §13): takes the read role
  // from the event loop and reads and dispatches frames on this thread until
  // `done()` is true, then hands the role back. Frames for other waiters go
  // through the same sink, so they complete too. While the role is held the
  // fd's epoll interest drops EPOLLIN, so the loop is not woken for data
  // this thread reads. Returns false at once, having read nothing, when the
  // role is busy (the loop or another caller is reading), the connection is
  // not registered yet or is closed, or this is the connection's own loop
  // thread (which must never block in a read). A hangup or stream error
  // gives the role back and closes the connection (Close, so OnClose fires
  // once on the loop).
  bool ReadOnCaller(const std::function<bool()>& done);

 private:
  friend class EventLoop;
  friend class Reactor;

  struct OutFrame {
    uint8_t prefix[kWirePrefixSize];
    std::vector<uint8_t> payload;
    size_t sent = 0;  // Bytes of prefix+payload already on the wire.
    std::function<void()> on_written;
  };

  ReactorConnection(UniqueFd fd, std::shared_ptr<FrameSink> sink, EventLoop* loop);

  // Tries to take the flusher role and drain the output queue (any thread).
  void MaybeFlush();
  void DoFlush();

  // Loop-thread-only handlers.
  void HandleReadable();
  Status ReadOnLoop(FrameSink& sink);
  void HandleWritable();
  void ArmWriteOnLoop();
  void CloseOnLoop(const Status& reason);

  // The one frame decoder, run by the read-role holder: delivers every
  // complete frame of `chunk` (after any partial frame buffered in reader_)
  // to sink.OnFrame and buffers a trailing partial frame. Returns early, OK,
  // once `stop` turns true after an OnFrame. A non-OK status (hostile
  // length, bad magic, CRC mismatch) means the stream is unusable.
  Status Dispatch(FrameSink& sink, std::span<const uint8_t> chunk, bool read_full,
                  const bool& stop);

  // The fd's epoll interest: EPOLLIN unless a caller holds the read role,
  // EPOLLOUT while a flush waits for socket space. mutex_ held.
  uint32_t InterestLocked() const;
  // Writes InterestLocked() to epoll when the fd is watched. mutex_ held.
  Status SetInterestLocked();

  enum class ReadRole { kNone, kLoop, kCaller };

  EventLoop* loop_;

  // The fd stays open (shutdown, not closed) from CloseOnLoop until the
  // connection object dies, so a concurrent flusher can never write to a
  // recycled descriptor.
  UniqueFd fd_;
  std::atomic<bool> closed_{false};

  // Output state (mutex_-guarded, producers + flusher + loop).
  std::mutex mutex_;
  std::deque<OutFrame> outq_;
  bool flushing_ = false;     // Exactly one thread holds the flusher role.
  bool want_write_ = false;   // EPOLLOUT armed (or being armed); flushers yield.
  bool closing_after_flush_ = false;
  bool close_posted_ = false;
  Status deferred_close_reason_;
  // Read and interest state (mutex_-guarded, loop + reading callers).
  ReadRole read_role_ = ReadRole::kNone;  // Who may touch reader_.
  bool watched_ = false;  // In the loop's epoll set: from Register's ADD to CloseOnLoop.

  // Written only on the loop, under mutex_ (CloseOnLoop moves it out); the
  // loop reads it unlocked, a caller copies it under mutex_ when it claims
  // the read role.
  std::shared_ptr<FrameSink> sink_;
  FrameReader reader_;  // Resumable partial-read state; read-role holder only.

  // Loop-thread-only state.
  bool closed_on_loop_ = false;
};

// One event-loop thread: a level-triggered epoll instance, an eventfd for
// cross-thread task posting, and the connections + listeners assigned to this
// loop.
class EventLoop {
 public:
  EventLoop(int index, BufferPool* pool, const std::string& metric_prefix);
  ~EventLoop();

  Status Start();
  void StopAndJoin();

  // Runs `task` on the loop thread (FIFO relative to other posted tasks).
  // Tasks posted after StopAndJoin are silently dropped.
  void Post(std::function<void()> task);
  bool IsLoopThread() const { return std::this_thread::get_id() == thread_.get_id(); }

 private:
  friend class Reactor;
  friend class ReactorConnection;

  struct Listener {
    UniqueFd fd;
    std::function<void(UniqueFd)> on_accept;
  };

  // epoll_ctl(op = EPOLL_CTL_ADD or EPOLL_CTL_MOD) on this loop's epoll fd.
  // Called on the loop thread, by Start before the thread runs, or by a
  // caller taking or returning a connection's read role (under its mutex_).
  Status Watch(int op, int fd, uint32_t events);
  void Unwatch(int fd);

  void Run();
  void RunTasks();
  void AcceptReady(Listener* listener);
  void CloseAllOnLoop();

  const int index_;
  BufferPool* pool_;
  UniqueFd epoll_fd_;
  UniqueFd wakeup_fd_;
  std::thread thread_;

  std::mutex task_mutex_;
  std::vector<std::function<void()>> tasks_;
  bool wakeup_armed_ = false;     // Under task_mutex_.
  bool accepting_tasks_ = true;   // Under task_mutex_.

  // Loop-thread-only.
  bool running_ = true;
  std::unordered_map<int, std::shared_ptr<ReactorConnection>> conns_;
  std::unordered_map<int, Listener> listeners_;

  Gauge& ready_events_gauge_;
  Counter& dispatches_;
};

// The loop pool. Connections are assigned to loops round-robin.
class Reactor {
 public:
  // `metric_prefix` scopes the per-loop gauges; empty picks a unique
  // "reactor<N>" so concurrent instances (one per TcpServer) do not fight
  // over the same gauge.
  explicit Reactor(ReactorOptions options = ReactorOptions(), std::string metric_prefix = "");
  ~Reactor();

  // The process-wide client-side reactor (TcpTransport connections register
  // here). Loop count from RMP_CLIENT_LOOPS, default 2. Never stopped.
  static Reactor& Shared();

  // Takes ownership of `fd` (made nonblocking), assigns a loop, and starts
  // delivering sink callbacks on that loop's thread. Returns nullptr after
  // Stop().
  std::shared_ptr<ReactorConnection> Register(UniqueFd fd, std::shared_ptr<FrameSink> sink);

  // Watches a listening socket; `on_accept` runs on the loop thread once per
  // accepted (already nonblocking) connection.
  Status AddListener(UniqueFd listen_fd, std::function<void(UniqueFd)> on_accept);

  // Closes every connection and listener (OnClose fires for each), then
  // joins the loop threads. Idempotent.
  void Stop();

  int loop_count() const { return static_cast<int>(loops_.size()); }

 private:
  BufferPool pool_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace rmp

#endif  // SRC_TRANSPORT_REACTOR_H_
