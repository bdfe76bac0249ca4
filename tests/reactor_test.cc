// Reactor transport conformance: the event-loop core, the two-level
// fair-share scheduler, and the TcpServer session bookkeeping on top of them
// (ctest label: reactor_smoke, exercised under TSan/ASan by
// scripts/check_sanitizers.sh).
//
// The suite covers what the thread-per-session transport never had to prove:
// fairness under class contention (a background resilver flood must not
// starve a foreground page fault), hostile bytes on one multiplexed socket
// must not take down the loop serving every other session, and session
// bookkeeping must survive both connect/disconnect churn and thousands of
// concurrent sessions on a fixed thread pool.

#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/server/memory_server.h"
#include "src/transport/scheduler.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// --- FairShareScheduler unit tests ------------------------------------------
// Each test uses a unique metric prefix: the registry is process-global, so a
// shared prefix would alias gauges across tests.

TEST(FairShareScheduler, TryNextIsNonBlockingWhenEmpty) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_empty");
  FairShareScheduler::Item item;
  EXPECT_FALSE(scheduler.TryNext(&item));
}

TEST(FairShareScheduler, PerLaneFifoOrder) {
  SchedulerOptions options;
  options.lanes_per_session = 4;
  FairShareScheduler scheduler(options, "schedtest_fifo");
  auto session = scheduler.AddSession(nullptr);
  // Same slot → same lane → strict FIFO even though other lanes interleave.
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(scheduler.Submit(session, MakePageIn(id, /*slot=*/8)));
  }
  for (uint64_t id = 1; id <= 4; ++id) {
    FairShareScheduler::Item item;
    ASSERT_TRUE(scheduler.TryNext(&item));
    EXPECT_EQ(item.request.request_id, id);
    // The lane is held out of rotation until Done: the next same-lane item
    // must not be dispatchable yet.
    FairShareScheduler::Item stolen;
    EXPECT_FALSE(scheduler.TryNext(&stolen));
    scheduler.Done(item);
  }
}

TEST(FairShareScheduler, WeightedSharesFavorPageinUnderContention) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_wrr");
  // Two sessions so the classes ride distinct lanes: heartbeats carry slot 0
  // and would otherwise share (and FIFO-serialize with) the pagein lane.
  auto faulting = scheduler.AddSession(nullptr);
  auto resilver = scheduler.AddSession(nullptr);
  for (uint64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE(scheduler.Submit(faulting, MakePageIn(id, /*slot=*/0)));
    ASSERT_TRUE(scheduler.Submit(resilver, MakeHeartbeat(100 + id)));
  }
  // Default weights are 8:4:2:1, so one full credit round dispatches 8
  // pageins before the single background grant.
  int pageins_in_first_nine = 0;
  for (int i = 0; i < 9; ++i) {
    FairShareScheduler::Item item;
    ASSERT_TRUE(scheduler.TryNext(&item));
    if (ClassifyMessage(item.request.type) == TrafficClass::kPagein) {
      ++pageins_in_first_nine;
    }
    scheduler.Done(item);
  }
  EXPECT_EQ(pageins_in_first_nine, 8);
  // No starvation in either direction: the remaining 11 items (2 pagein, 9
  // background) all drain.
  int drained = 0;
  FairShareScheduler::Item item;
  while (scheduler.TryNext(&item)) {
    ++drained;
    scheduler.Done(item);
  }
  EXPECT_EQ(drained, 11);
  EXPECT_EQ(scheduler.queued(), 0u);
}

TEST(FairShareScheduler, RemoveSessionPurgesQueuedWork) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_purge");
  auto session = scheduler.AddSession(nullptr);
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(scheduler.Submit(session, MakePageIn(id, id)));
  }
  scheduler.RemoveSession(session);
  FairShareScheduler::Item item;
  EXPECT_FALSE(scheduler.TryNext(&item));
  EXPECT_FALSE(scheduler.Submit(session, MakePageIn(9, 9)));
  EXPECT_EQ(scheduler.queued(), 0u);
}

TEST(FairShareScheduler, DoneAndNextServesBacklogThenParksUntilStop) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_fused");
  auto session = scheduler.AddSession(nullptr);
  ASSERT_TRUE(scheduler.Submit(session, MakePageIn(1, 0)));
  ASSERT_TRUE(scheduler.Submit(session, MakePageIn(2, 0)));
  FairShareScheduler::Item item;
  ASSERT_TRUE(scheduler.Next(&item));
  EXPECT_EQ(item.request.request_id, 1u);
  // Fused completion: finishing request 1 must hand back request 2 without a
  // separate Done/Next pair.
  FairShareScheduler::Item second;
  ASSERT_TRUE(scheduler.DoneAndNext(item.session, item.lane, &second));
  EXPECT_EQ(second.request.request_id, 2u);
  scheduler.Done(second);
  EXPECT_FALSE(scheduler.TryNext(&item));
}

TEST(FairShareScheduler, StopUnblocksParkedWorkers) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_stop");
  std::atomic<int> returned{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&] {
      FairShareScheduler::Item item;
      EXPECT_FALSE(scheduler.Next(&item));
      returned.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.Stop();
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(returned.load(), 3);
}

// --- Tenant-level WFQ and shedding (DESIGN.md §15) ---------------------------

TEST(FairShareScheduler, TenantWeightsSplitDispatchFourToOne) {
  SchedulerOptions options;
  options.tenant_weights = {{1, 4}, {2, 1}};
  options.lanes_per_session = 1;
  FairShareScheduler scheduler(options, "schedtest_tenant_wfq");
  auto heavy = scheduler.AddSession(nullptr, /*tenant=*/1);
  auto light = scheduler.AddSession(nullptr, /*tenant=*/2);
  // Both tenants keep a same-class backlog, so every dispatch is a pure
  // weight decision.
  for (uint64_t id = 1; id <= 200; ++id) {
    ASSERT_TRUE(scheduler.Submit(heavy, MakePageIn(id, id)));
    ASSERT_TRUE(scheduler.Submit(light, MakePageIn(1000 + id, id)));
  }
  for (int i = 0; i < 100; ++i) {
    FairShareScheduler::Item item;
    ASSERT_TRUE(scheduler.TryNext(&item));
    scheduler.Done(item);
  }
  // 4:1 within ±10% of the dispatch share.
  EXPECT_NEAR(static_cast<double>(scheduler.TenantServed(1)) / 100.0, 0.8, 0.1);
  EXPECT_NEAR(static_cast<double>(scheduler.TenantServed(2)) / 100.0, 0.2, 0.1);
  // Ratios, not priorities: the light tenant's backlog still drains fully.
  FairShareScheduler::Item item;
  while (scheduler.TryNext(&item)) {
    scheduler.Done(item);
  }
  EXPECT_EQ(scheduler.TenantServed(1), 200u);
  EXPECT_EQ(scheduler.TenantServed(2), 200u);
}

TEST(FairShareScheduler, FloodingTenantCannotStarveAnotherTenantsControl) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_tenant_ctl");
  auto flood = scheduler.AddSession(nullptr, /*tenant=*/1);
  auto victim = scheduler.AddSession(nullptr, /*tenant=*/2);
  // Tenant 1 floods every class; tenant 2 has one control request queued.
  for (uint64_t id = 1; id <= 300; ++id) {
    ASSERT_TRUE(scheduler.Submit(flood, MakePageIn(id, id)));
  }
  ASSERT_TRUE(scheduler.Submit(victim, MakeLoadQuery(9999)));
  int dispatches_until_control = 0;
  bool found = false;
  FairShareScheduler::Item item;
  while (scheduler.TryNext(&item)) {
    ++dispatches_until_control;
    const bool is_control = item.session == victim;
    scheduler.Done(item);
    if (is_control) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  // Equal tenant weights alternate tenants, so the control op lands within a
  // few dispatches — not behind the 300-deep flood.
  EXPECT_LE(dispatches_until_control, 8);
}

TEST(FairShareScheduler, OverloadShedsBackgroundThenPageoutNeverPagein) {
  SchedulerOptions options;
  options.shed_limit = 8;
  options.lanes_per_session = 1;
  FairShareScheduler scheduler(options, "schedtest_shed");
  auto session = scheduler.AddSession(nullptr, /*tenant=*/1);
  PageBuffer page;
  FillPattern(page.span(), 1);
  // Fill the backlog to the background threshold with pageins (never shed).
  for (uint64_t id = 1; id <= 8; ++id) {
    ASSERT_EQ(scheduler.SubmitEx(session, MakePageIn(id, id)), SubmitResult::kOk);
  }
  // At total >= shed_limit, background submits shed; pageout still lands.
  EXPECT_EQ(scheduler.SubmitEx(session, MakeHeartbeat(100)), SubmitResult::kShed);
  EXPECT_EQ(scheduler.SubmitEx(session, MakePageOut(101, 50, page.span())),
            SubmitResult::kOk);
  // Push the backlog to 2x the limit: pageout sheds too, pagein never does.
  for (uint64_t id = 200; scheduler.queued() < 16; ++id) {
    ASSERT_EQ(scheduler.SubmitEx(session, MakePageIn(id, id)), SubmitResult::kOk);
  }
  EXPECT_EQ(scheduler.SubmitEx(session, MakePageOut(300, 51, page.span())),
            SubmitResult::kShed);
  EXPECT_EQ(scheduler.SubmitEx(session, MakePageIn(301, 52)), SubmitResult::kOk);
  EXPECT_GE(scheduler.shed_total(), 2);
  // Shed responses never consumed queue state: everything queued still drains.
  FairShareScheduler::Item item;
  while (scheduler.TryNext(&item)) {
    scheduler.Done(item);
  }
  EXPECT_EQ(scheduler.queued(), 0u);
}

TEST(FairShareScheduler, TenantQueueCapBoundsOneTenantsBacklog) {
  SchedulerOptions options;
  options.tenant_queue_cap = 4;
  options.lanes_per_session = 1;
  FairShareScheduler scheduler(options, "schedtest_cap");
  auto hog = scheduler.AddSession(nullptr, /*tenant=*/1);
  auto neighbor = scheduler.AddSession(nullptr, /*tenant=*/2);
  PageBuffer page;
  FillPattern(page.span(), 2);
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_EQ(scheduler.SubmitEx(hog, MakePageOut(id, id, page.span())), SubmitResult::kOk);
  }
  // The hog's fifth sheddable submit bounces off its per-tenant cap...
  EXPECT_EQ(scheduler.SubmitEx(hog, MakePageOut(5, 5, page.span())), SubmitResult::kShed);
  // ...while the neighbor still queues, and the hog's pageins are exempt.
  EXPECT_EQ(scheduler.SubmitEx(neighbor, MakePageOut(6, 6, page.span())),
            SubmitResult::kOk);
  EXPECT_EQ(scheduler.SubmitEx(hog, MakePageIn(7, 7)), SubmitResult::kOk);
}

// --- Run to completion: inline claims (DESIGN.md §13) ------------------------
// A loop thread may serve a request itself only while the scheduler is idle;
// every refusal below is a case where serving inline would overtake queued
// work, break lane FIFO, or serve for a session or scheduler that is gone.

TEST(FairShareScheduler, InlineClaimRefusedWhenAnythingIsQueued) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_inline_queued");
  auto queued = scheduler.AddSession(nullptr);
  auto other = scheduler.AddSession(nullptr);
  ASSERT_TRUE(scheduler.Submit(queued, MakePageIn(1, /*slot=*/3)));
  // Another session, another lane: still refused, or it would jump the queue.
  EXPECT_FALSE(scheduler.TryClaimInline(other, MakePageIn(2, /*slot=*/4)));
  FairShareScheduler::Item item;
  ASSERT_TRUE(scheduler.TryNext(&item));
  scheduler.Done(item);
  EXPECT_TRUE(scheduler.TryClaimInline(other, MakePageIn(2, /*slot=*/4)));
  scheduler.FinishInline(other, MakePageIn(2, /*slot=*/4), /*served=*/true);
}

TEST(FairShareScheduler, InlineClaimRefusedWhileALaneIsRunning) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_inline_running");
  auto session = scheduler.AddSession(nullptr);
  auto other = scheduler.AddSession(nullptr);
  ASSERT_TRUE(scheduler.Submit(session, MakePageIn(1, /*slot=*/3)));
  FairShareScheduler::Item item;
  ASSERT_TRUE(scheduler.TryNext(&item));  // Queue empty, lane in service.
  EXPECT_FALSE(scheduler.TryClaimInline(session, MakePageIn(2, /*slot=*/3)));
  EXPECT_FALSE(scheduler.TryClaimInline(other, MakePageIn(3, /*slot=*/5)));
  scheduler.Done(item);
  ASSERT_TRUE(scheduler.TryClaimInline(session, MakePageIn(2, /*slot=*/3)));
  // An inline claim is in service too: nothing else claims beside it.
  EXPECT_FALSE(scheduler.TryClaimInline(other, MakePageIn(3, /*slot=*/5)));
  scheduler.FinishInline(session, MakePageIn(2, /*slot=*/3), /*served=*/true);
}

TEST(FairShareScheduler, InlineClaimRefusedForDeadSessionOrStoppedScheduler) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_inline_dead");
  auto dead = scheduler.AddSession(nullptr);
  auto live = scheduler.AddSession(nullptr);
  scheduler.RemoveSession(dead);
  EXPECT_FALSE(scheduler.TryClaimInline(dead, MakePageIn(1, 1)));
  scheduler.Stop();
  EXPECT_FALSE(scheduler.TryClaimInline(live, MakePageIn(2, 2)));
}

TEST(FairShareScheduler, InlineClaimHoldsItsLaneUntilFinished) {
  SchedulerOptions options;
  options.lanes_per_session = 4;
  FairShareScheduler scheduler(options, "schedtest_inline_lane");
  auto session = scheduler.AddSession(nullptr);
  const Message first = MakePageIn(1, /*slot=*/8);
  ASSERT_TRUE(scheduler.TryClaimInline(session, first));
  // A same-lane request submitted meanwhile waits for the inline one.
  ASSERT_TRUE(scheduler.Submit(session, MakePageIn(2, /*slot=*/8)));
  FairShareScheduler::Item item;
  EXPECT_FALSE(scheduler.TryNext(&item));
  scheduler.FinishInline(session, first, /*served=*/true);
  ASSERT_TRUE(scheduler.TryNext(&item));
  EXPECT_EQ(item.request.request_id, 2u);
  scheduler.Done(item);
}

TEST(FairShareScheduler, InlineDispatchesAreCountedAndDeclinesAreNot) {
  FairShareScheduler scheduler(SchedulerOptions{}, "schedtest_inline_count");
  auto session = scheduler.AddSession(nullptr, /*tenant=*/3);
  const Message pagein = MakePageIn(1, 1);
  ASSERT_TRUE(scheduler.TryClaimInline(session, pagein));
  scheduler.FinishInline(session, pagein, /*served=*/true);
  EXPECT_EQ(scheduler.served(TrafficClass::kPagein), 1);
  EXPECT_EQ(scheduler.TenantServed(3), 1u);
  // A declined claim is handed back uncounted; the Submit that follows is
  // what counts, once, when a worker takes it.
  const Message control = MakeLoadQuery(2);
  ASSERT_TRUE(scheduler.TryClaimInline(session, control));
  scheduler.FinishInline(session, control, /*served=*/false);
  EXPECT_EQ(scheduler.served(TrafficClass::kControl), 0);
  ASSERT_TRUE(scheduler.Submit(session, control));
  FairShareScheduler::Item item;
  ASSERT_TRUE(scheduler.TryNext(&item));
  scheduler.Done(item);
  EXPECT_EQ(scheduler.served(TrafficClass::kControl), 1);
  EXPECT_EQ(scheduler.TenantServed(3), 2u);
}

// --- BufferPool ---------------------------------------------------------------

TEST(BufferPool, ReleasedBuffersAreReusedUpToThePoolCap) {
  BufferPool pool(/*buffer_bytes=*/256, /*max_pooled=*/2);
  BufferPool::Lease a = pool.Acquire();
  BufferPool::Lease b = pool.Acquire();
  BufferPool::Lease c = pool.Acquire();
  EXPECT_EQ(a.size(), 256u);
  const uint8_t* first = a.data();
  const uint8_t* second = b.data();
  ASSERT_NE(first, second);
  ASSERT_NE(first, c.data());
  ASSERT_NE(second, c.data());
  // Released in order a, b, c: the pool keeps the first two and frees c.
  a = BufferPool::Lease();
  b = BufferPool::Lease();
  c = BufferPool::Lease();
  BufferPool::Lease x = pool.Acquire();
  BufferPool::Lease y = pool.Acquire();
  EXPECT_EQ(x.data(), second);
  EXPECT_EQ(y.data(), first);
  // The pool is empty now, so the next lease is a fresh buffer.
  BufferPool::Lease z = pool.Acquire();
  EXPECT_NE(z.data(), first);
  EXPECT_NE(z.data(), second);
  EXPECT_EQ(z.size(), 256u);
}

TEST(BufferPool, MovedLeaseReturnsItsBufferOnce) {
  BufferPool pool(/*buffer_bytes=*/64, /*max_pooled=*/4);
  const uint8_t* buffer = nullptr;
  {
    BufferPool::Lease first = pool.Acquire();
    buffer = first.data();
    BufferPool::Lease second(std::move(first));
    BufferPool::Lease third;
    third = std::move(second);
    EXPECT_EQ(third.data(), buffer);
    EXPECT_EQ(third.size(), 64u);
  }
  // Three leases died but only one owned the buffer, so the pool holds it
  // once: two live leases get two different buffers.
  BufferPool::Lease x = pool.Acquire();
  BufferPool::Lease y = pool.Acquire();
  EXPECT_EQ(x.data(), buffer);
  EXPECT_NE(y.data(), buffer);
}

// --- Event loop over a socketpair ---------------------------------------------
// A connection registered straight with a Reactor, its peer a plain blocking
// socket: the loop's epoll read path, reassembly and close handling without a
// TcpServer or scheduler in between.

class RecordingSink : public FrameSink {
 public:
  void OnFrame(Message frame, bool more) override {
    std::lock_guard<std::mutex> lock(mutex_);
    frames_.push_back(std::move(frame));
    more_.push_back(more);
    threads_.push_back(std::this_thread::get_id());
    cv_.notify_all();
  }

  void OnClose(const Status& reason) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++closes_;
    close_reason_ = reason;
    cv_.notify_all();
  }

  // Waits up to 10 s until at least `count` frames have arrived.
  bool WaitForFrames(size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return frames_.size() >= count; });
  }

  bool WaitForClose() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return closes_ > 0; });
  }

  std::vector<Message> frames() {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }
  std::vector<bool> more() {
    std::lock_guard<std::mutex> lock(mutex_);
    return more_;
  }
  // The thread each frame was dispatched on.
  std::vector<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }
  size_t frame_count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_.size();
  }
  int closes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return closes_;
  }
  Status close_reason() {
    std::lock_guard<std::mutex> lock(mutex_);
    return close_reason_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Message> frames_;
  std::vector<bool> more_;
  std::vector<std::thread::id> threads_;
  int closes_ = 0;
  Status close_reason_;
};

class ReactorLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ReactorOptions options;
    options.loop_threads = 1;
    reactor_ = std::make_unique<Reactor>(options);
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    peer_ = UniqueFd(fds[1]);
    sink_ = std::make_shared<RecordingSink>();
    conn_ = reactor_->Register(UniqueFd(fds[0]), sink_);
    ASSERT_NE(conn_, nullptr);
  }

  void TearDown() override { reactor_->Stop(); }

  void SendBytes(std::span<const uint8_t> bytes) {
    ASSERT_EQ(::send(peer_.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // A first frame read by the loop: registration (OnOpen, the epoll ADD) is
  // done once it arrives, so a caller can take the read role.
  void WaitUntilRegistered() {
    SendBytes(Encode(MakeHeartbeat(1)));
    ASSERT_TRUE(sink_->WaitForFrames(1));
  }

  // ReadOnCaller, retried while the loop still holds the read role from the
  // registration frame (its OnFrame can wake the test before it lets go).
  bool ReadOnThisThread(const std::function<bool()>& done) {
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (!conn_->ReadOnCaller(done)) {
      if (Clock::now() > deadline) {
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }

  // Runs `act` on another thread after the calling thread has had time to
  // take the read role and block in poll.
  std::thread After50ms(std::function<void()> act) {
    return std::thread([act = std::move(act)] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      act();
    });
  }

  std::unique_ptr<Reactor> reactor_;
  UniqueFd peer_;
  std::shared_ptr<RecordingSink> sink_;
  std::shared_ptr<ReactorConnection> conn_;
};

TEST_F(ReactorLoopTest, BurstFlagsMoreAndSplitFrameIsReassembled) {
  // Three frames in one send arrive in one read: all but the last say that
  // another frame follows.
  std::vector<uint8_t> burst;
  for (uint64_t id = 1; id <= 3; ++id) {
    EncodeTo(MakeHeartbeat(id), &burst);
  }
  SendBytes(burst);
  ASSERT_TRUE(sink_->WaitForFrames(3));
  EXPECT_EQ(sink_->more(), (std::vector<bool>{true, true, false}));

  // A page frame dribbled in three pieces, the first shorter than the wire
  // prefix, is buffered across readable events and delivered once, intact.
  PageBuffer page;
  FillPattern(page.span(), 42);
  const std::vector<uint8_t> frame = Encode(MakePageOut(4, 42, page.span()));
  const std::span<const uint8_t> bytes(frame);
  const size_t cuts[] = {0, kWirePrefixSize / 2, frame.size() / 2, frame.size()};
  for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
    SendBytes(bytes.subspan(cuts[i], cuts[i + 1] - cuts[i]));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(sink_->WaitForFrames(4));
  const std::vector<Message> frames = sink_->frames();
  ASSERT_EQ(frames.size(), 4u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frames[i].type, MessageType::kHeartbeat);
    EXPECT_EQ(frames[i].request_id, i + 1);
  }
  EXPECT_EQ(frames[3].type, MessageType::kPageOut);
  EXPECT_EQ(frames[3].request_id, 4u);
  EXPECT_EQ(frames[3].slot, 42u);
  EXPECT_TRUE(CheckPattern(frames[3].payload, 42));
  EXPECT_FALSE(sink_->more()[3]);
  EXPECT_EQ(sink_->closes(), 0);
}

TEST_F(ReactorLoopTest, PeerHangupFiresOnCloseExactlyOnce) {
  SendBytes(Encode(MakeHeartbeat(1)));
  ASSERT_TRUE(sink_->WaitForFrames(1));
  peer_.Reset();
  ASSERT_TRUE(sink_->WaitForClose());
  EXPECT_FALSE(sink_->close_reason().ok());
  EXPECT_TRUE(conn_->closed());
  EXPECT_FALSE(conn_->Send(MakeHeartbeat(2)));
  // Stop closes every connection still registered; the hung-up one is gone.
  reactor_->Stop();
  EXPECT_EQ(sink_->closes(), 1);
  EXPECT_EQ(sink_->frames().size(), 1u);
}

TEST_F(ReactorLoopTest, LocalCloseStopsDeliveryAndHangsUpOnThePeer) {
  SendBytes(Encode(MakeHeartbeat(1)));
  ASSERT_TRUE(sink_->WaitForFrames(1));
  conn_->Close(UnavailableError("closed by test"));
  ASSERT_TRUE(sink_->WaitForClose());
  EXPECT_EQ(sink_->close_reason().message(), "closed by test");
  EXPECT_FALSE(conn_->Send(MakeHeartbeat(2)));
  // The peer reads EOF, and whatever it still sends is never delivered.
  uint8_t byte;
  ssize_t n;
  do {
    n = ::recv(peer_.get(), &byte, 1, 0);
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0);
  const std::vector<uint8_t> late = Encode(MakeHeartbeat(3));
  (void)::send(peer_.get(), late.data(), late.size(), MSG_NOSIGNAL);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  reactor_->Stop();
  EXPECT_EQ(sink_->frames().size(), 1u);
  EXPECT_EQ(sink_->closes(), 1);
}

// --- Run to completion on the caller ---------------------------------------------
// ReadOnCaller: a blocked caller takes the read role from the loop, reads on
// its own thread until its condition holds, and hands the role back.

TEST_F(ReactorLoopTest, CallerReadDispatchesOnTheCallingThread) {
  WaitUntilRegistered();
  std::thread sender = After50ms([this] { SendBytes(Encode(MakeHeartbeat(2))); });
  EXPECT_TRUE(ReadOnThisThread([this] { return sink_->frame_count() >= 2; }));
  sender.join();
  const std::vector<std::thread::id> threads = sink_->threads();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_NE(threads[0], std::this_thread::get_id());  // The loop read the first.
  EXPECT_EQ(threads[1], std::this_thread::get_id());
  EXPECT_EQ(sink_->frames()[1].request_id, 2u);
  // With the role handed back, the loop reads again.
  SendBytes(Encode(MakeHeartbeat(3)));
  ASSERT_TRUE(sink_->WaitForFrames(3));
  EXPECT_EQ(sink_->threads()[2], threads[0]);
  EXPECT_EQ(sink_->closes(), 0);
}

TEST_F(ReactorLoopTest, FrameSplitAcrossTheHandBackIsReassembledByTheLoop) {
  WaitUntilRegistered();
  PageBuffer page;
  FillPattern(page.span(), 77);
  const std::vector<uint8_t> next = Encode(MakePageOut(3, 9, page.span()));
  const size_t half = next.size() / 2;
  // The caller's own frame and the first half of the next one, in one send.
  std::vector<uint8_t> first = Encode(MakeHeartbeat(2));
  first.insert(first.end(), next.begin(), next.begin() + static_cast<ptrdiff_t>(half));
  std::thread sender = After50ms([&] { SendBytes(first); });
  EXPECT_TRUE(ReadOnThisThread([this] { return sink_->frame_count() >= 2; }));
  sender.join();
  SendBytes(std::span<const uint8_t>(next).subspan(half));
  ASSERT_TRUE(sink_->WaitForFrames(3));
  const std::vector<Message> frames = sink_->frames();
  const std::vector<std::thread::id> threads = sink_->threads();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[1].request_id, 2u);
  EXPECT_EQ(threads[1], std::this_thread::get_id());
  EXPECT_EQ(frames[2].type, MessageType::kPageOut);
  EXPECT_EQ(frames[2].request_id, 3u);
  EXPECT_TRUE(CheckPattern(frames[2].payload, 77));
  EXPECT_EQ(threads[2], threads[0]);  // Finished by the loop.
  EXPECT_EQ(sink_->closes(), 0);
}

TEST_F(ReactorLoopTest, PeerHangupDuringCallerReadFiresOnCloseOnce) {
  WaitUntilRegistered();
  std::thread closer = After50ms([this] { peer_.Reset(); });
  EXPECT_TRUE(ReadOnThisThread([this] { return sink_->closes() > 0; }));
  closer.join();
  ASSERT_TRUE(sink_->WaitForClose());
  EXPECT_EQ(sink_->close_reason().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(conn_->closed());
  // A closed connection has no read role to give.
  EXPECT_FALSE(conn_->ReadOnCaller([] { return false; }));
  reactor_->Stop();
  EXPECT_EQ(sink_->closes(), 1);
  EXPECT_EQ(sink_->frame_count(), 1u);
}

TEST_F(ReactorLoopTest, CorruptFrameDuringCallerReadFiresOnCloseOnce) {
  WaitUntilRegistered();
  PageBuffer page;
  FillPattern(page.span(), 5);
  std::vector<uint8_t> corrupt = Encode(MakePageOut(2, 1, page.span()));
  corrupt.back() ^= 0xff;  // The payload no longer matches its CRC.
  std::thread sender = After50ms([&] { SendBytes(corrupt); });
  EXPECT_TRUE(ReadOnThisThread([this] { return sink_->closes() > 0; }));
  sender.join();
  ASSERT_TRUE(sink_->WaitForClose());
  EXPECT_EQ(sink_->close_reason().code(), ErrorCode::kCorruption);
  reactor_->Stop();
  EXPECT_EQ(sink_->closes(), 1);
  EXPECT_EQ(sink_->frame_count(), 1u);  // The corrupt frame is never delivered.
}

// --- TcpServer integration ---------------------------------------------------

class ReactorTcpTest : public ::testing::Test {
 protected:
  void StartServer(TcpServerOptions options = TcpServerOptions(), uint64_t capacity = 4096,
                   TenantPolicyParams tenants = TenantPolicyParams(),
                   int64_t store_service_micros = 0) {
    MemoryServerParams params;
    params.name = "reactor-test";
    params.capacity_pages = capacity;
    params.tenants = std::move(tenants);
    params.store_service_micros = store_service_micros;
    server_ = std::make_shared<MemoryServer>(params);
    auto started = TcpServer::Start(0, TcpServer::ForwardTo(server_), std::move(options));
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    tcp_server_ = std::move(*started);
  }

  Result<std::unique_ptr<TcpTransport>> Connect() {
    return TcpTransport::Connect("127.0.0.1", tcp_server_->port());
  }

  // Disconnect detection runs on the loop threads after the client's FIN, so
  // bookkeeping converges shortly after the transport is destroyed.
  void ExpectLiveSessions(size_t want, int timeout_ms = 5000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (tcp_server_->live_sessions() != want && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(tcp_server_->live_sessions(), want);
  }

  std::shared_ptr<MemoryServer> server_;
  std::unique_ptr<TcpServer> tcp_server_;
};

// Regression for the session-table leak: every connect/disconnect cycle must
// return the server to zero live sessions, with the reactor reaping closed
// connections rather than a per-session thread noticing EOF.
TEST_F(ReactorTcpTest, ConnectDisconnectChurnLeavesNoResidue) {
  StartServer();
  for (int cycle = 0; cycle < 200; ++cycle) {
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto reply = (*client)->Call(MakeLoadQuery(static_cast<uint64_t>(cycle) + 1));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, MessageType::kLoadReport);
  }
  ExpectLiveSessions(0);
}

// A background pageout flood (64 requests, 1 ms service each, one worker)
// must not starve a foreground pagein: the weighted scheduler dispatches the
// fault as soon as the in-service request finishes, not after the flood.
TEST_F(ReactorTcpTest, BackgroundFloodDoesNotStarveForegroundPagein) {
  TcpServerOptions options;
  options.service_workers = 1;  // Worst case: zero service parallelism.
  StartServer(std::move(options));

  auto background = Connect();
  auto foreground = Connect();
  ASSERT_TRUE(background.ok());
  ASSERT_TRUE(foreground.ok());

  auto fg_alloc = (*foreground)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(fg_alloc.ok());
  auto bg_alloc = (*background)->Call(MakeAllocRequest(1, 64));
  ASSERT_TRUE(bg_alloc.ok());

  PageBuffer page;
  FillPattern(page.span(), 7);
  // Seed the foreground slot while it is still fast.
  auto seeded = (*foreground)->Call(MakePageOut(2, fg_alloc->slot, page.span()));
  ASSERT_TRUE(seeded.ok());
  ASSERT_EQ(seeded->status_code(), ErrorCode::kOk);

  for (uint64_t i = 0; i < 64; ++i) {
    server_->SetSlotDelayForTest(bg_alloc->slot + i, 1000);  // 1 ms each.
  }
  std::vector<RpcFuture> flood;
  flood.reserve(64);
  const auto flood_start = Clock::now();
  for (uint64_t i = 0; i < 64; ++i) {
    flood.push_back(
        (*background)->CallAsync(MakePageOut(100 + i, bg_alloc->slot + i, page.span())));
  }

  const auto issued = Clock::now();
  auto fault = (*foreground)->Call(MakePageIn(3, fg_alloc->slot));
  const double fault_ms = MillisSince(issued);
  ASSERT_TRUE(fault.ok()) << fault.status().ToString();
  ASSERT_EQ(fault->status_code(), ErrorCode::kOk);

  for (auto& f : flood) {
    auto ack = f.Wait();
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->status_code(), ErrorCode::kOk);
  }
  const double flood_ms = MillisSince(flood_start);

  // The flood occupies the lone worker for >= 64 ms of service time; a FIFO
  // dispatcher would make the fault wait for most of it. Generous bound for
  // sanitizer builds, but far below the FIFO floor.
  EXPECT_GE(flood_ms, 40.0);
  EXPECT_LT(fault_ms, flood_ms / 2.0);
}

// A request that could sleep never runs on a loop thread. With one loop, a
// 200 ms request served inline would stall every other connection on that
// loop; MemoryServer::Handle declines it instead, so it sleeps on a worker
// while the second worker answers another connection promptly.
class InlineDeclineTest : public ReactorTcpTest {
 protected:
  static TcpServerOptions OneLoopTwoWorkers() {
    TcpServerOptions options;
    options.reactor.loop_threads = 1;
    options.service_workers = 2;
    return options;
  }

  // Issues `slow` on one connection, waits until a worker has it in service,
  // then returns how long `quick` takes on a second connection.
  double QuickLatencyBehindSlow(const Message& slow, const Message& quick) {
    auto slow_client = Connect();
    auto quick_client = Connect();
    EXPECT_TRUE(slow_client.ok() && quick_client.ok());
    if (!slow_client.ok() || !quick_client.ok()) {
      return 1e9;
    }
    const TrafficClass klass = ClassifyMessage(slow.type);
    const int64_t served_before = tcp_server_->scheduler().served(klass);
    RpcFuture pending = (*slow_client)->CallAsync(slow);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (tcp_server_->scheduler().served(klass) == served_before && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const auto issued = Clock::now();
    auto reply = (*quick_client)->Call(quick);
    const double quick_ms = MillisSince(issued);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    auto slow_reply = pending.Wait();
    EXPECT_TRUE(slow_reply.ok()) << slow_reply.status().ToString();
    return quick_ms;
  }
};

TEST_F(InlineDeclineTest, SlotDelayedRequestLeavesTheLoopFree) {
  StartServer(OneLoopTwoWorkers());
  auto setup = Connect();
  ASSERT_TRUE(setup.ok());
  auto alloc = (*setup)->Call(MakeAllocRequest(1, 2));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 11);
  for (uint64_t i = 0; i < 2; ++i) {
    auto stored = (*setup)->Call(MakePageOut(2 + i, alloc->slot + i, page.span()));
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(stored->status_code(), ErrorCode::kOk);
  }
  server_->SetSlotDelayForTest(alloc->slot, 200'000);  // 200 ms on slot A only.
  const double quick_ms =
      QuickLatencyBehindSlow(MakePageIn(10, alloc->slot), MakePageIn(11, alloc->slot + 1));
  EXPECT_LT(quick_ms, 50.0);
}

TEST_F(InlineDeclineTest, StoreServiceTimeLeavesTheLoopFree) {
  StartServer(OneLoopTwoWorkers(), 4096, TenantPolicyParams(),
              /*store_service_micros=*/200'000);
  auto setup = Connect();
  ASSERT_TRUE(setup.ok());
  auto alloc = (*setup)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 12);
  auto stored = (*setup)->Call(MakePageOut(2, alloc->slot, page.span()));
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->status_code(), ErrorCode::kOk);
  // Every store access sleeps here, so the quick request is one that never
  // touches the store; it is still declined, and served by the other worker.
  const double quick_ms = QuickLatencyBehindSlow(MakePageIn(10, alloc->slot), MakeLoadQuery(11));
  EXPECT_LT(quick_ms, 50.0);
}

// Garbage on one connection (bad magic / hostile length) must close exactly
// that connection: the loop thread and every other session keep serving.
TEST_F(ReactorTcpTest, HostileFrameClosesOnlyThatConnection) {
  StartServer();
  auto healthy = Connect();
  ASSERT_TRUE(healthy.ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp_server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  uint8_t garbage[64];
  for (size_t i = 0; i < sizeof(garbage); ++i) {
    garbage[i] = static_cast<uint8_t>(0xA5 ^ i);
  }
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  // The server must reply with EOF (it closed us), not hang or crash.
  uint8_t buf[16];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  EXPECT_LE(n, 0);
  ::close(fd);

  auto reply = (*healthy)->Call(MakeLoadQuery(42));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kLoadReport);
  ExpectLiveSessions(1);
}

// A client that pipelines requests but does not read its replies fills the
// server's socket buffer: sendmsg hits EAGAIN, the connection arms EPOLLOUT
// and the loop resumes the flush when the peer drains. Meanwhile that loop —
// the only one — must keep serving every other connection, and once the
// stalled client reads, every reply must arrive exactly once and intact.
TEST_F(ReactorTcpTest, StalledReaderGetsEveryReplyAndDoesNotStallItsLoop) {
  TcpServerOptions options;
  options.reactor.loop_threads = 1;
  StartServer(std::move(options));
  constexpr uint64_t kPages = 512;  // 4 MB of replies, far past SO_SNDBUF.
  auto setup = Connect();
  ASSERT_TRUE(setup.ok());
  auto alloc = (*setup)->Call(MakeAllocRequest(1, kPages));
  ASSERT_TRUE(alloc.ok());
  ASSERT_EQ(alloc->status_code(), ErrorCode::kOk);
  const uint64_t base = alloc->slot;
  PageBuffer page;
  for (uint64_t i = 0; i < kPages; ++i) {
    FillPattern(page.span(), base + i);
    auto stored = (*setup)->Call(MakePageOut(2 + i, base + i, page.span()));
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(stored->status_code(), ErrorCode::kOk);
  }

  // A blocking raw socket with a small fixed receive buffer (which also turns
  // off receive-window autotuning), so the replies back up into the server.
  // The receive timeout turns a flush that never resumes into a failed
  // ReadFrame instead of a hung test.
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  const int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
  const timeval rcvtimeo{.tv_sec = 20, .tv_usec = 0};
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &rcvtimeo, sizeof(rcvtimeo)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp_server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const int64_t served_before = tcp_server_->scheduler().served(TrafficClass::kPagein);
  constexpr uint64_t kFirstId = 1000;
  for (uint64_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(SendFrame(fd.get(), MakePageIn(kFirstId + i, base + i)).ok());
  }
  // Every PAGEIN is served; most replies now sit in the server's queue.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (tcp_server_->scheduler().served(TrafficClass::kPagein) - served_before <
             static_cast<int64_t>(kPages) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(tcp_server_->scheduler().served(TrafficClass::kPagein) - served_before,
            static_cast<int64_t>(kPages));

  auto other = Connect();
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  auto load = (*other)->Call(MakeLoadQuery(7));
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->type, MessageType::kLoadReport);

  // kPages reads, each a distinct in-range id: every reply arrived once.
  std::vector<bool> seen(kPages, false);
  for (uint64_t n = 0; n < kPages; ++n) {
    auto reply = ReadFrame(fd.get());
    ASSERT_TRUE(reply.ok()) << "reply " << n << ": " << reply.status().ToString();
    ASSERT_EQ(reply->type, MessageType::kPageInReply);
    ASSERT_EQ(reply->status_code(), ErrorCode::kOk);
    ASSERT_GE(reply->request_id, kFirstId);
    const uint64_t i = reply->request_id - kFirstId;
    ASSERT_LT(i, kPages);
    ASSERT_FALSE(seen[i]) << "duplicate reply for request " << reply->request_id;
    seen[i] = true;
    EXPECT_EQ(reply->slot, base + i);
    EXPECT_TRUE(CheckPattern(reply->payload, base + i)) << "page " << i;
  }
}

// --- Session tenant binding over the wire (DESIGN.md §15) --------------------

TEST_F(ReactorTcpTest, ConnectBindsTenantAndStampsUntaggedRequests) {
  TenantPolicyParams tenants;
  tenants.tenants = {{.id = 7, .memory_quota_pages = 64}};
  StartServer(TcpServerOptions(), 4096, std::move(tenants));
  auto client = TcpTransport::Connect("127.0.0.1", tcp_server_->port(), "", /*tenant=*/7);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The request carries no tenant; the transport stamps the bound one and
  // the enforcing server echoes and charges it.
  auto granted = (*client)->Call(MakeAllocRequest(1, 8));
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->status_code(), ErrorCode::kOk);
  EXPECT_EQ(granted->tenant, 7);
  EXPECT_EQ(server_->TenantReservedPages(7), 8u);
  // The quota holds over the wire, not just on the direct API.
  auto over = (*client)->Call(MakeAllocRequest(2, 64));
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over->status_code(), ErrorCode::kNoSpace);
}

TEST_F(ReactorTcpTest, MidSessionTenantFlipIsRejected) {
  StartServer();
  auto client = TcpTransport::Connect("127.0.0.1", tcp_server_->port(), "", /*tenant=*/7);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The AUTH handshake bound tenant 7; a frame claiming tenant 9 on the same
  // session is a spoof attempt — rejected, never re-attributed.
  Message hostile = MakeAllocRequest(5, 4);
  hostile.tenant = 9;
  auto reply = (*client)->Call(hostile);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status_code(), ErrorCode::kFailedPrecondition);
  // The session itself survives for correctly-attributed traffic.
  auto good = (*client)->Call(MakeLoadQuery(6));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->type, MessageType::kLoadReport);
}

TEST_F(ReactorTcpTest, FirstTaggedFrameBindsOnOpenServers) {
  StartServer();
  auto client = Connect();  // No AUTH handshake, no tenant.
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Message tagged = MakeLoadQuery(1);
  tagged.tenant = 5;
  auto first = (*client)->Call(tagged);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, MessageType::kLoadReport);
  // Bound now: any other tag on this session is a flip.
  Message flipped = MakeLoadQuery(2);
  flipped.tenant = 6;
  auto second = (*client)->Call(flipped);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status_code(), ErrorCode::kFailedPrecondition);
  // The original binding still serves.
  Message again = MakeLoadQuery(3);
  again.tenant = 5;
  auto third = (*client)->Call(again);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->type, MessageType::kLoadReport);
}

size_t CurrentRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

// Churn soak: thousands of concurrent sessions on the fixed loop pool — the
// load shape thread-per-session could not survive (it would need two threads
// per session). Scaled to the fd rlimit; RMP_SOAK_SESSIONS overrides.
TEST_F(ReactorTcpTest, ManyConcurrentSessionsSoak) {
  StartServer();
  size_t sessions = 10000;
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur != RLIM_INFINITY) {
    // Each session costs two fds (client + server end) plus slack for loops,
    // listen sockets, and the test binary itself.
    const size_t budget = nofile.rlim_cur > 2000 ? (nofile.rlim_cur - 1000) / 2 : 500;
    sessions = std::min(sessions, budget);
  }
  if (const char* env = std::getenv("RMP_SOAK_SESSIONS")) {
    sessions = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  ASSERT_GT(sessions, 0u);

  const size_t rss_before_kb = CurrentRssKb();
  std::vector<std::unique_ptr<TcpTransport>> clients(sessions);
  std::atomic<size_t> next{0};
  std::atomic<int> failures{0};
  constexpr int kConnectThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnectThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < sessions; i = next.fetch_add(1)) {
        auto client = TcpTransport::Connect("127.0.0.1", tcp_server_->port());
        if (!client.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto reply = (*client)->Call(MakeLoadQuery(i + 1));
        if (!reply.ok() || reply->type != MessageType::kLoadReport) {
          failures.fetch_add(1);
          continue;
        }
        clients[i] = std::move(*client);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ExpectLiveSessions(sessions - static_cast<size_t>(failures.load()), 30000);

  // Bounded memory: per-session state is a few KB (connection + codec
  // cursors), not a stack. Two threads per session at the default 8 MB stack
  // would reserve ~160 GB of address space for 10k sessions; here RSS growth
  // stays near flat. Generous bound to absorb sanitizer shadow memory.
  const size_t rss_after_kb = CurrentRssKb();
  if (rss_before_kb > 0 && rss_after_kb > rss_before_kb) {
    const size_t growth_kb = rss_after_kb - rss_before_kb;
    EXPECT_LT(growth_kb / std::max<size_t>(sessions, 1), 256u)
        << "per-session RSS growth " << growth_kb / sessions << " KB";
  }

  clients.clear();
  ExpectLiveSessions(0, 30000);
}

}  // namespace
}  // namespace rmp
