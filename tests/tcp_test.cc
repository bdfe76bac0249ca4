// End-to-end tests of the real TCP transport: a MemoryServer behind a
// TcpServer on loopback, driven by TcpTransport clients — the deployment
// shape of the paper's user-level server (§3.2).

#include "src/transport/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/server/memory_server.h"
#include "src/util/bytes.h"
#include "src/util/metrics.h"
#include "tests/wire_test_util.h"

namespace rmp {
namespace {

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryServerParams params;
    params.name = "tcp-server";
    params.capacity_pages = 256;
    server_ = std::make_shared<MemoryServer>(params);
    // All sessions share one server object (thread-safe), mirroring one
    // workstation's donated memory.
    auto started = TcpServer::Start(0, TcpServer::ForwardTo(server_));
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    tcp_server_ = std::move(*started);
  }

  Result<std::unique_ptr<TcpTransport>> Connect() {
    return TcpTransport::Connect("127.0.0.1", tcp_server_->port());
  }

  std::shared_ptr<MemoryServer> server_;
  std::unique_ptr<TcpServer> tcp_server_;
};

TEST_F(TcpTest, ConnectAndQueryLoad) {
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->Call(MakeLoadQuery(1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kLoadReport);
  EXPECT_EQ(reply->aux, 256u);
}

TEST_F(TcpTest, PageRoundTripOverRealSockets) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 4));
  ASSERT_TRUE(alloc.ok());
  ASSERT_EQ(alloc->status_code(), ErrorCode::kOk);
  PageBuffer page;
  FillPattern(page.span(), 4242);
  auto ack = (*client)->Call(MakePageOut(2, alloc->slot, page.span()));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status_code(), ErrorCode::kOk);
  auto pagein = (*client)->Call(MakePageIn(3, alloc->slot));
  ASSERT_TRUE(pagein.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(pagein->payload), 4242));
}

TEST_F(TcpTest, ManySequentialPages) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 64));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  for (uint64_t i = 0; i < 64; ++i) {
    FillPattern(page.span(), i);
    auto ack = (*client)->Call(MakePageOut(100 + i, alloc->slot + i, page.span()));
    ASSERT_TRUE(ack.ok()) << i;
  }
  for (uint64_t i = 0; i < 64; ++i) {
    auto pagein = (*client)->Call(MakePageIn(200 + i, alloc->slot + i));
    ASSERT_TRUE(pagein.ok()) << i;
    EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(pagein->payload), i)) << i;
  }
}

TEST_F(TcpTest, TwoClientsShareOneServer) {
  auto a = Connect();
  auto b = Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto alloc_a = (*a)->Call(MakeAllocRequest(1, 8));
  auto alloc_b = (*b)->Call(MakeAllocRequest(1, 8));
  ASSERT_TRUE(alloc_a.ok());
  ASSERT_TRUE(alloc_b.ok());
  EXPECT_NE(alloc_a->slot, alloc_b->slot);  // Distinct swap space.
  PageBuffer page_a;
  PageBuffer page_b;
  FillPattern(page_a.span(), 1);
  FillPattern(page_b.span(), 2);
  ASSERT_TRUE((*a)->Call(MakePageOut(2, alloc_a->slot, page_a.span())).ok());
  ASSERT_TRUE((*b)->Call(MakePageOut(2, alloc_b->slot, page_b.span())).ok());
  auto in_a = (*a)->Call(MakePageIn(3, alloc_a->slot));
  auto in_b = (*b)->Call(MakePageIn(3, alloc_b->slot));
  ASSERT_TRUE(in_a.ok());
  ASSERT_TRUE(in_b.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(in_a->payload), 1));
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(in_b->payload), 2));
  EXPECT_GE(tcp_server_->connections_served(), 2);
}

TEST_F(TcpTest, ServerShutdownSurfacesUnavailable) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Call(MakeLoadQuery(1)).ok());
  tcp_server_->Shutdown();
  auto reply = (*client)->Call(MakeLoadQuery(2));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE((*client)->connected());
}

TEST_F(TcpTest, ConnectToClosedPortFails) {
  tcp_server_->Shutdown();
  const uint16_t dead_port = tcp_server_->port();
  auto client = TcpTransport::Connect("127.0.0.1", dead_port);
  EXPECT_FALSE(client.ok());
}

TEST_F(TcpTest, BadHostRejected) {
  auto client = TcpTransport::Connect("not-an-ip", 1);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), ErrorCode::kInvalidArgument);
}

// --- Authentication (§3.1's access restriction, modernized) -----------------

class TcpAuthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryServerParams params;
    params.capacity_pages = 64;
    server_ = std::make_shared<MemoryServer>(params);
    auto started = TcpServer::Start(0, TcpServer::ForwardTo(server_),
                                    /*required_token=*/"hunter2");
    ASSERT_TRUE(started.ok());
    tcp_server_ = std::move(*started);
  }

  std::shared_ptr<MemoryServer> server_;
  std::unique_ptr<TcpServer> tcp_server_;
};

TEST_F(TcpAuthTest, CorrectTokenIsAccepted) {
  auto client = TcpTransport::Connect("127.0.0.1", tcp_server_->port(), "hunter2");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Call(MakeLoadQuery(1)).ok());
}

TEST_F(TcpAuthTest, WrongTokenIsRejected) {
  auto client = TcpTransport::Connect("127.0.0.1", tcp_server_->port(), "wrong");
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(TcpAuthTest, UnauthenticatedRequestsAreRefused) {
  auto client = TcpTransport::Connect("127.0.0.1", tcp_server_->port());  // No token sent.
  ASSERT_TRUE(client.ok());  // TCP connect succeeds...
  auto reply = (*client)->Call(MakeLoadQuery(1));
  ASSERT_TRUE(reply.ok());
  // ...but every request is refused until AUTH.
  EXPECT_EQ(reply->type, MessageType::kErrorReply);
  EXPECT_EQ(reply->status_code(), ErrorCode::kFailedPrecondition);
}

TEST_F(TcpAuthTest, OpenServerIgnoresAuthRequirement) {
  // A server started WITHOUT a token accepts token-presenting clients too.
  MemoryServerParams params;
  params.capacity_pages = 64;
  auto open_server = std::make_shared<MemoryServer>(params);
  auto started = TcpServer::Start(0, TcpServer::ForwardTo(open_server));
  ASSERT_TRUE(started.ok());
  auto client = TcpTransport::Connect("127.0.0.1", (*started)->port(), "any-token");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Call(MakeLoadQuery(1)).ok());
}

TEST_F(TcpTest, LocalhostAliasResolves) {
  auto client = TcpTransport::Connect("localhost", tcp_server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Call(MakeLoadQuery(1)).ok());
}

// --- Pipelining: many requests outstanding on one connection ----------------

TEST_F(TcpTest, PipelinedBatchRoundTrip) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 32));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  std::vector<RpcFuture> outs;
  for (uint64_t i = 0; i < 32; ++i) {
    FillPattern(page.span(), 900 + i);
    outs.push_back((*client)->CallAsync(MakePageOut(10 + i, alloc->slot + i, page.span())));
  }
  for (uint64_t i = 0; i < 32; ++i) {
    auto ack = outs[i].Wait();
    ASSERT_TRUE(ack.ok()) << i << ": " << ack.status().ToString();
    EXPECT_EQ(ack->status_code(), ErrorCode::kOk) << i;
  }
  std::vector<RpcFuture> ins;
  for (uint64_t i = 0; i < 32; ++i) {
    ins.push_back((*client)->CallAsync(MakePageIn(50 + i, alloc->slot + i)));
  }
  for (uint64_t i = 0; i < 32; ++i) {
    auto reply = ins[i].Wait();
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(reply->payload), 900 + i)) << i;
  }
  EXPECT_EQ((*client)->inflight(), 0u);
}

TEST_F(TcpTest, OutOfOrderRepliesAreDemultiplexed) {
  // A multi-worker session may emit replies out of request order; the client
  // must route each reply to its own future by request_id.
  auto started = TcpServer::Start(0, TcpServer::ForwardTo(server_),
                                  /*required_token=*/"", /*session_workers=*/4);
  ASSERT_TRUE(started.ok());
  auto client = TcpTransport::Connect("127.0.0.1", (*started)->port());
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 2));
  ASSERT_TRUE(alloc.ok());
  PageBuffer slow_page;
  PageBuffer fast_page;
  FillPattern(slow_page.span(), 7);
  FillPattern(fast_page.span(), 8);
  ASSERT_TRUE((*client)->Call(MakePageOut(2, alloc->slot, slow_page.span())).ok());
  ASSERT_TRUE((*client)->Call(MakePageOut(3, alloc->slot + 1, fast_page.span())).ok());

  server_->SetSlotDelayForTest(alloc->slot, 250'000);  // 250 ms.
  RpcFuture slow = (*client)->CallAsync(MakePageIn(4, alloc->slot));
  RpcFuture fast = (*client)->CallAsync(MakePageIn(5, alloc->slot + 1));
  auto fast_reply = fast.Wait();  // Overtakes the stalled request.
  ASSERT_TRUE(fast_reply.ok()) << fast_reply.status().ToString();
  EXPECT_EQ(fast_reply->request_id, 5u);
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(fast_reply->payload), 8));
  // The slow request is still held by its worker's injected delay: the fast
  // reply genuinely arrived first, out of issue order.
  EXPECT_FALSE(slow.ready());
  auto slow_reply = slow.Wait();
  ASSERT_TRUE(slow_reply.ok()) << slow_reply.status().ToString();
  EXPECT_EQ(slow_reply->request_id, 4u);
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(slow_reply->payload), 7));
  server_->SetSlotDelayForTest(alloc->slot, 0);
}

TEST_F(TcpTest, PipelinedSameSlotWritesStayOrderedAcrossInlineAndQueuedService) {
  // Versions of one slot sent with uneven gaps: a version that arrives alone
  // on an idle server is served inline on the loop thread, one that arrives
  // behind others in the same read is queued for a worker. Either way the
  // lane keeps them in order, so the last version written is the one read.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  const int gaps_us[8] = {0, 0, 300, 0, 0, 0, 1500, 0};
  uint64_t request_id = 10;
  for (int round = 0; round < 16; ++round) {
    std::vector<RpcFuture> acks;
    PageBuffer page;
    for (int version = 1; version <= 8; ++version) {
      FillPattern(page.span(), static_cast<uint64_t>(round * 100 + version));
      acks.push_back((*client)->CallAsync(MakePageOut(request_id++, alloc->slot, page.span())));
      std::this_thread::sleep_for(std::chrono::microseconds(gaps_us[(version + round) % 8]));
    }
    for (auto& ack : acks) {
      auto reply = ack.Wait();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->status_code(), ErrorCode::kOk);
    }
    auto read = (*client)->Call(MakePageIn(request_id++, alloc->slot));
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(read->payload),
                             static_cast<uint64_t>(round * 100 + 8)))
        << "round " << round;
  }
}

TEST_F(TcpTest, ServerShutdownFailsAllInFlight) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  // Stall the server on this slot so none of the in-flight requests can be
  // answered before the shutdown lands.
  server_->SetSlotDelayForTest(alloc->slot, 200'000);  // 200 ms.
  std::vector<RpcFuture> futures;
  for (uint64_t i = 0; i < 8; ++i) {
    futures.push_back((*client)->CallAsync(MakePageIn(10 + i, alloc->slot)));
  }
  tcp_server_->Shutdown();
  for (auto& future : futures) {
    auto reply = future.Wait();
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  }
  EXPECT_FALSE((*client)->connected());
  EXPECT_EQ((*client)->inflight(), 0u);
  server_->SetSlotDelayForTest(alloc->slot, 0);
}

TEST_F(TcpTest, CloseWithOutstandingCallsFailsFutures) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  server_->SetSlotDelayForTest(alloc->slot, 200'000);  // 200 ms.
  std::vector<RpcFuture> futures;
  for (uint64_t i = 0; i < 4; ++i) {
    futures.push_back((*client)->CallAsync(MakePageIn(10 + i, alloc->slot)));
  }
  (*client)->Close();
  for (auto& future : futures) {
    EXPECT_EQ(future.Wait().status().code(), ErrorCode::kUnavailable);
  }
  EXPECT_FALSE((*client)->connected());
  server_->SetSlotDelayForTest(alloc->slot, 0);
}

TEST_F(TcpTest, DuplicateRequestIdIsRejected) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 3);
  ASSERT_TRUE((*client)->Call(MakePageOut(2, alloc->slot, page.span())).ok());
  server_->SetSlotDelayForTest(alloc->slot, 100'000);  // Keep #7 in flight.
  RpcFuture first = (*client)->CallAsync(MakePageIn(7, alloc->slot));
  RpcFuture dup = (*client)->CallAsync(MakePageIn(7, alloc->slot));
  // The duplicate is refused locally — a second in-flight use of the id would
  // make the reply demux ambiguous — and the original is unaffected.
  ASSERT_TRUE(dup.ready());
  EXPECT_EQ(dup.Wait().status().code(), ErrorCode::kInvalidArgument);
  auto reply = first.Wait();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(reply->payload), 3));
  server_->SetSlotDelayForTest(alloc->slot, 0);
}


// --- Run to completion: a blocked Wait() reads its own reply ------------------

TEST_F(TcpTest, CloseFromAnotherThreadReleasesABlockedWait) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  server_->SetSlotDelayForTest(alloc->slot, 1'000'000);  // 1 s.
  RpcFuture future = (*client)->CallAsync(MakePageIn(2, alloc->slot));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*client)->Close();
  });
  // The waiter is blocked reading the socket itself; the close must wake it
  // long before the server would have answered.
  const auto start = std::chrono::steady_clock::now();
  const Result<Message>& reply = future.Wait();
  const auto waited = std::chrono::steady_clock::now() - start;
  closer.join();
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  server_->SetSlotDelayForTest(alloc->slot, 0);
}

TEST_F(TcpTest, TwoWaitersOnOneConnectionEachGetTheirOwnReply) {
  // A multi-lane session answers the two slots in either order; whichever
  // waiter holds the read role dispatches the other's reply too.
  auto started = TcpServer::Start(0, TcpServer::ForwardTo(server_),
                                  /*required_token=*/"", /*session_workers=*/4);
  ASSERT_TRUE(started.ok());
  auto client = TcpTransport::Connect("127.0.0.1", (*started)->port());
  ASSERT_TRUE(client.ok());
  auto alloc = (*client)->Call(MakeAllocRequest(1, 2));
  ASSERT_TRUE(alloc.ok());
  const uint64_t slots[2] = {alloc->slot, alloc->slot + 1};
  PageBuffer page;
  for (uint64_t i = 0; i < 2; ++i) {
    FillPattern(page.span(), 60 + i);
    ASSERT_TRUE((*client)->Call(MakePageOut(2 + i, slots[i], page.span())).ok());
  }
  uint64_t request_id = 10;
  for (int round = 0; round < 2; ++round) {
    // Round 0 answers slot 1 first, round 1 slot 0.
    server_->SetSlotDelayForTest(slots[0], round == 0 ? 150'000 : 30'000);
    server_->SetSlotDelayForTest(slots[1], round == 0 ? 30'000 : 150'000);
    RpcFuture futures[2];
    uint64_t ids[2];
    for (int i = 0; i < 2; ++i) {
      ids[i] = request_id++;
      futures[i] = (*client)->CallAsync(MakePageIn(ids[i], slots[i]));
    }
    std::atomic<int> good{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 2; ++i) {
      waiters.emplace_back([&, i] {
        const Result<Message>& reply = futures[i].Wait();
        if (reply.ok() && reply->request_id == ids[i] &&
            CheckPattern(std::span<const uint8_t>(reply->payload), 60 + static_cast<uint64_t>(i))) {
          good.fetch_add(1);
        }
      });
    }
    for (auto& waiter : waiters) {
      waiter.join();
    }
    EXPECT_EQ(good.load(), 2) << "round " << round;
  }
  server_->SetSlotDelayForTest(slots[0], 0);
  server_->SetSlotDelayForTest(slots[1], 0);
  EXPECT_EQ((*client)->inflight(), 0u);
}

// A bare loopback listener in place of a TcpServer: the test plays the server
// side of the connection with blocking ReadFrame/SendFrame. `rcvbuf`, when
// set, is inherited by the accepted socket.
class RawListener {
 public:
  explicit RawListener(int rcvbuf = 0) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (rcvbuf > 0) {
      ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(fd_.get(), 4) == 0 &&
        ::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }

  uint16_t port() const { return port_; }
  UniqueFd Accept() { return UniqueFd(::accept(fd_.get(), nullptr, nullptr)); }

 private:
  UniqueFd fd_;
  uint16_t port_ = 0;
};

TEST(TcpRawPeerTest, PeerHangupFailsTheBlockedWait) {
  RawListener listener;
  ASSERT_NE(listener.port(), 0);
  auto client = TcpTransport::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(client.ok());
  UniqueFd server = listener.Accept();
  std::thread peer([&] {
    (void)ReadFrame(server.get());  // The call is on the wire and its caller
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // blocked.
    server.Reset();
  });
  auto reply = (*client)->Call(MakeLoadQuery(1));
  peer.join();
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE((*client)->connected());
}

TEST(TcpRawPeerTest, CorruptReplyFailsTheBlockedWait) {
  RawListener listener;
  ASSERT_NE(listener.port(), 0);
  auto client = TcpTransport::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(client.ok());
  UniqueFd server = listener.Accept();
  std::thread peer([&] {
    auto request = ReadFrame(server.get());
    ASSERT_TRUE(request.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    PageBuffer page;
    FillPattern(page.span(), 4);
    std::vector<uint8_t> reply =
        Encode(MakePageInReply(request->request_id, 0, page.span(), ErrorCode::kOk));
    reply.back() ^= 0xff;  // The payload no longer matches its CRC.
    ASSERT_EQ(::send(server.get(), reply.data(), reply.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(reply.size()));
  });
  auto reply = (*client)->Call(MakePageIn(1, 0));
  peer.join();
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_NE(reply.status().message().find("CRC"), std::string::npos)
      << reply.status().ToString();
  EXPECT_FALSE((*client)->connected());
}

// A reply to an id no caller waits on is dropped and counted in
// tcp.unmatched_replies; a call pending on the same connection still gets
// its own reply.
TEST(TcpRawPeerTest, UnmatchedReplyIsCountedAndDropped) {
  const Counter& unmatched = *MetricsRegistry::Global().GetCounter("tcp.unmatched_replies");
  const int64_t before = unmatched.value();
  RawListener listener;
  ASSERT_NE(listener.port(), 0);
  auto client = TcpTransport::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(client.ok());
  UniqueFd server = listener.Accept();
  std::thread peer([&] {
    auto request = ReadFrame(server.get());
    ASSERT_TRUE(request.ok());
    const uint64_t id = request->request_id;
    ASSERT_TRUE(SendFrame(server.get(), MakeErrorReply(id + 1000, ErrorCode::kOk)).ok());
    ASSERT_TRUE(SendFrame(server.get(), MakeErrorReply(id, ErrorCode::kOk)).ok());
  });
  auto reply = (*client)->Call(MakeLoadQuery(7));
  peer.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 7u);
  EXPECT_EQ(unmatched.value() - before, 1);
  EXPECT_TRUE((*client)->connected());
  EXPECT_EQ((*client)->inflight(), 0u);
}

// A raw client in place of a TcpTransport, so a test can put arbitrary bytes
// on the server's wire.
UniqueFd ConnectRaw(uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fd.Reset();
  }
  return fd;
}

// A PAGEOUT whose slot took one bit flip in flight names another granted
// slot. The server must drop the connection at the header check instead of
// storing the page over that slot and acking it OK.
TEST_F(TcpTest, FlippedSlotBitClosesTheConnectionAndStoresNothing) {
  UniqueFd fd = ConnectRaw(tcp_server_->port());
  ASSERT_GE(fd.get(), 0);
  ASSERT_TRUE(SendFrame(fd.get(), MakeAllocRequest(1, 4)).ok());
  auto alloc = ReadFrame(fd.get());
  ASSERT_TRUE(alloc.ok()) << alloc.status().ToString();
  ASSERT_EQ(alloc->status_code(), ErrorCode::kOk);
  const uint64_t slot = alloc->slot + (alloc->slot & 1);  // Even: slot ^ 1 is granted too.
  PageBuffer page;
  FillPattern(page.span(), 3);
  std::vector<uint8_t> frame = Encode(MakePageOut(2, slot, page.span()));
  frame[kSlotOffset] ^= 0x01;
  ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  auto reply = ReadFrame(fd.get());
  EXPECT_FALSE(reply.ok()) << "acked " << ErrorCodeName(reply->status_code()) << " for slot "
                           << reply->slot;
  EXPECT_FALSE(server_->Holds(slot));
  EXPECT_FALSE(server_->Holds(slot ^ 1));
  EXPECT_EQ(server_->stats().pageouts_served.load(), 0);
}

// Two submissions of one request_id that both wait for send space: one is
// rejected and the other answered. Neither may be sent without a registered
// future, whose Wait() would then never return.
TEST(TcpRawPeerTest, DuplicateIdThatWaitedForSendSpaceIsRejected) {
  RawListener listener(64 * 1024);  // A small window fills quickly.
  ASSERT_NE(listener.port(), 0);
  auto client = TcpTransport::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(client.ok());
  TcpTransport* transport = client->get();
  UniqueFd server = listener.Accept();

  // The peer reads nothing yet: once the socket buffers are full,
  // kMaxQueuedSends frames queue and the filler blocks for send space.
  constexpr uint64_t kFill = 512;
  PageBuffer page;
  FillPattern(page.span(), 1);
  std::vector<RpcFuture> filled;
  std::atomic<uint64_t> submitted{0};
  std::thread filler([&] {
    for (uint64_t id = 1; id <= kFill; ++id) {
      filled.push_back(transport->CallAsync(MakePageOut(id, 0, page.span())));
      submitted.store(id);
    }
  });
  // Waits (bounded) until `n` callers are blocked for send space.
  auto await_space_waiters = [transport](size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (transport->space_waiters() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  EXPECT_TRUE(await_space_waiters(1)) << "the filler never blocked for send space";
  EXPECT_LT(submitted.load(), kFill) << "the send queue never filled";

  constexpr uint64_t kDup = 1'000'000;
  RpcFuture dup[2];
  std::atomic<int> dups_returned{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 2; ++i) {
    submitters.emplace_back([&, i] {
      dup[i] = transport->CallAsync(MakeLoadQuery(kDup));
      dups_returned.fetch_add(1);
    });
  }
  // The filler and both duplicates wait for space.
  EXPECT_TRUE(await_space_waiters(3)) << "a duplicate never blocked for send space";

  // Now the peer drains the connection and answers every frame. It holds
  // the duplicate's answer until both submissions have returned: answered
  // sooner, the id is free again when the second one wakes, and that one is
  // rightly sent rather than rejected.
  std::thread peer([&] {
    bool holding_dup = false;
    for (;;) {
      if (holding_dup && dups_returned.load() == 2) {
        holding_dup = false;
        if (!SendFrame(server.get(), MakeErrorReply(kDup, ErrorCode::kOk)).ok()) {
          return;
        }
      }
      pollfd readable{.fd = server.get(), .events = POLLIN, .revents = 0};
      if (::poll(&readable, 1, /*timeout_ms=*/1) == 0) {
        continue;
      }
      auto frame = ReadFrame(server.get());
      if (!frame.ok()) {
        return;
      }
      if (frame->request_id == kDup) {
        holding_dup = true;
        continue;
      }
      if (!SendFrame(server.get(), MakeErrorReply(frame->request_id, ErrorCode::kOk)).ok()) {
        return;
      }
    }
  });
  for (auto& submitter : submitters) {
    submitter.join();
  }
  filler.join();
  int rejected = 0;
  int answered = 0;
  for (RpcFuture& future : dup) {
    // Bounded: an orphaned future would otherwise hang the test.
    Result<Message> reply = future.WaitFor(5 * kSecond);
    if (reply.status().code() == ErrorCode::kInvalidArgument) {
      ++rejected;
    } else if (reply.ok() && reply->request_id == kDup) {
      ++answered;
    }
  }
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(answered, 1);
  for (RpcFuture& future : filled) {
    EXPECT_TRUE(future.WaitFor(5 * kSecond).ok());
  }
  transport->Close();
  peer.join();
}

}  // namespace
}  // namespace rmp
