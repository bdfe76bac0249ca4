#include "src/transport/inproc_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/server/memory_server.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

class InProcTransportTest : public ::testing::Test {
 protected:
  InProcTransportTest() : server_(MakeParams()), transport_(&server_) {}

  static MemoryServerParams MakeParams() {
    MemoryServerParams params;
    params.capacity_pages = 128;
    return params;
  }

  MemoryServer server_;
  InProcTransport transport_;
};

TEST_F(InProcTransportTest, CallRoundTrips) {
  auto reply = transport_.Call(MakeAllocRequest(1, 4));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MessageType::kAllocReply);
  EXPECT_EQ(reply->count, 4u);
}

TEST_F(InProcTransportTest, PayloadSurvivesWireFormat) {
  auto alloc = transport_.Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 77);
  auto ack = transport_.Call(MakePageOut(2, alloc->slot, page.span()));
  ASSERT_TRUE(ack.ok());
  auto pagein = transport_.Call(MakePageIn(3, alloc->slot));
  ASSERT_TRUE(pagein.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(pagein->payload), 77));
}

TEST_F(InProcTransportTest, DisconnectMakesCallsUnavailable) {
  transport_.Disconnect();
  EXPECT_FALSE(transport_.connected());
  auto reply = transport_.Call(MakeLoadQuery(1));
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  transport_.Reconnect();
  EXPECT_TRUE(transport_.Call(MakeLoadQuery(2)).ok());
}

TEST_F(InProcTransportTest, DropNextReplyLosesOneReply) {
  transport_.DropNextReply();
  auto lost = transport_.Call(MakeAllocRequest(1, 1));
  EXPECT_EQ(lost.status().code(), ErrorCode::kUnavailable);
  // The request *was* processed server-side (the reply was lost, not the
  // request) and the connection is now down — like a mid-call crash.
  EXPECT_FALSE(transport_.connected());
  EXPECT_EQ(server_.stats().allocations, 1);
}

TEST_F(InProcTransportTest, CountsWireBytes) {
  PageBuffer page;
  auto alloc = transport_.Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  const uint64_t before = transport_.bytes_sent();
  ASSERT_TRUE(transport_.Call(MakePageOut(2, alloc->slot, page.span())).ok());
  EXPECT_EQ(transport_.bytes_sent() - before, kWirePrefixSize + kPageSize);
  EXPECT_EQ(transport_.calls(), 2u);
}

// Fault injection flips the connection from one thread while another calls,
// as a crash injected under the HealthMonitor's background pump does. The
// faults_smoke label runs this under TSan.
TEST_F(InProcTransportTest, DisconnectRacesACallingThread) {
  std::atomic<bool> stop{false};
  std::atomic<int> calls{0};
  int other = 0;  // Replies that are neither OK nor UNAVAILABLE.
  std::thread caller([&] {
    for (uint64_t id = 1; !stop.load(); ++id) {
      const ErrorCode code = transport_.Call(MakeLoadQuery(id)).status().code();
      if (code != ErrorCode::kOk && code != ErrorCode::kUnavailable) {
        ++other;
      }
      calls.fetch_add(1);
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (calls.load() < 500 && std::chrono::steady_clock::now() < deadline) {
    transport_.Disconnect();
    std::this_thread::yield();
    transport_.Reconnect();
  }
  stop.store(true);
  caller.join();
  EXPECT_GE(calls.load(), 500);
  EXPECT_EQ(other, 0);
  EXPECT_TRUE(transport_.Call(MakeLoadQuery(0)).ok());
}

TEST_F(InProcTransportTest, SendOneWayDelivers) {
  ASSERT_TRUE(transport_.SendOneWay(MakeShutdown(1)).ok());
  transport_.Disconnect();
  EXPECT_EQ(transport_.SendOneWay(MakeShutdown(2)).code(), ErrorCode::kUnavailable);
}

// --- CallAsync over the in-process transport --------------------------------
//
// InProcTransport inherits the default CallAsync, which completes the future
// before returning. Policies written against Start/Join pairs therefore keep
// the seed's deterministic, synchronous semantics in every simulation test.

TEST_F(InProcTransportTest, CallAsyncIsReadyImmediately) {
  RpcFuture future = transport_.CallAsync(MakeAllocRequest(1, 4));
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());
  auto reply = future.Wait();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MessageType::kAllocReply);
  EXPECT_EQ(reply->count, 4u);
}

TEST_F(InProcTransportTest, WaitIsIdempotent) {
  RpcFuture future = transport_.CallAsync(MakeLoadQuery(1));
  auto first = future.Wait();
  auto second = future.Wait();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->type, second->type);
  EXPECT_EQ(first->request_id, second->request_id);
}

TEST_F(InProcTransportTest, CallAsyncAfterDisconnectIsReadyUnavailable) {
  transport_.Disconnect();
  RpcFuture future = transport_.CallAsync(MakeLoadQuery(1));
  ASSERT_TRUE(future.valid());
  // Even the failure is delivered synchronously: no test ever blocks.
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.Wait().status().code(), ErrorCode::kUnavailable);
}

TEST_F(InProcTransportTest, DefaultWaitOnInvalidFutureIsInternalError) {
  RpcFuture future;
  EXPECT_FALSE(future.valid());
  EXPECT_EQ(future.Wait().status().code(), ErrorCode::kInternal);
}

TEST_F(InProcTransportTest, ManyOutstandingFuturesAllResolve) {
  auto alloc = transport_.Call(MakeAllocRequest(1, 16));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  std::vector<RpcFuture> outs;
  for (uint64_t i = 0; i < 16; ++i) {
    FillPattern(page.span(), i);
    outs.push_back(transport_.CallAsync(MakePageOut(10 + i, alloc->slot + i, page.span())));
  }
  for (auto& future : outs) {
    auto ack = future.Wait();
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->status_code(), ErrorCode::kOk);
  }
  std::vector<RpcFuture> ins;
  for (uint64_t i = 0; i < 16; ++i) {
    ins.push_back(transport_.CallAsync(MakePageIn(30 + i, alloc->slot + i)));
  }
  for (uint64_t i = 0; i < 16; ++i) {
    auto reply = ins[i].Wait();
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(reply->payload), i)) << i;
  }
}

}  // namespace
}  // namespace rmp
