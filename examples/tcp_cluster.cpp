// Real-socket cluster: four memory servers listen on loopback TCP ports
// (each one the paper's user-level server, §3.2); the paging client builds
// its Cluster over TcpTransport connections and runs the PARITY_LOGGING
// policy over actual sockets — encode, frame, send, decode, CRC and all.
// Finally one server process is shut down and the client recovers.
//
//   $ ./tcp_cluster

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/parity_logging.h"
#include "src/server/memory_server.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

struct ServerNode {
  std::shared_ptr<MemoryServer> server;
  std::unique_ptr<TcpServer> listener;
};

int Main() {
  constexpr int kServers = 5;  // 4 data + 1 parity.
  constexpr uint64_t kPages = 400;

  // Start the server fleet. In the paper these are idle workstations; here
  // they are loopback listeners, one ephemeral port each — the registry
  // "common file" of §2.1 would list these host:port pairs.
  std::vector<ServerNode> fleet;
  for (int i = 0; i < kServers; ++i) {
    ServerNode node;
    MemoryServerParams params;
    params.name = "ws" + std::to_string(i);
    params.capacity_pages = 1024;
    node.server = std::make_shared<MemoryServer>(params);
    auto listener = TcpServer::Start(0, TcpServer::ForwardTo(node.server));
    if (!listener.ok()) {
      std::fprintf(stderr, "listen: %s\n", listener.status().ToString().c_str());
      return 1;
    }
    node.listener = std::move(*listener);
    std::printf("memory server %s listening on 127.0.0.1:%u\n", params.name.c_str(),
                node.listener->port());
    fleet.push_back(std::move(node));
  }

  // The client connects to every registered server.
  Cluster cluster;
  for (int i = 0; i < kServers; ++i) {
    auto transport = TcpTransport::Connect("127.0.0.1", fleet[i].listener->port());
    if (!transport.ok()) {
      std::fprintf(stderr, "connect: %s\n", transport.status().ToString().c_str());
      return 1;
    }
    cluster.AddPeer("ws" + std::to_string(i), std::move(*transport));
  }
  // No timing model: this run is measured on the wall clock.
  ParityLoggingBackend pager(std::move(cluster), std::make_shared<NetworkFabric>(),
                             RemotePagerParams{}, /*parity_peer=*/4);

  std::printf("\npaging %llu pages out over real TCP...\n", (unsigned long long)kPages);
  PageBuffer page;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t p = 0; p < kPages; ++p) {
    FillPattern(page.span(), p);
    auto done = pager.PageOut(0, p, page.span());
    if (!done.ok()) {
      std::fprintf(stderr, "pageout %llu: %s\n", (unsigned long long)p,
                   done.status().ToString().c_str());
      return 1;
    }
  }
  const auto mid = std::chrono::steady_clock::now();
  for (uint64_t p = 0; p < kPages; ++p) {
    auto done = pager.PageIn(0, p, page.span());
    if (!done.ok() || !CheckPattern(page.span(), p)) {
      std::fprintf(stderr, "pagein %llu failed or corrupt\n", (unsigned long long)p);
      return 1;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const double out_s = std::chrono::duration<double>(mid - start).count();
  const double in_s = std::chrono::duration<double>(end - mid).count();
  std::printf("  pageout: %.1f MB in %.3f s (%.1f MB/s over loopback)\n",
              kPages * kPageSize / 1e6, out_s, kPages * kPageSize / 1e6 / out_s);
  std::printf("  pagein : %.1f MB in %.3f s (%.1f MB/s)\n", kPages * kPageSize / 1e6, in_s,
              kPages * kPageSize / 1e6 / in_s);

  // Kill one server process for real and recover over the sockets.
  std::printf("\nshutting down ws1 and recovering from parity...\n");
  fleet[1].server->Crash();
  fleet[1].listener->Shutdown();
  int verified = 0;
  for (uint64_t p = 0; p < kPages; ++p) {
    auto done = pager.PageIn(0, p, page.span());
    if (!done.ok()) {
      std::fprintf(stderr, "post-crash pagein %llu: %s\n", (unsigned long long)p,
                   done.status().ToString().c_str());
      return 1;
    }
    if (CheckPattern(page.span(), p)) {
      ++verified;
    }
  }
  std::printf("  verified %d/%llu pages after the crash.\n", verified,
              (unsigned long long)kPages);
  for (auto& node : fleet) {
    node.listener->Shutdown();
  }
  return verified == static_cast<int>(kPages) ? 0 : 1;
}

}  // namespace
}  // namespace rmp

int main() { return rmp::Main(); }
