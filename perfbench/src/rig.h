// The benchmark's deployment: N in-process MemoryServers, each behind its own
// loopback TcpServer, and one TcpTransport per server from the client. With
// tracing on, the handler factory wraps every session in a TimedHandler and
// every connection is handed out inside a TimedTransport.

#ifndef PERFBENCH_SRC_RIG_H_
#define PERFBENCH_SRC_RIG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/src/ledger.h"
#include "src/core/cluster.h"
#include "src/server/memory_server.h"
#include "src/transport/tcp.h"

namespace perfbench {

// The fixed deployment, recorded in perfbench/deployment.json. Only the
// server capacity can be overridden (--capacity-pages), to reproduce the
// PARITY_LOGGING space bug described in perfbench/NOTES.md.
struct Deployment {
  int server_loops = 1;        // Reactor loop threads per TcpServer.
  int server_workers = 2;      // Service-worker threads per TcpServer.
  int client_loops = 1;        // Loop threads of the client-side reactor.
  uint64_t capacity_pages = 16384;  // Per-server donated memory.
  // open_rpc: offered rates (requests/s), the seconds spent at each, the
  // p99 limit, and the max-rate search.
  double rates[3] = {5000, 10000, 20000};
  double step_s[3] = {1.5, 0.5, 0.5};
  double p99_limit_us = 10000;
  double search_step_s = 0.2;
  int search_steps = 6;
};

class Rig {
 public:
  // Starts `servers` loopback servers and connects one TcpTransport to each.
  static rmp::Result<std::unique_ptr<Rig>> Start(int servers, const Deployment& deployment,
                                                 Recorder* recorder);
  // Closes any connection not yet handed out, then stops every server.
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Hands every connection to a Cluster (policy workloads).
  rmp::Cluster TakeCluster();
  // Hands the connections out directly (open_rpc drives them itself).
  std::vector<std::unique_ptr<rmp::Transport>> TakeTransports();

  // Sum over servers of the served-request counters (fingerprint input).
  int64_t ServedPageIns() const;
  int64_t ServedPageOuts() const;
  // Physical bytes held per logical byte stored, over all servers.
  double PhysicalPerLogical() const;

 private:
  Rig() = default;

  std::vector<std::shared_ptr<rmp::MemoryServer>> servers_;
  std::vector<std::unique_ptr<rmp::TcpServer>> listeners_;
  std::vector<std::unique_ptr<rmp::Transport>> transports_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RIG_H_
