#include "perfbench/src/rig.h"

#include <string>

namespace perfbench {

namespace {

// The untraced session handler: a plain forward, as examples/tcp_cluster
// deploys it.
class ForwardingHandler final : public rmp::MessageHandler {
 public:
  explicit ForwardingHandler(std::shared_ptr<rmp::MemoryServer> server)
      : server_(std::move(server)) {}
  rmp::Message Handle(const rmp::Message& request) override { return server_->Handle(request); }

 private:
  std::shared_ptr<rmp::MemoryServer> server_;
};

}  // namespace

rmp::Result<std::unique_ptr<Rig>> Rig::Start(int servers, const Deployment& deployment,
                                             Recorder* recorder) {
  std::unique_ptr<Rig> rig(new Rig());
  for (int i = 0; i < servers; ++i) {
    rmp::MemoryServerParams params;
    params.name = "ws" + std::to_string(i);
    params.capacity_pages = deployment.capacity_pages;
    auto server = std::make_shared<rmp::MemoryServer>(params);

    rmp::TcpServerOptions options;
    options.service_workers = deployment.server_workers;
    options.reactor.loop_threads = deployment.server_loops;
    rmp::TcpServer::HandlerFactory factory;
    if (recorder->traced()) {
      factory = [server, i, recorder] {
        return std::unique_ptr<rmp::MessageHandler>(new TimedHandler(server, i, recorder));
      };
    } else {
      factory = [server] {
        return std::unique_ptr<rmp::MessageHandler>(new ForwardingHandler(server));
      };
    }
    auto listener = rmp::TcpServer::Start(0, std::move(factory), options);
    if (!listener.ok()) {
      return listener.status();
    }
    rig->servers_.push_back(server);
    rig->listeners_.push_back(std::move(*listener));
  }
  for (int i = 0; i < servers; ++i) {
    auto transport = rmp::TcpTransport::Connect("127.0.0.1", rig->listeners_[i]->port());
    if (!transport.ok()) {
      return transport.status();
    }
    if (recorder->traced()) {
      rig->transports_.push_back(
          std::make_unique<TimedTransport>(std::move(*transport), i, recorder));
    } else {
      rig->transports_.push_back(std::move(*transport));
    }
  }
  return rig;
}

rmp::Cluster Rig::TakeCluster() {
  rmp::Cluster cluster;
  for (size_t i = 0; i < transports_.size(); ++i) {
    cluster.AddPeer(servers_[i]->name(), std::move(transports_[i]));
  }
  transports_.clear();
  return cluster;
}

std::vector<std::unique_ptr<rmp::Transport>> Rig::TakeTransports() {
  return std::move(transports_);
}

int64_t Rig::ServedPageIns() const {
  int64_t total = 0;
  for (const auto& server : servers_) {
    total += server->stats().pageins_served;
  }
  return total;
}

int64_t Rig::ServedPageOuts() const {
  int64_t total = 0;
  for (const auto& server : servers_) {
    total += server->stats().pageouts_served;
  }
  return total;
}

double Rig::PhysicalPerLogical() const {
  double physical = 0;
  double logical = 0;
  for (const auto& server : servers_) {
    const rmp::TierOccupancy occupancy = server->tier_occupancy();
    physical += static_cast<double>(occupancy.physical_bytes);
    logical += static_cast<double>(occupancy.logical_bytes);
  }
  return logical > 0 ? physical / logical : 0.0;
}

Rig::~Rig() {
  transports_.clear();
  for (auto& listener : listeners_) {
    listener->Shutdown();
  }
}

}  // namespace perfbench
