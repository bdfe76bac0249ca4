// Standalone remote memory server — the deployable half of the system, the
// paper's "user level program listening to a socket" (§3.2). Run one per
// donating workstation; point paging clients at host:port (see
// tcp_cluster.cpp for the client side).
//
//   $ ./rmp_server [config-file]
//
// Config keys (key = value, '#' comments):
//   port           = 7070     # 0 picks an ephemeral port
//   capacity_mb    = 64       # donated main memory
//   name           = ws0
//   verbose        = false
//   run_seconds    = 0        # 0 = run until killed
//   auth_token     =          # non-empty: require AUTH from every client
// plus the store.* tuning keys (sharding, compressed cold tier, spill —
// see the README knob table and StoreConfigKeys) and the tenant.* quota keys
// (TenantConfigKeys). Any other key without a '.', or under store. or
// tenant., is rejected.

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/server/memory_server.h"
#include "src/transport/tcp.h"
#include "src/util/config.h"
#include "src/util/logging.h"

namespace rmp {
namespace {

int Main(int argc, char** argv) {
  Config config;
  if (argc > 1) {
    auto loaded = Config::Load(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "config: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    config = *loaded;
  }
  int64_t port = 7070;
  int64_t capacity_mb = 64;
  int64_t run_seconds = 0;
  bool verbose = false;
  std::string auth_token;
  MemoryServerParams server_params;
  server_params.name = "rmp-server";
  ConfigTable table = {
      {"port", ConfigKey::kInt, &port, 0, 65535},
      {"capacity_mb", ConfigKey::kInt, &capacity_mb, 1, 1 << 20},
      {"run_seconds", ConfigKey::kInt, &run_seconds, 0, 1e9},
      {"verbose", ConfigKey::kBool, &verbose},
      {"name", ConfigKey::kString, &server_params.name},
      {"auth_token", ConfigKey::kString, &auth_token},
  };
  const ConfigTable store = StoreConfigKeys(&server_params);
  table.insert(table.end(), store.begin(), store.end());
  auto tenants = TenantConfigKeys(config, &server_params.tenants);
  Status applied = tenants.status();
  if (applied.ok()) {
    table.insert(table.end(), tenants->begin(), tenants->end());
    applied = ApplyConfig(config, table);
  }
  if (!applied.ok()) {
    std::fprintf(stderr, "config: %s\n", applied.ToString().c_str());
    return 1;
  }
  SetLogLevel(verbose ? LogLevel::kDebug : LogLevel::kWarning);
  server_params.capacity_pages = static_cast<uint64_t>(capacity_mb) * kMiB / kPageSize;
  auto server = std::make_shared<MemoryServer>(server_params);

  auto listener = TcpServer::Start(static_cast<uint16_t>(port), TcpServer::ForwardTo(server),
                                   auth_token);
  if (!listener.ok()) {
    std::fprintf(stderr, "listen: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: donating %lld MB (%llu pages) on 127.0.0.1:%u\n",
              server_params.name.c_str(), static_cast<long long>(capacity_mb),
              (unsigned long long)server_params.capacity_pages, (*listener)->port());

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(run_seconds);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    if (run_seconds > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    if (verbose) {
      std::printf("%s: %llu live pages, %llu free, %d connections\n",
                  server_params.name.c_str(), (unsigned long long)server->live_pages(),
                  (unsigned long long)server->free_pages(), (*listener)->connections_served());
    }
  }
  (*listener)->Shutdown();
  std::printf("%s: served %lld pageouts, %lld pageins\n", server_params.name.c_str(),
              (long long)server->stats().pageouts_served,
              (long long)server->stats().pageins_served);
  return 0;
}

}  // namespace
}  // namespace rmp

int main(int argc, char** argv) { return rmp::Main(argc, argv); }
