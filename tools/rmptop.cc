// rmptop: live cluster introspection over the wire (DESIGN.md §17).
//
// Polls STATS_QUERY and EVENTS_QUERY against every listed memory server and
// renders a refreshing cluster view — per-server occupancy (hot/cold/zero
// tiers), overload advice, incarnations, and a merged tail of flight-recorder
// events — the way `top` renders processes. Everything shown travels over the
// same TCP frames a paging client uses; rmptop needs no shared memory with
// the servers.
//
//   $ ./rmptop 127.0.0.1:7070 127.0.0.1:7071        # live servers
//   $ ./rmptop --demo                               # self-contained fleet
//   $ ./rmptop --demo --once                        # one frame, no ANSI (CI)
//
// Flags:
//   --demo           start a loopback fleet (3 servers + traced traffic) and
//                    point the view at it; no arguments needed.
//   --once           render a single frame and exit (implies no screen clear).
//   --frames N       exit after N frames (0 = run until killed).
//   --interval-ms N  poll period between frames (default 1000).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/no_reliability.h"
#include "src/proto/wire.h"
#include "src/server/memory_server.h"
#include "src/transport/tcp.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

// --- Minimal JSON field extraction -----------------------------------------
// The introspection payloads are machine-generated flat JSON (metrics
// snapshots, event arrays); a full parser would be dead weight. These helpers
// pull one scalar / string field by key and tolerate absence (returning 0 /
// empty), which is all a status display needs.

int64_t JsonScalar(const std::string& json, const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) {
    return 0;
  }
  size_t value = pos + needle.size();
  // Metrics snapshots nest the number under {"kind":...,"value":N}.
  if (value < json.size() && json[value] == '{') {
    const size_t inner = json.find("\"value\":", value);
    const size_t close = json.find('}', value);
    if (inner == std::string::npos || (close != std::string::npos && inner > close)) {
      return 0;
    }
    value = inner + std::strlen("\"value\":");
  }
  return std::strtoll(json.c_str() + value, nullptr, 10);
}

std::string JsonString(const std::string& json, const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) {
    return "";
  }
  std::string out;
  for (size_t i = pos + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\\' && i + 1 < json.size()) {
      out += json[++i];  // Good enough for \" and \\; control escapes stay visible.
      continue;
    }
    if (c == '"') {
      break;
    }
    out += c;
  }
  return out;
}

// --- Polling state ----------------------------------------------------------

struct ServerView {
  std::string addr;
  std::unique_ptr<TcpTransport> transport;
  uint64_t request_id = 1;
  uint64_t next_seq = 1;  // First event seq not yet shown.
  bool up = false;
  std::string stats_json;
};

struct EventLine {
  std::string source;
  std::string text;
};

Result<Message> Query(ServerView* view, Message request) {
  if (view->transport == nullptr || !view->transport->connected()) {
    // (Re)connect: the server may have restarted since the last frame.
    const size_t colon = view->addr.rfind(':');
    auto transport = TcpTransport::Connect(view->addr.substr(0, colon),
                                           static_cast<uint16_t>(std::strtoul(
                                               view->addr.c_str() + colon + 1, nullptr, 10)));
    if (!transport.ok()) {
      return transport.status();
    }
    view->transport = std::move(*transport);
  }
  return view->transport->Call(request);
}

void Poll(ServerView* view, std::vector<EventLine>* events) {
  view->up = false;
  auto stats = Query(view, MakeStatsQuery(view->request_id++));
  if (!stats.ok()) {
    return;
  }
  view->up = true;
  view->stats_json = std::string(IntrospectionJson(*stats));
  auto reply = Query(view, MakeEventsQuery(view->request_id++, view->next_seq));
  if (!reply.ok()) {
    return;
  }
  view->next_seq = reply->count;  // Seq the server's next append will take.
  const std::string json(IntrospectionJson(*reply));
  // Items are {"seq":...} objects; detail strings escape quotes, so this
  // prefix can only start a real item.
  for (size_t pos = json.find("{\"seq\":"); pos != std::string::npos;
       pos = json.find("{\"seq\":", pos + 1)) {
    EventLine line;
    line.source = view->addr;
    line.text = JsonString(json, "kind", pos) + " " + JsonString(json, "actor", pos) + ": " +
                JsonString(json, "detail", pos);
    events->push_back(std::move(line));
  }
}

void RenderFrame(std::vector<ServerView>* views, std::vector<EventLine>* event_tail, int frame,
                 bool clear_screen) {
  std::vector<EventLine> fresh;
  for (ServerView& view : *views) {
    Poll(&view, &fresh);
  }
  event_tail->insert(event_tail->end(), fresh.begin(), fresh.end());
  constexpr size_t kTail = 12;
  if (event_tail->size() > kTail) {
    event_tail->erase(event_tail->begin(),
                      event_tail->begin() + static_cast<long>(event_tail->size() - kTail));
  }

  if (clear_screen) {
    std::printf("\033[H\033[2J");
  }
  std::printf("rmptop — %zu servers, frame %d\n\n", views->size(), frame);
  std::printf("%-21s %5s %8s %8s %8s %7s %7s %7s %5s %4s\n", "SERVER", "UP", "CAP", "LIVE",
              "FREE", "HOT", "COLD", "ZERO", "INC", "STOP");
  for (const ServerView& view : *views) {
    if (!view.up) {
      std::printf("%-21s %5s\n", view.addr.c_str(), "DOWN");
      continue;
    }
    const std::string& j = view.stats_json;
    std::printf("%-21s %5s %8lld %8lld %8lld %7lld %7lld %7lld %5lld %4s\n", view.addr.c_str(),
                "up", static_cast<long long>(JsonScalar(j, "server.capacity_pages")),
                static_cast<long long>(JsonScalar(j, "server.live_pages")),
                static_cast<long long>(JsonScalar(j, "server.free_pages")),
                static_cast<long long>(JsonScalar(j, "server.hot_pages")),
                static_cast<long long>(JsonScalar(j, "server.cold_pages")),
                static_cast<long long>(JsonScalar(j, "server.zero_pages")),
                static_cast<long long>(JsonScalar(j, "server.incarnation")),
                JsonScalar(j, "server.advise_stop") != 0 ? "yes" : "no");
  }
  std::printf("\nrecent events (merged, newest last):\n");
  if (event_tail->empty()) {
    std::printf("  (none)\n");
  }
  for (const EventLine& line : *event_tail) {
    std::printf("  [%s] %s\n", line.source.c_str(), line.text.c_str());
  }
  std::fflush(stdout);
}

// --- Demo fleet -------------------------------------------------------------

// A self-contained loopback fleet: three memory servers behind TcpServer
// listeners and one traced paging client hammering them, so every rmptop
// panel has live numbers without an external cluster.
struct DemoFleet {
  std::vector<std::shared_ptr<MemoryServer>> servers;
  std::vector<std::unique_ptr<TcpServer>> listeners;
  std::unique_ptr<NoReliabilityBackend> pager;
  std::thread traffic;
  std::atomic<bool> stop{false};

  ~DemoFleet() {
    stop.store(true);
    if (traffic.joinable()) {
      traffic.join();
    }
    pager.reset();  // Client connections close before the listeners do.
    for (auto& listener : listeners) {
      listener->Shutdown();
    }
  }
};

Result<std::unique_ptr<DemoFleet>> StartDemo(std::vector<std::string>* addrs) {
  constexpr int kServers = 3;
  auto fleet = std::make_unique<DemoFleet>();
  for (int i = 0; i < kServers; ++i) {
    MemoryServerParams params;
    params.name = "demo-" + std::to_string(i);
    params.capacity_pages = 2048;
    auto server = std::make_shared<MemoryServer>(params);
    server->events().Append(EventKind::kInfo, "demo",
                            params.name + " listening; capacity=" +
                                std::to_string(params.capacity_pages) + " pages");
    auto listener = TcpServer::Start(0, TcpServer::ForwardTo(server));
    if (!listener.ok()) {
      return listener.status();
    }
    addrs->push_back("127.0.0.1:" + std::to_string((*listener)->port()));
    fleet->servers.push_back(std::move(server));
    fleet->listeners.push_back(std::move(*listener));
  }

  Cluster cluster;
  for (int i = 0; i < kServers; ++i) {
    auto transport = TcpTransport::Connect("127.0.0.1", fleet->listeners[i]->port());
    if (!transport.ok()) {
      return transport.status();
    }
    cluster.AddPeer("demo-" + std::to_string(i), std::move(*transport));
  }
  RemotePagerParams pager_params;
  pager_params.trace.sample_per_1k = 1000;  // Trace everything: spans for free.
  fleet->pager = std::make_unique<NoReliabilityBackend>(
      std::move(cluster), std::make_shared<NetworkFabric>(), pager_params, nullptr);

  fleet->traffic = std::thread([f = fleet.get()] {
    PageBuffer page;
    uint64_t p = 0;
    while (!f->stop.load()) {
      FillPattern(page.span(), p);
      (void)f->pager->PageOut(0, p % 1024, page.span());
      (void)f->pager->PageIn(0, p % 1024, page.span());
      ++p;
      if ((p & 0x3f) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  return fleet;
}

int Main(int argc, char** argv) {
  bool demo = false;
  bool once = false;
  int frames = 0;
  int interval_ms = 1000;
  std::vector<std::string> addrs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--frames" && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] != '-') {
      addrs.push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: rmptop [--demo] [--once] [--frames N] [--interval-ms N] "
                   "[host:port ...]\n");
      return 2;
    }
  }
  if (once) {
    frames = 1;
  }

  std::unique_ptr<DemoFleet> fleet;
  if (demo) {
    auto started = StartDemo(&addrs);
    if (!started.ok()) {
      std::fprintf(stderr, "demo fleet: %s\n", started.status().ToString().c_str());
      return 1;
    }
    fleet = std::move(*started);
    // Let the traffic thread put real numbers on the board first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (addrs.empty()) {
    std::fprintf(stderr, "rmptop: no servers given (try --demo or host:port)\n");
    return 2;
  }

  std::vector<ServerView> views;
  for (const std::string& addr : addrs) {
    ServerView view;
    view.addr = addr;
    views.push_back(std::move(view));
  }
  std::vector<EventLine> event_tail;
  const bool clear_screen = frames != 1;
  for (int frame = 1; frames == 0 || frame <= frames; ++frame) {
    RenderFrame(&views, &event_tail, frame, clear_screen);
    if (frames != 0 && frame == frames) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }

  if (fleet != nullptr) {
    // The demo doubles as the CI smoke: prove the pipeline measured real
    // server-side spans end to end before declaring success.
    fleet->stop.store(true);
    if (fleet->traffic.joinable()) {
      fleet->traffic.join();
    }
    size_t spans = 0;
    for (auto& server : fleet->servers) {
      spans += server->span_ring().size();
    }
    const MetricsSnapshot snapshot = fleet->pager->metrics().Snapshot();
    std::printf("\ndemo: %zu server spans recorded, slo.window_p99_us=%lld, "
                "slo.burn_permille=%lld\n",
                spans, static_cast<long long>(snapshot.Scalar("slo.window_p99_us")),
                static_cast<long long>(snapshot.Scalar("slo.burn_permille")));
    if (spans == 0) {
      std::fprintf(stderr, "demo: no server spans recorded — tracing pipeline broken\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace rmp

int main(int argc, char** argv) { return rmp::Main(argc, argv); }
