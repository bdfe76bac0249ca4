// Testbed: assembles an in-process cluster — memory servers, transports,
// shared Ethernet fabric, and a paging backend for the chosen policy — in
// one call. Used by the unit/integration tests, the examples, and the
// figure benches. The TCP tools assemble the same pieces over sockets.

#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/basic_parity.h"
#include "src/core/health.h"
#include "src/proto/cluster_map.h"
#include "src/util/config.h"
#include "src/core/mirroring.h"
#include "src/core/no_reliability.h"
#include "src/core/parity_logging.h"
#include "src/core/repair.h"
#include "src/core/write_through.h"
#include "src/server/memory_server.h"
#include "src/transport/fault_injection.h"
#include "src/transport/inproc_transport.h"
#include "src/util/events.h"

namespace rmp {

// The paging configurations of the paper's evaluation (Fig. 2 / Fig. 5).
enum class Policy {
  kNoReliability,
  kMirroring,
  kBasicParity,
  kParityLogging,
  kWriteThrough,
  kDisk,
};

std::string_view PolicyName(Policy policy);

// Elastic-membership tuning (DESIGN.md §16).
struct ElasticParams {
  // Consistent-hash groups in the map (`cluster.page_groups`). More groups
  // = finer rebalance ranges at a few bytes of map each.
  uint32_t page_groups = 64;
};

struct TestbedParams {
  Policy policy = Policy::kNoReliability;
  // Number of data-holding servers; parity policies add one parity server
  // on top (the paper: 2 for NO_RELIABILITY/MIRRORING, 4 + parity for
  // PARITY_LOGGING).
  int data_servers = 2;
  uint64_t server_capacity_pages = 8192;
  // Timing model for the shared segment; nullptr runs untimed (functional
  // tests). Ignored by kDisk.
  std::shared_ptr<const NetworkModel> network;
  DiskParams disk;
  uint64_t disk_blocks = 1 << 16;
  RemotePagerParams pager;
  ParityLoggingParams parity_logging;
  // Give NO_RELIABILITY a local-disk fallback (needed for the §2.1
  // migration-to-disk path; benches leave it off so denials surface).
  bool no_reliability_disk_fallback = false;
  // Extra server appended as the basic-parity hot spare.
  bool with_spare = false;
  // Compressed cold tier applied to every server (off by default; see
  // StoreTierParams). Tests use it to cross tier behaviour with the
  // reliability policies and crash recovery.
  StoreTierParams store_tier;
  // Per-tenant QoS policy applied to every server (empty = tenant
  // enforcement off, the byte-identical legacy path; DESIGN.md §15).
  TenantPolicyParams tenants;
  // Tenant id stamped onto every client RPC (0 = untenanted).
  uint16_t client_tenant = 0;
  // Server-side observability (DESIGN.md §17): span-ring capacity and
  // flight-recorder journal options applied to every server. The client
  // pager's tracer/journal/SLO knobs live in `pager` (RemotePagerParams).
  size_t server_span_ring = 4096;
  EventJournalOptions server_events;
};

class Testbed {
 public:
  static Result<std::unique_ptr<Testbed>> Create(const TestbedParams& params);

  PagingBackend& backend() { return *backend_; }

  // Bulk-loads pages 0..pages-1 through the backend's vectored pageout path
  // (PageOutBatch), each filled with FillPattern(PreloadSeed(seed, id)).
  // Returns the completion time. Used by tests and benches to stand up a
  // populated cluster without paying one round trip per page.
  Result<TimeNs> Preload(uint64_t pages, uint64_t seed = 1, TimeNs now = 0);

  // The per-page pattern seed Preload uses; tests verify read-back with
  // CheckPattern(page, PreloadSeed(seed, id)).
  static uint64_t PreloadSeed(uint64_t seed, uint64_t page_id) {
    return seed ^ (page_id * 0x9e3779b97f4a7c15ULL + 1);
  }

  size_t server_count() const { return servers_.size(); }
  MemoryServer& server(size_t i) { return *servers_[i]; }
  InProcTransport& transport(size_t i) { return *transports_[i]; }

  // The fault-injection wrapper in front of server `i`'s transport. Every
  // client RPC flows through it; install a FaultPlan to perturb delivery.
  // Crash faults fired by a plan invoke CrashServer(i) via the wrapper's
  // crash hook, so a mid-RPC crash behaves exactly like an explicit one.
  FaultInjectingTransport& fault(size_t i) { return *faults_[i]; }
  // Also points the plan's flight-recorder hook at the client journal
  // (actor "faults@server-i"), so every injected fault lands on the merged
  // timeline next to the transitions it caused.
  void InstallFaultPlan(size_t i, std::shared_ptr<FaultPlan> plan);

  // Crashes server `i`: its stored pages vanish and its transport drops.
  void CrashServer(size_t i);

  struct RestartOptions {
    // false (default): the server process restarts — memory empty, stats
    // zeroed, incarnation bumped, so a health monitor sees a *reboot* and
    // repairs before re-admission. true: the store is left untouched and
    // only the transports reconnect, modeling a healed network partition —
    // the incarnation is unchanged and the pages are still there.
    bool preserve_memory = false;
  };

  // Brings server `i` back and reconnects its transport (fault wrapper
  // included); see RestartOptions for the reboot/partition distinction.
  void RestartServer(size_t i, RestartOptions opts);
  void RestartServer(size_t i) { RestartServer(i, RestartOptions()); }

  // Severs server `i`'s transports without crashing it: RPCs fail with the
  // connection down but the stored pages survive. Undo with
  // RestartServer(i, {.preserve_memory = true}).
  void PartitionServer(size_t i);

  // One-stop live introspection: the client pager's registry (BackendStats
  // synced in, trace stage histograms included), each server's registry
  // (per-tenant tenant.<id>.* counters/gauges included when enforcement is
  // on), and the process-wide registry, as labeled text sections. Works for
  // kDisk too (client section omitted).
  std::string DumpMetrics();

  // Points server `i`'s TRACE_DUMP handler at the client pager's tracer so
  // a trace ring can be pulled back over the wire. No-op for kDisk.
  void AttachTracerToServer(size_t i);

  // --- Observability (DESIGN.md §17) ---------------------------------------

  // Drains every server's span ring into the client tracer: each measured
  // srv_* span feeds its stage histogram and attaches to the matching trace
  // record, so the next TRACE_DUMP / latency_breakdown snapshot reports
  // *measured* server-side stages. The in-proc equivalent of pulling
  // TRACE_DUMP (document 1) from each server. Returns the number of spans
  // stitched; 0 for kDisk.
  size_t StitchServerSpans();

  // The client pager's flight-recorder journal (null for kDisk). The
  // Testbed wires the health monitor, repair coordinator, fault plans, and
  // its own lifecycle calls (crash/restart/join/decommission) into it.
  EventJournal* events();

  // Merges the client journal and every server's journal into one timeline
  // (sorted on the shared process-monotonic clock) and renders it as text —
  // the post-mortem dump a failed crash-recovery scenario prints.
  std::string DumpFlightRecorder();

  // Attaches the self-healing layer (HealthMonitor + RepairCoordinator) to
  // the backend. Call once, after Create; fails for kDisk (no cluster).
  // Drive it with repair().Pump()/RunToQuiescence() on the simulated clock.
  Status EnableSelfHealing(const HealthParams& health_params = HealthParams(),
                           const RepairParams& repair_params = RepairParams());
  HealthMonitor* health() { return monitor_.get(); }
  RepairCoordinator* repair() { return repair_.get(); }

  // --- Elastic membership (DESIGN.md §16) ----------------------------------

  // Builds the epoch-1 cluster map (every current server ACTIVE at its boot
  // incarnation), adopts it on the client, publishes it to every server, and
  // arms the rebalance job. Requires a remote-memory policy; call after
  // EnableSelfHealing when the paced rebalance should run (without the
  // coordinator the map still drives placement and epoch checks).
  Status EnableElasticMembership(const ElasticParams& elastic = {}, TimeNs* now = nullptr);

  // Live scale-out: spins up one more server + transport, appends it to the
  // cluster, and publishes an epoch+1 map with the new member ACTIVE. The
  // armed rebalance then walks each moved hash range onto it. Returns the
  // new peer index.
  Result<size_t> JoinServer(TimeNs* now = nullptr);

  // Live scale-in, step 1: mark peer `i` kLeaving in an epoch+1 map. It
  // takes no new pages but keeps serving reads while the rebalance drains
  // the ranges it owned.
  Status DecommissionServer(size_t i, TimeNs* now = nullptr);

  // Live scale-in, step 2: once the policy holds no pages on `i`
  // (PagesOn(i) == 0), drop the member from the map entirely (epoch+1).
  // FailedPrecondition while pages remain — finish the drain first.
  Status CompleteDecommission(size_t i, TimeNs* now = nullptr);

  // The backend as a remote pager (null for kDisk).
  RemotePagerBase* remote_pager() { return dynamic_cast<RemotePagerBase*>(backend_.get()); }

  // The policy-typed views (null when the policy does not match).
  ParityLoggingBackend* parity_logging() {
    return params_.policy == Policy::kParityLogging
               ? static_cast<ParityLoggingBackend*>(backend_.get())
               : nullptr;
  }
  MirroringBackend* mirroring() {
    return params_.policy == Policy::kMirroring ? static_cast<MirroringBackend*>(backend_.get())
                                                : nullptr;
  }
  NoReliabilityBackend* no_reliability() {
    return params_.policy == Policy::kNoReliability
               ? static_cast<NoReliabilityBackend*>(backend_.get())
               : nullptr;
  }
  WriteThroughBackend* write_through() {
    return params_.policy == Policy::kWriteThrough
               ? static_cast<WriteThroughBackend*>(backend_.get())
               : nullptr;
  }
  BasicParityBackend* basic_parity() {
    return params_.policy == Policy::kBasicParity
               ? static_cast<BasicParityBackend*>(backend_.get())
               : nullptr;
  }

  const TestbedParams& params() const { return params_; }

 private:
  explicit Testbed(TestbedParams params) : params_(std::move(params)) {}

  TestbedParams params_;
  std::vector<std::unique_ptr<MemoryServer>> servers_;
  // Both owned by the Cluster inside backend_: each peer's transport is a
  // FaultInjectingTransport wrapping the InProcTransport to its server.
  std::vector<InProcTransport*> transports_;
  std::vector<FaultInjectingTransport*> faults_;
  std::unique_ptr<PagingBackend> backend_;
  // Declared after backend_ (destroyed first): both reference its cluster.
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<RepairCoordinator> repair_;

  // Builds one server + transport + fault wrapper and appends it to the
  // given cluster (Create's local cluster, or the live one on JoinServer).
  void AddServerTo(Cluster* cluster);

  // Appends a lifecycle event (actor "testbed") to the client journal; the
  // disabled path (kDisk, no pager) is a no-op.
  void JournalClient(EventKind kind, const std::string& detail);

  // Publishes `members` as the next map (epoch+1) and re-arms the rebalance.
  Status AdoptNextMap(RemotePagerBase* pager, std::vector<ClusterMember> members, TimeNs* now);
};

// The `cluster.*` config table (README: elastic membership knobs):
//   cluster.page_groups             -> elastic->page_groups            (default 64)
//   cluster.rebalance_pages_per_sec -> repair->rebalance_pages_per_sec (0 = unpaced)
//   cluster.rebalance_burst         -> repair->rebalance_burst_pages   (default 64)
//   cluster.epoch_refresh_ms        -> pager->map_refresh_interval     (0 = reactive)
// A null out-param's keys are still checked but set nothing.
ConfigTable ClusterConfigKeys(ElasticParams* elastic, RepairParams* repair,
                              RemotePagerParams* pager);

// The observability config table (README: observability knobs) over the
// given testbed params:
//   trace.*           -> params->pager.trace      (TraceConfigKeys)
//   trace.span_ring   -> params->server_span_ring (per-server span ring)
//   events.*          -> params->pager.events AND params->server_events
//   slo.*             -> params->pager.slo        (SloConfigKeys)
ConfigTable ObservabilityConfigKeys(TestbedParams* params);

}  // namespace rmp

#endif  // SRC_CORE_TESTBED_H_
