#include "src/core/testbed.h"

#include <algorithm>
#include <cstdio>

#include "src/util/slo.h"
#include "src/util/tracing.h"

namespace rmp {

std::string_view PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kNoReliability:
      return "NO_RELIABILITY";
    case Policy::kMirroring:
      return "MIRRORING";
    case Policy::kBasicParity:
      return "BASIC_PARITY";
    case Policy::kParityLogging:
      return "PARITY_LOGGING";
    case Policy::kWriteThrough:
      return "WRITE_THROUGH";
    case Policy::kDisk:
      return "DISK";
  }
  return "UNKNOWN";
}

Result<std::unique_ptr<Testbed>> Testbed::Create(const TestbedParams& params) {
  if (params.data_servers < 1 && params.policy != Policy::kDisk) {
    return InvalidArgumentError("need at least one data server");
  }
  auto testbed = std::unique_ptr<Testbed>(new Testbed(params));

  if (params.policy == Policy::kDisk) {
    auto disk = DiskBackend::Create(params.disk, params.disk_blocks);
    if (!disk.ok()) {
      return disk.status();
    }
    testbed->backend_ = std::make_unique<DiskBackend>(std::move(*disk));
    return testbed;
  }

  const bool has_parity =
      params.policy == Policy::kParityLogging || params.policy == Policy::kBasicParity;
  const int total_servers =
      params.data_servers + (has_parity ? 1 : 0) + (params.with_spare ? 1 : 0);

  Cluster cluster;
  for (int i = 0; i < total_servers; ++i) {
    testbed->AddServerTo(&cluster);
  }
  // A spare must not be selected by normal placement until recovery uses it.
  if (params.with_spare) {
    cluster.peer(static_cast<size_t>(total_servers) - 1).set_stopped(true);
  }

  auto fabric = params.network != nullptr ? std::make_shared<NetworkFabric>(params.network)
                                          : std::make_shared<NetworkFabric>();
  const size_t parity_peer = static_cast<size_t>(params.data_servers);

  switch (params.policy) {
    case Policy::kNoReliability: {
      std::unique_ptr<DiskBackend> fallback;
      if (params.no_reliability_disk_fallback) {
        auto disk = DiskBackend::Create(params.disk, params.disk_blocks);
        if (!disk.ok()) {
          return disk.status();
        }
        fallback = std::make_unique<DiskBackend>(std::move(*disk));
      }
      testbed->backend_ = std::make_unique<NoReliabilityBackend>(
          std::move(cluster), fabric, params.pager, std::move(fallback));
      break;
    }
    case Policy::kMirroring:
      testbed->backend_ =
          std::make_unique<MirroringBackend>(std::move(cluster), fabric, params.pager);
      break;
    case Policy::kBasicParity: {
      auto backend = std::make_unique<BasicParityBackend>(
          std::move(cluster), fabric, params.pager, parity_peer,
          static_cast<size_t>(params.data_servers));
      if (params.with_spare) {
        backend->SetSpare(static_cast<size_t>(total_servers) - 1);
      }
      testbed->backend_ = std::move(backend);
      break;
    }
    case Policy::kParityLogging:
      testbed->backend_ = std::make_unique<ParityLoggingBackend>(
          std::move(cluster), fabric, params.pager, parity_peer, params.parity_logging);
      break;
    case Policy::kWriteThrough: {
      auto disk = DiskBackend::Create(params.disk, params.disk_blocks);
      if (!disk.ok()) {
        return disk.status();
      }
      testbed->backend_ = std::make_unique<WriteThroughBackend>(
          std::move(cluster), fabric, params.pager,
          std::make_unique<DiskBackend>(std::move(*disk)));
      break;
    }
    case Policy::kDisk:
      return InternalError("unreachable");
  }
  return testbed;
}

void Testbed::AddServerTo(Cluster* cluster) {
  const size_t i = servers_.size();
  MemoryServerParams server_params;
  server_params.name = "server-" + std::to_string(i);
  server_params.capacity_pages = params_.server_capacity_pages;
  server_params.tier = params_.store_tier;
  server_params.tenants = params_.tenants;
  server_params.span_ring_capacity = params_.server_span_ring;
  server_params.events = params_.server_events;
  servers_.push_back(std::make_unique<MemoryServer>(server_params));
  auto transport = std::make_unique<InProcTransport>(servers_.back().get());
  transports_.push_back(transport.get());
  auto fault = std::make_unique<FaultInjectingTransport>(std::move(transport));
  fault->SetCrashHook([this, i] { CrashServer(i); });
  faults_.push_back(fault.get());
  cluster->AddPeer(server_params.name, std::move(fault));
  cluster->peer(cluster->size() - 1).set_tenant(params_.client_tenant);
}

Result<TimeNs> Testbed::Preload(uint64_t pages, uint64_t seed, TimeNs now) {
  std::vector<uint64_t> ids(kMaxBatchPages);
  std::vector<uint8_t> data(static_cast<size_t>(kMaxBatchPages) * kPageSize);
  uint64_t next_id = 0;
  while (next_id < pages) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kMaxBatchPages, pages - next_id));
    for (size_t i = 0; i < n; ++i) {
      ids[i] = next_id + i;
      FillPattern(std::span<uint8_t>(data).subspan(i * kPageSize, kPageSize),
                  PreloadSeed(seed, ids[i]));
    }
    auto done = backend_->PageOutBatch(now, std::span<const uint64_t>(ids).first(n),
                                       std::span<const uint8_t>(data).first(n * kPageSize));
    if (!done.ok()) {
      return done;
    }
    now = *done;
    next_id += n;
  }
  return now;
}

void Testbed::InstallFaultPlan(size_t i, std::shared_ptr<FaultPlan> plan) {
  if (plan != nullptr) {
    if (EventJournal* journal = events()) {
      plan->AttachEvents(journal, "faults@" + servers_[i]->name());
    }
  }
  faults_[i]->InstallPlan(std::move(plan));
}

void Testbed::CrashServer(size_t i) {
  JournalClient(EventKind::kCrash, servers_[i]->name() + " crashed; transport severed");
  servers_[i]->Crash();
  transports_[i]->Disconnect();
  faults_[i]->Disconnect();
}

void Testbed::RestartServer(size_t i, RestartOptions opts) {
  if (!opts.preserve_memory) {
    servers_[i]->Restart();
    // A restarted workstation's counters start from zero; stale pre-crash
    // totals would poison post-recovery assertions.
    servers_[i]->ResetStats();
    JournalClient(EventKind::kRestart,
                  servers_[i]->name() + " restarted empty; incarnation=" +
                      std::to_string(servers_[i]->incarnation()));
  } else {
    JournalClient(EventKind::kRestart, servers_[i]->name() + " partition healed; pages intact");
  }
  transports_[i]->Reconnect();
  faults_[i]->Reconnect();
}

void Testbed::PartitionServer(size_t i) {
  JournalClient(EventKind::kInfo, servers_[i]->name() + " partitioned; transports severed");
  transports_[i]->Disconnect();
  faults_[i]->Disconnect();
}

std::string Testbed::DumpMetrics() {
  std::string out;
  if (auto* pager = dynamic_cast<RemotePagerBase*>(backend_.get())) {
    pager->SyncStatsToMetrics();
    out += "# client (" + std::string(PolicyName(params_.policy)) + ")\n";
    out += pager->metrics().ExportText();
  }
  for (auto& server : servers_) {
    out += "# " + server->name() + "\n";
    (void)server->StatsJson();  // Refreshes the occupancy gauges.
    out += server->metrics().ExportText();
  }
  out += "# process\n";
  out += MetricsRegistry::Global().ExportText();
  return out;
}

void Testbed::AttachTracerToServer(size_t i) {
  if (auto* pager = dynamic_cast<RemotePagerBase*>(backend_.get())) {
    servers_[i]->AttachTracer(&pager->tracer());
  }
}

size_t Testbed::StitchServerSpans() {
  auto* pager = remote_pager();
  if (pager == nullptr) {
    return 0;
  }
  size_t attached = 0;
  for (auto& server : servers_) {
    for (const ServerSpan& span : server->span_ring().Drain()) {
      pager->tracer().AttachServerSpan(span.trace_id, span.stage, span.start, span.duration);
      ++attached;
    }
  }
  return attached;
}

EventJournal* Testbed::events() {
  auto* pager = remote_pager();
  return pager != nullptr ? &pager->events() : nullptr;
}

void Testbed::JournalClient(EventKind kind, const std::string& detail) {
  if (EventJournal* journal = events()) {
    journal->Append(kind, "testbed", detail);
  }
}

std::string Testbed::DumpFlightRecorder() {
  // Every journal stamps the same process-monotonic clock (EventWallNanos),
  // so a plain sort by wall_ns is a true merged timeline.
  struct TimelineEntry {
    std::string source;
    Event event;
  };
  std::vector<TimelineEntry> entries;
  if (auto* pager = remote_pager()) {
    for (Event& e : pager->events().All()) {
      entries.push_back(TimelineEntry{"client", std::move(e)});
    }
  }
  for (auto& server : servers_) {
    for (Event& e : server->events().All()) {
      entries.push_back(TimelineEntry{server->name(), std::move(e)});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TimelineEntry& a, const TimelineEntry& b) {
                     return a.event.wall_ns < b.event.wall_ns;
                   });
  std::string out = "=== flight recorder: " + std::to_string(entries.size()) +
                    " events across " + std::to_string(1 + servers_.size()) + " journals ===\n";
  if (entries.empty()) {
    return out;
  }
  const int64_t base = entries.front().event.wall_ns;
  char prefix[64];
  for (const TimelineEntry& entry : entries) {
    const Event& e = entry.event;
    std::snprintf(prefix, sizeof(prefix), "[+%10.6fs] %-9s %-11s ",
                  static_cast<double>(e.wall_ns - base) / 1e9, entry.source.c_str(),
                  std::string(EventKindName(e.kind)).c_str());
    out += prefix;
    out += e.actor + ": " + e.detail + "\n";
  }
  return out;
}

Status Testbed::EnableSelfHealing(const HealthParams& health_params,
                                  const RepairParams& repair_params) {
  auto* pager = dynamic_cast<RemotePagerBase*>(backend_.get());
  if (pager == nullptr) {
    return FailedPreconditionError("self-healing needs a remote-memory policy");
  }
  monitor_ = std::make_unique<HealthMonitor>(&pager->cluster(), health_params);
  repair_ = std::make_unique<RepairCoordinator>(pager, monitor_.get(), repair_params);
  // Both halves of the self-healing layer narrate onto the client journal.
  monitor_->AttachEvents(&pager->events());
  repair_->AttachEvents(&pager->events());
  return OkStatus();
}

Status Testbed::AdoptNextMap(RemotePagerBase* pager, std::vector<ClusterMember> members,
                             TimeNs* now) {
  const ClusterMap map = ClusterMap::Build(pager->cluster_map().epoch() + 1,
                                           pager->cluster_map().groups(), std::move(members));
  if (!pager->AdoptClusterMap(map, now)) {
    return InternalError("next cluster map rejected");
  }
  if (repair_ != nullptr) {
    repair_->NoteMapChange();
  }
  return OkStatus();
}

Status Testbed::EnableElasticMembership(const ElasticParams& elastic, TimeNs* now) {
  auto* pager = remote_pager();
  if (pager == nullptr) {
    return FailedPreconditionError("elastic membership needs a remote-memory policy");
  }
  if (pager->has_cluster_map()) {
    return FailedPreconditionError("elastic membership already enabled");
  }
  TimeNs local = 0;
  if (now == nullptr) {
    now = &local;
  }
  std::vector<ClusterMember> members;
  members.reserve(servers_.size());
  for (size_t i = 0; i < servers_.size(); ++i) {
    members.push_back(ClusterMember{static_cast<uint32_t>(i), servers_[i]->incarnation(),
                                    ClusterMember::State::kActive});
  }
  const ClusterMap map = ClusterMap::Build(1, elastic.page_groups, std::move(members));
  if (!pager->AdoptClusterMap(map, now)) {
    return InternalError("initial cluster map rejected");
  }
  if (repair_ != nullptr) {
    repair_->NoteMapChange();
  }
  return OkStatus();
}

Result<size_t> Testbed::JoinServer(TimeNs* now) {
  auto* pager = remote_pager();
  if (pager == nullptr || !pager->has_cluster_map()) {
    return FailedPreconditionError("enable elastic membership before joining servers");
  }
  TimeNs local = 0;
  if (now == nullptr) {
    now = &local;
  }
  AddServerTo(&pager->cluster());
  const size_t i = servers_.size() - 1;
  pager->NotePeerAdded(i);
  std::vector<ClusterMember> members = pager->cluster_map().members();
  members.push_back(ClusterMember{static_cast<uint32_t>(i), servers_[i]->incarnation(),
                                  ClusterMember::State::kActive});
  RMP_RETURN_IF_ERROR(AdoptNextMap(pager, std::move(members), now));
  JournalClient(EventKind::kMembership,
                servers_[i]->name() + " joined ACTIVE; map epoch=" +
                    std::to_string(pager->cluster_map().epoch()));
  return i;
}

Status Testbed::DecommissionServer(size_t i, TimeNs* now) {
  auto* pager = remote_pager();
  if (pager == nullptr || !pager->has_cluster_map()) {
    return FailedPreconditionError("enable elastic membership before decommissioning");
  }
  TimeNs local = 0;
  if (now == nullptr) {
    now = &local;
  }
  std::vector<ClusterMember> members = pager->cluster_map().members();
  size_t actives = 0;
  for (const ClusterMember& m : members) {
    actives += m.state == ClusterMember::State::kActive ? 1 : 0;
  }
  for (ClusterMember& m : members) {
    if (m.server_id != i) {
      continue;
    }
    if (m.state != ClusterMember::State::kActive) {
      return FailedPreconditionError("server is already leaving");
    }
    if (actives <= 1) {
      return FailedPreconditionError("cannot decommission the last active server");
    }
    m.state = ClusterMember::State::kLeaving;
    RMP_RETURN_IF_ERROR(AdoptNextMap(pager, std::move(members), now));
    JournalClient(EventKind::kMembership,
                  servers_[i]->name() + " marked LEAVING; map epoch=" +
                      std::to_string(pager->cluster_map().epoch()));
    return OkStatus();
  }
  return NotFoundError("server " + std::to_string(i) + " is not in the cluster map");
}

Status Testbed::CompleteDecommission(size_t i, TimeNs* now) {
  auto* pager = remote_pager();
  if (pager == nullptr || !pager->has_cluster_map()) {
    return FailedPreconditionError("enable elastic membership before decommissioning");
  }
  TimeNs local = 0;
  if (now == nullptr) {
    now = &local;
  }
  const uint64_t pages = pager->PagesOn(i);
  if (pages != 0) {
    return FailedPreconditionError("server still holds " + std::to_string(pages) +
                                   " pages; let the rebalance drain it first");
  }
  std::vector<ClusterMember> members = pager->cluster_map().members();
  bool found = false;
  std::vector<ClusterMember> rest;
  rest.reserve(members.size());
  for (const ClusterMember& m : members) {
    if (m.server_id == i) {
      found = true;
      continue;
    }
    rest.push_back(m);
  }
  if (!found) {
    return NotFoundError("server " + std::to_string(i) + " is not in the cluster map");
  }
  size_t actives = 0;
  for (const ClusterMember& m : rest) {
    actives += m.state == ClusterMember::State::kActive ? 1 : 0;
  }
  if (rest.empty() || actives == 0) {
    return FailedPreconditionError("cannot drop the last active server from the map");
  }
  RMP_RETURN_IF_ERROR(AdoptNextMap(pager, std::move(rest), now));
  JournalClient(EventKind::kMembership,
                servers_[i]->name() + " dropped from map; epoch=" +
                    std::to_string(pager->cluster_map().epoch()));
  return OkStatus();
}

ConfigTable ClusterConfigKeys(ElasticParams* elastic, RepairParams* repair,
                              RemotePagerParams* pager) {
  return {
      {"cluster.page_groups", ConfigKey::kInt, elastic ? &elastic->page_groups : nullptr, 1,
       kMaxPageGroups},
      {"cluster.rebalance_pages_per_sec", ConfigKey::kInt,
       repair ? &repair->rebalance_pages_per_sec : nullptr, 0, kNoLimit},
      {"cluster.rebalance_burst", ConfigKey::kInt,
       repair ? &repair->rebalance_burst_pages : nullptr, 1, kNoLimit},
      {"cluster.epoch_refresh_ms", ConfigKey::kInt,
       pager ? &pager->map_refresh_interval : nullptr, 0, kNoLimit / 1e6, 1e6},
  };
}

ConfigTable ObservabilityConfigKeys(TestbedParams* params) {
  ConfigTable table = TraceConfigKeys(&params->pager.trace);
  table.push_back({"trace.span_ring", ConfigKey::kInt, &params->server_span_ring, 0, 1 << 20});
  // The server journals take the same `events.*` keys as the client's.
  for (EventJournalOptions* events : {&params->pager.events, &params->server_events}) {
    const ConfigTable rows = EventsConfigKeys(events);
    table.insert(table.end(), rows.begin(), rows.end());
  }
  const ConfigTable slo = SloConfigKeys(&params->pager.slo);
  table.insert(table.end(), slo.begin(), slo.end());
  return table;
}

}  // namespace rmp
