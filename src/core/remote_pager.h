// Shared machinery of every remote-memory paging policy: the cluster view,
// the shared network fabric, slot acquisition with extent-granularity
// allocation, and the transfer-time accounting that feeds BackendStats.

#ifndef SRC_CORE_REMOTE_PAGER_H_
#define SRC_CORE_REMOTE_PAGER_H_

#include <memory>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/fabric.h"
#include "src/core/paging_backend.h"
#include "src/util/events.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/slo.h"
#include "src/util/tracing.h"

namespace rmp {

// How the client picks a server for a fresh page (§2.1 describes most-free;
// parity logging requires round robin by construction).
enum class ServerSelection { kMostFree, kRoundRobin };

// Failure-detector tuning. A fault can be *transient* (a dropped request or
// ack, a corrupted frame the CRC rejected, a late reply) or *permanent* (the
// server workstation crashed, §2.2). The client cannot tell which from a
// single failed RPC, so it retries with exponential backoff while the
// connection still looks healthy and only then lets the policy lay in its
// degraded path (failover read, parity reconstruction, disk fallback).
struct RetryParams {
  // Total tries per RPC including the first; <=1 disables retries.
  int max_attempts = 3;
  // Backoff before attempt k is base << (k-1), capped at `backoff_max`,
  // then jittered by +/- `jitter` of itself so synchronized retry storms
  // decorrelate. Charged to simulated time and stats_.backoff_time.
  DurationNs backoff_base = Micros(500);
  DurationNs backoff_max = Millis(8);
  double jitter = 0.2;
  // Seed of the private jitter RNG; runs stay bit-reproducible.
  uint64_t jitter_seed = 0x7e57ab1e;
};

struct RemotePagerParams {
  // Swap slots requested per ALLOC_REQUEST; amortizes control traffic.
  uint64_t alloc_extent_pages = 256;
  ServerSelection selection = ServerSelection::kMostFree;
  RetryParams retry;
  // Page-lifecycle tracer tuning (DESIGN.md §12/§17): ring size, slow-op
  // threshold, span cap, head-sampling rate.
  PageTracerOptions trace;
  // Client-side flight recorder (DESIGN.md §17).
  EventJournalOptions events;
  // Paging SLO window feeding the `slo.*` gauges (DESIGN.md §17).
  SloParams slo;
  // Proactive cluster-map refresh period (`cluster.epoch_refresh_ms`,
  // DESIGN.md §16). 0 = refresh only reactively, when a server denies an op
  // with STALE_EPOCH — the cheapest correct configuration, since the denial
  // carries the new epoch anyway.
  DurationNs map_refresh_interval = 0;
};

class RemotePagerBase : public PagingBackend {
 public:
  const BackendStats& stats() const override { return stats_; }

  Cluster& cluster() { return cluster_; }
  NetworkFabric& fabric() { return *fabric_; }

  // --- Telemetry (DESIGN.md §12) -------------------------------------------
  // The backend's registry: trace stage/total histograms land here live;
  // SyncStatsToMetrics mirrors the BackendStats counters in (keys
  // `backend.*`) so one snapshot carries both.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  PageTracer& tracer() { return tracer_; }
  void SyncStatsToMetrics();
  // The client's flight recorder (DESIGN.md §17): map adoptions, stale-epoch
  // denials, and whatever the Testbed's state machines append through it.
  EventJournal& events() { return events_; }
  // The paging SLO window behind the `slo.*` gauges; fed by the tracer on
  // every completed (sampled) trace.
  SloTracker& slo() { return slo_; }

  // --- Self-healing hooks (DESIGN.md §11) ----------------------------------
  // Incremental, idempotent work quanta the RepairCoordinator drives under
  // its token bucket. Both return the number of pages processed this call;
  // 0 means "nothing left to do" and completes the job. Progress is tracked
  // in the policy's own tables (an orphaned replica resilvered updates the
  // mirror table; an affected parity group dissolved leaves the affected
  // set), so a step never repeats finished work and the pair of calls
  // (step, step, ...) converges without coordinator-side cursors.

  // Restores redundancy lost to the crash of `peer`: re-replicates orphaned
  // mirror copies, rebuilds parity-group members by degraded reconstruction,
  // re-uploads write-through pages from disk. At most `max_pages` pages of
  // repair traffic are moved. Default: nothing to repair.
  virtual Result<uint64_t> RepairStep(size_t peer, uint64_t max_pages, TimeNs* now);

  // Moves up to `max_pages` pages off the (live but overloaded) `peer` to
  // other servers or local disk — the §2.1 migration story, triggered by
  // ADVISE_STOP. Default: nothing to drain.
  virtual Result<uint64_t> MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now);

  // --- Elastic membership (DESIGN.md §16) ----------------------------------

  // Moves up to `max_pages` pages whose placement disagrees with the adopted
  // cluster map onto their map owners (read from the old holder, write to the
  // new owner, free the old copy — in that order, so a crash mid-move never
  // leaves the page without a live source). Returns pages moved; 0 = the
  // placement already matches the map. Default: nothing to rebalance.
  virtual Result<uint64_t> RebalanceStep(uint64_t max_pages, TimeNs* now);

  // Pages the policy currently stores on `peer` (replica copies count).
  // Drives decommission completion: a kLeaving member with PagesOn == 0 can
  // be dropped from the map. Default: 0.
  virtual uint64_t PagesOn(size_t peer) const;

  // Adopts `map` when it is newer than the current one: records it, stamps
  // every peer's epoch (so subsequent data ops carry it), and lets
  // the map drive peer placement state (kLeaving / absent members stop
  // receiving new pages). When `publish` is set, best-effort MAP_PUBLISHes
  // the map to every alive peer — the client doubles as map coordinator, the
  // same role the paper gives it for placement. Charges control traffic to
  // *now. Returns true when the map was adopted (false = not newer).
  bool AdoptClusterMap(const ClusterMap& map, TimeNs* now, bool publish = true);

  // Queries every alive peer for its map and adopts the newest one found.
  // The reactive half of stale-epoch recovery: a STALE_EPOCH denial calls
  // this before the retry. Unavailable when no peer returned a map.
  Status RefreshClusterMap(TimeNs* now);

  bool has_cluster_map() const { return has_map_; }
  const ClusterMap& cluster_map() const { return map_; }

  // The peer index owning `page_id` under the adopted map.
  Result<size_t> MapOwnerPeer(uint64_t page_id) const;

  // Called after a peer is appended to cluster() at runtime (scale-out):
  // wires its metrics and stamps the current map epoch onto it.
  void NotePeerAdded(size_t i);

 protected:
  RemotePagerBase(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                  const RemotePagerParams& params)
      : cluster_(std::move(cluster)),
        fabric_(std::move(fabric)),
        params_(params),
        retry_rng_(params.retry.jitter_seed),
        tracer_(&metrics_, params.trace),
        events_(params.events),
        slo_(&metrics_, params.slo) {
    tracer_.AttachSlo(&slo_);
    for (size_t i = 0; i < cluster_.size(); ++i) {
      cluster_.peer(i).AttachMetrics(&metrics_);
      // Every RPC stamps the active trace id onto the wire (DESIGN.md §17).
      cluster_.peer(i).set_trace_source(tracer_.wire_id());
    }
  }

  // --- Failure detector ----------------------------------------------------

  // Whether an RPC failure may be transient (worth retrying): a dropped or
  // late message (kUnavailable), a socket hiccup (kIoError), or a frame the
  // CRC rejected (kCorruption). Resource and logic errors are not.
  static bool IsRetryableError(const Status& status);

  // Whether the failure detector should try `peer` again after `status`:
  // the error is retryable and the transport still reports a live
  // connection, i.e. the server process did not go away — only a message
  // did. The RPC helpers pessimistically mark the peer dead on any failure;
  // the caller un-marks it (mark_alive) before retrying.
  bool ShouldRetry(size_t peer_index, const Status& status);

  // Charges one backoff interval before retry attempt `attempt` (1-based
  // count of failures so far) to *now, stats_.backoff_time and
  // stats_.retries. Exponential with cap and seeded jitter.
  void ChargeBackoff(int attempt, TimeNs* now);

  // PageInFrom / PageOutTo with bounded retries: transient failures against
  // a still-connected peer are retried (after backoff); a dead connection
  // or a non-retryable error returns immediately so the policy can take its
  // degraded path. Transfer-time charging on success stays with the caller,
  // matching the unreliable primitives.
  Status ReliablePageIn(size_t peer_index, uint64_t slot, std::span<uint8_t> out, TimeNs* now);
  Result<bool> ReliablePageOut(size_t peer_index, uint64_t slot, std::span<const uint8_t> data,
                               TimeNs* now);

  // Charges one page-sized transfer starting at `now` to `peer`; bumps
  // transfer stats. The blocking (pagein) form waits for wire completion;
  // the async form models pageout write-behind (see
  // NetworkFabric::TransferAsync). `peer` routes over a dedicated link when
  // the fabric has one for it (§5 heterogeneous networks).
  TimeNs ChargePageTransfer(TimeNs now, size_t peer = kSharedSegment);
  TimeNs ChargePageTransferAsync(TimeNs now, size_t peer = kSharedSegment);

  // Batched variants: `pages` pages move in one message, so the fabric sees
  // a single protocol crossing and one combined wire occupancy
  // (BatchWireBytes) instead of `pages` full message overheads. Each page
  // still counts toward page_transfers.
  TimeNs ChargePageBatchTransfer(TimeNs now, uint64_t pages, size_t peer = kSharedSegment);
  TimeNs ChargePageBatchTransferAsync(TimeNs now, uint64_t pages, size_t peer = kSharedSegment);

  // Charges one small control-message exchange.
  TimeNs ChargeControl(TimeNs now, size_t peer = kSharedSegment);

  // Takes a slot from peer `i`, issuing an ALLOC_REQUEST (and charging a
  // control exchange against *now) when the local pool is dry.
  Result<uint64_t> TakeSlotOn(size_t i, TimeNs* now);

  // One page to read: its holding peer and the slot it occupies there.
  struct PageWant {
    size_t peer = 0;
    uint64_t slot = 0;
  };

  // Fetches many stored pages with batched PAGEIN_BATCH RPCs: wants are
  // grouped by peer, chunked at kMaxBatchPages, and every chunk is started
  // before any is joined, so reads fan out across the cluster and each chunk
  // is charged as one batched transfer from the common start time. On
  // success (*out)[i] holds the page for wants[i] and *now advances to the
  // slowest chunk's completion. On error the first failure is returned
  // (remaining chunks are still drained) and *now reflects the chunks that
  // did complete. Shared by GC compaction, crash recovery, and resilvering.
  Status BatchFetch(std::span<const PageWant> wants, std::vector<PageBuffer>* out, TimeNs* now);

  // Picks a peer for a fresh page according to params_.selection.
  Result<size_t> PickPeer(TimeNs* now);

  // Map-aware placement: the map owner of `page_id` when a map is adopted
  // and the owner is usable, otherwise whatever PickPeer chooses. Also runs
  // the proactive map refresh when map_refresh_interval has elapsed.
  Result<size_t> PickPeerForPage(uint64_t page_id, TimeNs* now);

  // FreeOn with the shared retry taxonomy (transient errors, STALE_EPOCH).
  Status ReliableFree(size_t peer_index, uint64_t first_slot, uint64_t count, TimeNs* now);

  // Reacts to a STALE_EPOCH denial: counts it, refreshes the map, and
  // charges one backoff interval before the caller retries.
  void NoteStaleEpoch(int attempt, TimeNs* now);

  // Stamps the spans of one fabric transfer (service / queue / wire) onto
  // the tracer and folds its costs into stats_; returns the completion time.
  TimeNs ChargeTransferCost(TimeNs now, const NetworkFabric::TransferCost& cost);

  Cluster cluster_;
  std::shared_ptr<NetworkFabric> fabric_;
  RemotePagerParams params_;
  BackendStats stats_;
  size_t rr_cursor_ = 0;
  Rng retry_rng_;
  MetricsRegistry metrics_;  // Declared before tracer_: its histograms live here.
  PageTracer tracer_;
  EventJournal events_;
  SloTracker slo_;  // Declared after metrics_ (its gauges live there).

 private:
  // Installs `map` locally: records it and lets it drive peer epoch and
  // placement state. Does not publish.
  void AdoptLocal(const ClusterMap& map);

  // Refresh load info at most every this many pageouts (most-free mode).
  static constexpr int kLoadRefreshInterval = 64;
  int pageouts_since_refresh_ = kLoadRefreshInterval;  // Refresh on first use.

  // Elastic membership (DESIGN.md §16).
  ClusterMap map_;
  bool has_map_ = false;
  TimeNs last_map_refresh_ = 0;
};

}  // namespace rmp

#endif  // SRC_CORE_REMOTE_PAGER_H_
