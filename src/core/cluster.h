// Client-side view of the server cluster: one peer per remote memory server,
// with the blocking RPC helpers the paging daemon uses and a per-peer pool of
// granted swap slots.
//
// Swap space is requested in extents (§2.1: the client "asks for a number of
// page frames and starts sending requests"), so most pageouts hit a locally
// cached slot and cost exactly one page transfer on the wire.

#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/proto/cluster_map.h"
#include "src/transport/transport.h"
#include "src/util/bytes.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace rmp {

// A run of slots granted by one ALLOC_REQUEST.
struct SlotExtent {
  uint64_t first = 0;
  uint64_t count = 0;
};

class ServerPeer {
 public:
  ServerPeer(std::string name, std::unique_ptr<Transport> transport)
      : name_(std::move(name)), transport_(std::move(transport)) {}

  const std::string& name() const { return name_; }
  Transport& transport() { return *transport_; }

  bool stopped() const { return stopped_; }
  void set_stopped(bool stopped) { stopped_ = stopped; }

  // Tenant id stamped onto every outgoing request that does not already
  // carry one (DESIGN.md §15). 0 = untenanted: requests go out untagged and
  // a tenant-enforcing server attributes them to the session's AUTH-bound
  // tenant (or the untenanted lane). Set once at cluster assembly,
  // before any RPC.
  uint16_t tenant() const { return tenant_; }
  void set_tenant(uint16_t tenant) { tenant_ = tenant; }

  // Cluster-map epoch stamped onto every epoch-gated data request
  // (DESIGN.md §16). 0 = no map adopted: the server's epoch gate lets such
  // requests pass. Updated by
  // RemotePagerBase whenever it adopts a newer map.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

  // Distributed-trace stamping (DESIGN.md §17): when attached, every
  // epoch-gated data request reads this atomic (the client PageTracer's
  // active trace id, 0 = none) into the header's `trace_id`. The same id is
  // re-stamped on every retry of the operation — including retries against a
  // *different* peer after failover — so server spans from all attempts
  // stitch into one trace. Null (the default) sends every request untraced.
  void set_trace_source(const std::atomic<uint32_t>* source) { trace_source_ = source; }

  // ADVISE_STOP semantics (§2.1): "send no more pages to this server" means
  // no *new* swap-space grants; slots the client already holds in its pool
  // remain valid (the server accounted for them when it granted them).
  bool no_new_extents() const { return no_new_extents_; }
  void set_no_new_extents(bool value) { no_new_extents_ = value; }

  // Eligible as a pageout target right now.
  bool usable() const {
    return alive_ && !stopped_ && (!no_new_extents_ || pooled_slots() > 0);
  }

  bool alive() const { return alive_; }
  void mark_dead() {
    alive_ = false;
    if (dead_marks_ != nullptr) {
      dead_marks_->Increment();
    }
  }
  // Pure liveness flip, used on the hot retry path when a peer was only
  // *pessimistically* marked dead by a failed RPC: the pool and ADVISE_STOP
  // state are still accurate, so they must survive. A peer that genuinely
  // went away and came back must go through Reset() instead — flipping
  // alive_ alone would revive it with a poisoned slot pool (stale extents
  // the restarted server no longer accounts for) and a latched
  // no_new_extents_ from its previous life.
  void mark_alive() { alive_ = true; }

  // The single full-revival path: drops the (now meaningless) slot pool,
  // clears ADVISE_STOP and stop state, forgets stale load info, and marks
  // the peer alive. Called when a restarted or re-admitted server rejoins
  // the cluster (RepairCoordinator, policy recovery).
  void Reset();

  uint64_t known_free_pages() const { return known_free_pages_; }
  void set_known_free_pages(uint64_t pages) { known_free_pages_ = pages; }

  // --- Slot pool -----------------------------------------------------------

  // Takes one slot from the cached extents; NotFound when the pool is empty
  // (caller then issues an ALLOC_REQUEST).
  Result<uint64_t> TakeSlot();
  void AddExtent(SlotExtent extent) { extents_.push_back(extent); }
  void ReturnSlot(uint64_t slot) { returned_.push_back(slot); }
  uint64_t pooled_slots() const;
  void DropPool();

  // --- Blocking RPCs (functional path; timing is charged by the caller) ----

  // Requests `pages` fresh slots; adds them to the pool on success.
  Status AllocExtent(uint64_t pages);

  // Sends one page. On success reports whether the server advised stop.
  Result<bool> PageOutTo(uint64_t slot, std::span<const uint8_t> page);

  Status PageInFrom(uint64_t slot, std::span<uint8_t> out);

  // --- Pipelined RPCs ------------------------------------------------------
  // Start issues the request without waiting on the reply; Join blocks on it
  // and applies the same reply-parsing and liveness bookkeeping as the
  // blocking form. Between Start and Join the caller can issue RPCs to
  // *other* peers — that is how mirroring writes both replicas in parallel
  // and parity logging overlaps its parity flush with the next stripe.
  RpcFuture StartPageOut(uint64_t slot, std::span<const uint8_t> page);
  Result<bool> JoinPageOut(RpcFuture future);
  RpcFuture StartPageIn(uint64_t slot);
  Status JoinPageIn(RpcFuture future, std::span<uint8_t> out);

  // --- Batched RPCs --------------------------------------------------------
  // One frame carries slots.size() (slot, page) pairs (`pages` is their
  // concatenation), amortizing header, CRC, and round trip across the batch.
  // The server applies entries in order and fails the whole message on the
  // first bad entry, so on error the caller should retry per-page or treat
  // the batch as failed. Join validates the reply against `expected`, the
  // entry count of the request.
  RpcFuture StartPageOutBatch(std::span<const uint64_t> slots, std::span<const uint8_t> pages);
  Result<bool> JoinPageOutBatch(RpcFuture future, uint64_t expected);
  Result<bool> PageOutBatchTo(std::span<const uint64_t> slots, std::span<const uint8_t> pages);

  RpcFuture StartPageInBatch(std::span<const uint64_t> slots);
  Status JoinPageInBatch(RpcFuture future, uint64_t expected, std::span<uint8_t> out);
  Status PageInBatchFrom(std::span<const uint64_t> slots, std::span<uint8_t> out);

  Status FreeOn(uint64_t first_slot, uint64_t count);

  // Basic-parity RPCs: store-and-return-delta, and parity fold-in.
  Result<PageBuffer> DeltaPageOutTo(uint64_t slot, std::span<const uint8_t> page);
  Status XorMergeOn(uint64_t slot, std::span<const uint8_t> delta);

  struct LoadInfo {
    uint64_t free_pages = 0;
    uint64_t total_pages = 0;
    bool advise_stop = false;
  };
  Result<LoadInfo> QueryLoad();

  // Lightweight liveness probe (HEARTBEAT). Success does NOT flip alive_ —
  // state transitions belong to the HealthMonitor, which also needs to see
  // a dead peer answering (that is the REJOINING signal). Failure marks the
  // peer dead like every other RPC.
  struct HeartbeatInfo {
    uint64_t incarnation = 0;
    uint64_t free_pages = 0;
    uint64_t total_pages = 0;
    bool advise_stop = false;
  };
  Result<HeartbeatInfo> Heartbeat();

  // MIGRATE: reads the page at `slot` into `out` and frees the slot on the
  // server in one round trip (the §2.1 drain path's read side).
  Status MigrateRead(uint64_t slot, std::span<uint8_t> out);

  // Counters.
  int64_t pages_sent() const { return pages_sent_; }
  int64_t pages_fetched() const { return pages_fetched_; }

  // --- Telemetry -----------------------------------------------------------

  // Registers this peer's counters under "peer.<name>." in `registry` and
  // mirrors RPC accounting into them from then on. Reset() clears the prefix
  // so a restarted server's new incarnation never mixes with the old one.
  void AttachMetrics(MetricsRegistry* registry);

  // Live introspection RPCs: fetch the remote server's metrics-registry
  // snapshot / trace ring as JSON (STATS_QUERY / TRACE_DUMP).
  Result<std::string> QueryStats();
  Result<std::string> DumpRemoteTrace();
  // Fetches the server's span ring (TRACE_DUMP, document 1) as JSON.
  Result<std::string> DumpServerSpans();
  // Fetches the server's flight-recorder events with seq >= min_seq
  // (EVENTS_QUERY) as JSON; `next_seq`/`incarnation` (optional) receive the
  // reply's cursor and the server incarnation that produced it, so a poller
  // can detect both new events and a restart that reset the journal.
  Result<std::string> QueryEvents(uint64_t min_seq = 0, uint64_t* next_seq = nullptr,
                                  uint64_t* incarnation = nullptr);

  // --- Cluster-map exchange (DESIGN.md §16) --------------------------------
  // Pulls the server's current map (NotFound when it holds none).
  Result<ClusterMap> QueryMap();
  // Installs `map_bytes` (a serialized ClusterMap of epoch `epoch`) on the
  // server; STALE_EPOCH if the server already holds a newer one.
  Status PublishMap(uint64_t epoch, std::span<const uint8_t> map_bytes);

 private:
  uint64_t NextRequestId() { return ++request_id_; }
  // Stamps the tenant, epoch and trace id this peer sends with.
  void Stamp(Message* request) const;
  // Transport forwarders that Stamp every request; every RPC helper goes
  // through one of them.
  Result<Message> Call(Message request);
  RpcFuture CallAsync(Message request);
  void NoteSent(int64_t n) {
    pages_sent_ += n;
    if (sent_counter_ != nullptr) {
      sent_counter_->Increment(n);
    }
  }
  void NoteFetched(int64_t n) {
    pages_fetched_ += n;
    if (fetched_counter_ != nullptr) {
      fetched_counter_->Increment(n);
    }
  }

  std::string name_;
  std::unique_ptr<Transport> transport_;
  bool stopped_ = false;
  uint16_t tenant_ = 0;
  uint64_t epoch_ = 0;
  const std::atomic<uint32_t>* trace_source_ = nullptr;
  bool no_new_extents_ = false;
  bool alive_ = true;
  uint64_t known_free_pages_ = 0;
  uint64_t request_id_ = 0;
  std::vector<SlotExtent> extents_;
  std::vector<uint64_t> returned_;
  int64_t pages_sent_ = 0;
  int64_t pages_fetched_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  std::string metric_prefix_;
  Counter* sent_counter_ = nullptr;
  Counter* fetched_counter_ = nullptr;
  Counter* dead_marks_ = nullptr;
  Counter* reset_count_ = nullptr;
};

// The registry of peers plus selection helpers.
class Cluster {
 public:
  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  void AddPeer(std::string name, std::unique_ptr<Transport> transport) {
    peers_.push_back(std::make_unique<ServerPeer>(std::move(name), std::move(transport)));
  }

  size_t size() const { return peers_.size(); }
  ServerPeer& peer(size_t i) { return *peers_[i]; }
  const ServerPeer& peer(size_t i) const { return *peers_[i]; }

  // "Picks the most promising server" (§2.1): the usable peer with the most
  // known free pages. Refreshes load info when `refresh` is set. Returns the
  // peer index or NotFound when every peer is stopped/dead.
  Result<size_t> MostPromising(bool refresh);

  // Round-robin over usable peers starting after `cursor`; updates `cursor`.
  Result<size_t> NextUsable(size_t* cursor) const;

  bool AnyUsable() const;

 private:
  std::vector<std::unique_ptr<ServerPeer>> peers_;
};

}  // namespace rmp

#endif  // SRC_CORE_CLUSTER_H_
