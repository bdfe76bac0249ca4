// The user-level remote memory server (paper §3.2).
//
// "The server is a user level program listening to a socket... When the
// client requests a pagein, the server transfers the requested page(s)...
// When the client requests a pageout, the server reads the incoming pages
// and stores them in its main memory. The server is also responsible for
// swap space allocation and for providing periodically information to the
// client concerning the memory load of its host."
//
// A parity server is *the same program*: "it just performs pageins and
// pageouts... without knowing whether it stores memory pages or parity
// pages" — so there is deliberately no parity-specific code here.
//
// Storage layout: the page store is lock-striped into N shards keyed by a
// multiplicative slot hash, so concurrent sessions (and the TcpServer worker
// pool) contend only when they touch the same shard. Each shard stores pages
// in slab-allocated frames (kSlabPages per slab) recycled through a free
// list, instead of one heap PageBuffer per page. Allocation bookkeeping
// (slot runs, capacity, native load) lives under a separate control mutex;
// lock order is control → shard → disk-spill. DESIGN.md §9 discusses the
// choices.
//
// Two-tier cold store (DESIGN.md §14): when StoreTierParams::hot_page_limit
// is set, each shard runs a second-chance CLOCK over its uncompressed slab
// frames. Pages the clock hand finds cold are demoted — content-hash
// deduplicated against the shard's refcounted Crc32c index, then compressed
// (LZ4-class, src/util/compress.h) into variable-size extents that can spill
// to a file-backed DiskStore; all-zero pages are elided entirely. Cold loads
// decompress on the way out and promote back to a slab frame after a few
// hits. The wire protocol and every reliability policy see exactly the same
// byte-in/byte-out contract; only the physical representation changes.
//
// Fault and load injection used by the experiments:
//   Crash()          — drops every stored page (workstation crash, §2.2).
//   SetNativeLoad()  — native processes claim memory; the server shrinks its
//                      donated pool and starts advising the client to stop
//                      sending pages (§2.1).

#ifndef SRC_SERVER_MEMORY_SERVER_H_
#define SRC_SERVER_MEMORY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/disk/disk_store.h"
#include "src/proto/cluster_map.h"
#include "src/transport/transport.h"
#include "src/util/bytes.h"
#include "src/util/config.h"
#include "src/util/events.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/token_bucket.h"
#include "src/util/tracing.h"

namespace rmp {

// The compressed + deduplicated cold tier. Disabled by default
// (hot_page_limit == 0): every page then lives in an uncompressed slab
// frame, byte-for-byte the pre-tier server.
struct StoreTierParams {
  // Uncompressed resident pages the server keeps hot (split evenly across
  // shards) before the CLOCK hand starts demoting. 0 disables the tier.
  uint64_t hot_page_limit = 0;
  // Demoted pages go through the LZ4-class codec; pages that do not shrink
  // are stored raw in the extents. Also enables zero-page elision.
  bool compress = true;
  // Content-hash dedup across slots: a demoted page whose bytes already sit
  // in the shard's cold index just takes a reference.
  bool dedup = true;
  // Cold pageins promote back to a hot frame after this many accesses;
  // 0 = serve cold forever (benches use it to hold the cold-path cost).
  uint32_t promote_after_hits = 2;
  // In-memory budget for live cold-extent bytes (split across shards); once
  // exceeded, sealed extents spill to the DiskStore. 0 = never spill.
  uint64_t cold_budget_bytes = 0;
  // Size (in kPageSize blocks) of the file-backed spill store; 0 = no spill
  // backing, cold extents stay in memory regardless of budget.
  uint64_t spill_blocks = 0;
  // Admit up to overcommit × capacity logical pages; compression and dedup
  // are what make the extra logical pages physically affordable. 1.0
  // reproduces the paper's accounting exactly.
  double logical_overcommit = 1.0;
};

// One tenant's server-side quota row (DESIGN.md §15). Quotas are enforced per
// server: a tenant paging against N servers gets N × its row, matching how
// the paper's per-server ADVISE_STOP already scales.
struct TenantQuota {
  uint16_t id = 0;                  // 1..kMaxTenantId; 0 is never quota'd.
  uint64_t memory_quota_pages = 0;  // Occupancy cap; 0 = unlimited.
  uint64_t rate_pages_per_sec = 0;  // Request-rate token bucket; 0 = unlimited.
  uint64_t burst_pages = 64;        // Bucket depth (and the priority headroom unit).
  // Per-tenant ADVISE_STOP threshold, as a fraction of memory_quota_pages
  // (meaningful only when the quota is set).
  double advise_stop_fraction = 0.9;
};

// The server's whole tenant policy. Empty (the default) disables every
// tenant code path: requests are handled exactly as the untenanted server
// did, whatever their tenant field says.
struct TenantPolicyParams {
  std::vector<TenantQuota> tenants;
  // Reject ops from nonzero tenant ids that have no quota row. Off by
  // default: unknown tenants are admitted unlimited but still attributed
  // (their metrics accrue under their own id, never another tenant's).
  bool strict = false;

  bool enabled() const { return !tenants.empty() || strict; }
};

// The `tenant.*` config table (README: tenant knobs) over `params`:
// tenant.strict plus, per id, tenant.<id>.quota_pages, tenant.<id>.rate,
// tenant.<id>.burst and tenant.<id>.advise_fraction. Every id a
// `tenant.<id>.*` key of `config` names gets a quota row in `params` first;
// a malformed id, tenant 0 or an id past kMaxTenantId is an error. The rows
// point into `params->tenants`: apply them before that vector changes.
Result<ConfigTable> TenantConfigKeys(const Config& config, TenantPolicyParams* params);

struct MemoryServerParams {
  std::string name = "server";
  uint64_t capacity_pages = 4096;  // Donated main memory (32 MB by default).
  // When the live page count exceeds this fraction of the (current)
  // capacity, acks start carrying ADVISE_STOP.
  double advise_stop_fraction = 0.95;
  // Lock stripes in the page store. 1 reproduces the old single-mutex server
  // (the bench baseline); values are rounded up to a power of two.
  uint32_t store_shards = 16;
  // Modeled per-page service time (µs) spent while holding the slot's shard
  // lock; 0 disables it. Benches use this to expose lock-granularity
  // serialization on hosts with fewer cores than worker threads: a sleeping
  // thread yields the CPU, so striped shards overlap service the way
  // multi-core memcpys would, while a single mutex serializes it.
  int64_t store_service_micros = 0;
  StoreTierParams tier;
  // Multi-tenant quotas + admission control (DESIGN.md §15). Disabled when
  // empty: the server then behaves byte-identically to the untenanted seed.
  TenantPolicyParams tenants;
  // Server-side observability (DESIGN.md §17): capacity of the per-server
  // span ring traced requests append to (0 disables it), and the flight
  // recorder's journal options.
  size_t span_ring_capacity = 4096;
  EventJournalOptions events;
};

// The `store.*` config table over `params` (README: store tuning knobs).
ConfigTable StoreConfigKeys(MemoryServerParams* params);

// The server's counters, backed by its MetricsRegistry (DESIGN.md §12): each
// member is a registry Counter, so the same numbers the direct accessors see
// ship in a STATS reply. Counters stay atomic, so shard-parallel request
// threads bump them without sharing a lock; read them with the implicit load.
struct MemoryServerStats {
  explicit MemoryServerStats(MetricsRegistry* registry)
      : pageouts_served(*registry->GetCounter("server.pageouts_served")),
        pageins_served(*registry->GetCounter("server.pageins_served")),
        batch_requests(*registry->GetCounter("server.batch_requests")),
        allocations(*registry->GetCounter("server.allocations")),
        denials(*registry->GetCounter("server.denials")),
        heartbeats_served(*registry->GetCounter("server.heartbeats_served")),
        migrations_served(*registry->GetCounter("server.migrations_served")),
        stale_epoch_rejections(*registry->GetCounter("server.stale_epoch_rejections")),
        map_publishes(*registry->GetCounter("server.map_publishes")),
        bytes_stored(*registry->GetCounter("server.bytes_stored")),
        bytes_returned(*registry->GetCounter("server.bytes_returned")),
        demotions(*registry->GetCounter("server.tier_demotions")),
        promotions(*registry->GetCounter("server.tier_promotions")),
        dedup_hits(*registry->GetCounter("server.dedup_hits")),
        zero_elisions(*registry->GetCounter("server.zero_elisions")),
        incompressible(*registry->GetCounter("server.incompressible_pages")),
        spills(*registry->GetCounter("server.extent_spills")),
        unspills(*registry->GetCounter("server.extent_unspills")),
        cold_source_bytes(*registry->GetCounter("server.cold_source_bytes")),
        cold_stored_bytes(*registry->GetCounter("server.cold_stored_bytes")),
        compress_us(*registry->GetHistogram("server.compress_us",
                                            {.lo = 0.1, .hi = 1e5, .buckets = 40,
                                             .log_scale = true})),
        decompress_us(*registry->GetHistogram("server.decompress_us",
                                              {.lo = 0.1, .hi = 1e5, .buckets = 40,
                                               .log_scale = true})) {}

  Counter& pageouts_served;
  Counter& pageins_served;
  Counter& batch_requests;  // PAGEOUT_BATCH / PAGEIN_BATCH messages.
  Counter& allocations;
  Counter& denials;
  Counter& heartbeats_served;
  Counter& migrations_served;  // MIGRATE (read-and-free) ops.
  Counter& stale_epoch_rejections;  // Data ops denied for an old map epoch (§16).
  Counter& map_publishes;           // MAP_PUBLISH frames accepted.
  Counter& bytes_stored;
  Counter& bytes_returned;
  // Cold-tier lifecycle (DESIGN.md §14).
  Counter& demotions;          // Hot frames packed into the cold tier.
  Counter& promotions;         // Cold pages pulled back to hot frames.
  Counter& dedup_hits;         // Demotions resolved by an existing entry.
  Counter& zero_elisions;      // Stores elided because the page was zero.
  Counter& incompressible;     // Demoted pages stored raw (codec did not win).
  Counter& spills;             // Extents written to the spill DiskStore.
  Counter& unspills;           // Extents read back on access.
  Counter& cold_source_bytes;  // Logical bytes entering the cold tier.
  Counter& cold_stored_bytes;  // Physical bytes those became in extents.
  HistogramMetric& compress_us;    // Codec latency per demoted page.
  HistogramMetric& decompress_us;  // Codec latency per cold pagein.
};

// Point-in-time tier occupancy, aggregated across shards. logical_bytes is
// what the clients believe is stored (every live slot at page size);
// physical_bytes is what the server actually holds in memory for them (hot
// frames plus live in-memory extent bytes). Their ratio is the effective
// capacity multiplier the compressed tier buys.
struct TierOccupancy {
  uint64_t hot_pages = 0;
  uint64_t cold_pages = 0;  // Slots whose content lives in the cold tier.
  uint64_t zero_pages = 0;  // Slots elided as all-zero.
  uint64_t unique_cold_entries = 0;
  uint64_t cold_physical_bytes = 0;  // Live cold bytes resident in memory.
  uint64_t spilled_bytes = 0;        // Live cold bytes currently on disk.
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;
};

class MemoryServer : public MessageHandler {
 public:
  explicit MemoryServer(const MemoryServerParams& params = MemoryServerParams());

  // MessageHandler: dispatches the wire protocol. Thread-safe.
  Message Handle(const Message& request) override;

  // Direct API (same semantics as the wire protocol; used by tests and by
  // the recovery manager, which reads surviving servers' pages). A nonzero
  // `tenant` charges occupancy to a quota row; tenant 0 is the legacy lane
  // (unquota'd, may touch any slot) so the untenanted callers keep working.
  Result<uint64_t> Allocate(uint64_t pages, uint16_t tenant = 0);  // First slot of a fresh run.
  Status Free(uint64_t first_slot, uint64_t pages, uint16_t tenant = 0);
  Status Store(uint64_t slot, std::span<const uint8_t> page);
  Result<PageBuffer> Load(uint64_t slot) const;

  // Basic-parity primitives (§2.2 "Parity"): the data server computes
  // old XOR new while storing, the parity server folds a delta into the
  // stored page. An absent slot reads as all-zeroes for both.
  Result<PageBuffer> DeltaStore(uint64_t slot, std::span<const uint8_t> page);
  Status XorMerge(uint64_t slot, std::span<const uint8_t> delta);

  bool Holds(uint64_t slot) const;

  // Fault / load injection.
  void Crash();
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  void Restart();  // Clears the crashed flag; storage stays empty.
  // Bumped on every Restart(). Heartbeat acks carry it so a client can tell
  // a rebooted-empty server (incarnation changed: its pages are gone, trigger
  // a rebuild) from a healed network partition (incarnation unchanged: the
  // pages survived, re-admission is enough). See DESIGN.md §11.
  uint64_t incarnation() const { return incarnation_.load(std::memory_order_acquire); }
  // Zeroes every counter in stats(). A restarted workstation starts from a
  // clean slate, so post-recovery assertions (pageouts_served, denials, ...)
  // must not see the pre-crash totals; Testbed::RestartServer calls this.
  void ResetStats();
  // `fraction` of the donated memory reclaimed by native processes on the
  // server workstation. Raising it can push the server into ADVISE_STOP.
  void SetNativeLoad(double fraction);

  // Test hook: requests touching `slot` sleep for `micros` before being
  // served (outside any server lock, so other slots proceed). Lets tests
  // force out-of-order replies from a multi-worker TcpServer session.
  void SetSlotDelayForTest(uint64_t slot, int64_t micros);

  uint64_t capacity_pages() const;
  uint64_t free_pages() const;
  uint64_t live_pages() const;
  bool ShouldAdviseStop() const;

  // --- Tenant introspection (DESIGN.md §15) -------------------------------
  bool tenant_enforced() const { return tenant_enforced_; }
  // Occupancy currently charged to `tenant` (0 for unknown ids).
  uint64_t TenantReservedPages(uint16_t tenant) const;
  // True when the tenant is past its own advise_stop_fraction of its quota;
  // pageout acks for that tenant carry ADVISE_STOP even when the server as a
  // whole has room (per-tenant backpressure).
  bool TenantShouldAdviseStop(uint16_t tenant) const;

  // --- Tier occupancy (DESIGN.md §14) -------------------------------------
  // Logical vs physical occupancy; capacity claims are judged on the ratio.
  TierOccupancy tier_occupancy() const;
  uint64_t logical_bytes() const { return tier_occupancy().logical_bytes; }
  uint64_t physical_bytes() const { return tier_occupancy().physical_bytes; }

  // --- Elastic membership (DESIGN.md §16) ---------------------------------
  // The cluster-map epoch currently in force; 0 = no map adopted. Data ops
  // stamped with an older epoch (Message::epoch) are denied with STALE_EPOCH so
  // a stale client refreshes before it writes to the wrong owner.
  uint64_t map_epoch() const { return map_epoch_.load(std::memory_order_acquire); }

  uint32_t shard_count() const { return shard_count_; }
  const MemoryServerStats& stats() const { return stats_; }
  const std::string& name() const { return params_.name; }

  // --- Live introspection (DESIGN.md §12) ---------------------------------
  // The registry behind stats(), plus occupancy gauges refreshed on demand.
  MetricsRegistry& metrics() const { return registry_; }
  // Refreshes the occupancy gauges and exports the registry as JSON — the
  // STATS reply payload.
  std::string StatsJson() const;
  // Optional tracer whose ring answers TRACE_DUMP (a server-side process
  // would trace its own ops; the testbed attaches the client's tracer so the
  // dump travels the wire). Not owned; pass nullptr to detach.
  void AttachTracer(PageTracer* tracer) { tracer_ = tracer; }

  // --- Distributed tracing + flight recorder (DESIGN.md §17) --------------
  // Server-side spans recorded for requests that carried a wire trace id;
  // answers TRACE_DUMP with document 1 and the Testbed's in-proc stitching.
  SpanRing& span_ring() const { return spans_; }
  // The server's flight recorder; answers EVENTS_QUERY. State machines that
  // live *outside* the server (health, repair, fault plans) get their own
  // journals — this one records the server's own decisions.
  EventJournal& events() const { return events_; }

 private:
  // Frames per slab: 64 × 8 KB = 512 KB slabs, large enough to amortize the
  // allocation, small enough that a lightly used shard stays cheap.
  static constexpr uint32_t kSlabPages = 64;
  // Cold extents pack compressed blobs into 256 KB arenas — the spill unit.
  static constexpr uint32_t kExtentBytes = 256 * 1024;
  static constexpr uint32_t kNoIndex = 0xffffffffu;

  // One deduplicated cold payload; slots reference it by index.
  struct ColdEntry {
    uint32_t crc = 0;     // Crc32c of the uncompressed page (dedup key, and
                          // an integrity check on every cold read).
    uint32_t bytes = 0;   // Stored length inside the extent.
    uint32_t extent = 0;
    uint32_t offset = 0;
    uint32_t refs = 0;
    bool compressed = false;  // false: raw (the codec did not win).
  };

  // A packed arena of cold payloads. Append-only while open; sealed when
  // full. Freed bytes accrue as `dead`; a fully dead extent releases its
  // memory (and its disk run, if spilled). disk_blocks > 0 means the bytes
  // currently live in the spill DiskStore instead of `data`.
  struct Extent {
    std::unique_ptr<uint8_t[]> data;
    uint32_t capacity = 0;
    uint32_t used = 0;
    uint32_t dead = 0;
    bool sealed = false;
    uint64_t disk_block = 0;
    uint64_t disk_blocks = 0;
    bool spilled() const { return disk_blocks > 0; }
  };

  struct SlotRef {
    enum class Tier : uint8_t { kHot, kCold, kZero };
    Tier tier = Tier::kHot;
    // Hot: the CLOCK referenced bit. Cold: promotion hit count (saturating).
    uint8_t clock = 0;
    // Hot: frame index (slab = ref / kSlabPages). Cold: ColdEntry index.
    uint32_t ref = 0;
    // Matches the clock-ring entry pushed when this slot last became hot;
    // stale ring entries (slot freed, demoted, or re-stored since) fail the
    // epoch check and are discarded instead of double-cycling.
    uint32_t ring_epoch = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, SlotRef> pages;
    std::vector<std::unique_ptr<uint8_t[]>> slabs;
    std::vector<uint32_t> free_frames;
    // --- Cold tier ---
    // Second-chance order over hot slots; entries are (slot, ring_epoch).
    std::deque<std::pair<uint64_t, uint32_t>> clock_ring;
    uint32_t next_ring_epoch = 0;
    uint64_t hot_count = 0;
    std::vector<ColdEntry> cold_entries;
    std::vector<uint32_t> cold_free;
    std::unordered_multimap<uint32_t, uint32_t> dedup;  // crc → entry index.
    std::vector<Extent> extents;
    std::vector<uint32_t> extent_free;
    uint32_t open_extent = kNoIndex;
    uint64_t cold_live_bytes = 0;  // Live bytes in *in-memory* extents.
  };

  Shard& ShardFor(uint64_t slot) const;
  static uint8_t* FramePtr(const Shard& shard, uint32_t frame);
  // Pops a free frame, growing the slab list if needed. Shard mutex held.
  static uint32_t TakeFrameLocked(Shard* shard);

  // --- Cold-tier internals (shard mutex held throughout) ------------------
  void MakeHotLocked(Shard* shard, uint64_t slot, SlotRef* ref, uint32_t frame) const;
  void ReleaseStorageLocked(Shard* shard, SlotRef* ref) const;
  void ReleaseColdRefLocked(Shard* shard, uint32_t entry_index) const;
  void ReleaseExtentLocked(Shard* shard, uint32_t extent_index) const;
  // Runs the CLOCK hand until the shard is back under its hot limit (or the
  // pass bound is hit); demotes un-referenced pages.
  void MaybeDemoteLocked(Shard* shard) const;
  void DemoteLocked(Shard* shard, SlotRef* ref) const;
  // Appends `bytes` to the open extent (sealing/opening as needed).
  void AppendColdLocked(Shard* shard, const uint8_t* bytes, uint32_t len, uint32_t* extent_out,
                        uint32_t* offset_out) const;
  // Byte-exact dedup verify of `page` against an existing entry.
  bool ColdEntryMatchesLocked(Shard* shard, const ColdEntry& entry, const uint8_t* page) const;
  // Reads entry bytes (unspilling its extent first if needed), decompresses,
  // and CRC-verifies into `out` (kPageSize bytes).
  Status ReadColdLocked(Shard* shard, uint32_t entry_index, uint8_t* out) const;
  Status UnspillExtentLocked(Shard* shard, uint32_t extent_index) const;
  void MaybeSpillLocked(Shard* shard) const;
  // Promotes a cold slot back into a hot frame holding `page` bytes.
  void PromoteLocked(Shard* shard, uint64_t slot, SlotRef* ref, const uint8_t* page) const;
  // Load's body: writes the slot's page into `out` (kPageSize bytes), so a
  // reply's payload is filled straight from the frame or cold entry.
  Status LoadInto(uint64_t slot, std::span<uint8_t> out) const;
  // The PAGEIN or MIGRATE reply for `request.slot`: ReplyFor with the loaded
  // page as its payload, or with the load's status and no payload.
  Message LoadReply(const Message& request) const;
  // Ensures the slot's bytes sit in a hot frame (for read-modify-write ops);
  // returns the frame index. The slot must exist.
  Result<uint32_t> MaterializeHotLocked(Shard* shard, uint64_t slot, SlotRef* ref) const;

  // The prelude every page write shares: store-span timing, crash check,
  // never-allocated bound, size check, shard lock, crash recheck. Runs
  // `body(shard, ref, inserted)` under the shard lock on the slot's entry
  // (`inserted` when it was absent) and counts the pageout if it succeeds.
  template <typename Body>
  Status Write(uint64_t slot, std::span<const uint8_t> page, Body&& body);
  // A Write that hands `modify` the slot's bytes in a hot frame, to change in
  // place (DELTA_PAGEOUT, XOR_MERGE). An absent slot reads as all-zeroes.
  template <typename Modify>
  Status ReadModifyWrite(uint64_t slot, std::span<const uint8_t> page, Modify&& modify);

  uint64_t EffectiveCapacityLocked() const;
  uint64_t FreePagesLocked() const;
  bool AdviseStopLocked() const;

  // --- Tenant admission (DESIGN.md §15) -----------------------------------
  // Per-tenant quota state. Guarded by tenant_mutex_ (lock order:
  // control_mutex_ → tenant_mutex_; the data path takes tenant_mutex_ alone).
  struct TenantState {
    TenantQuota quota;
    uint64_t reserved = 0;  // Occupancy charged at Allocate, credited at Free.
    TokenBucket bucket{0, 1};
    Counter* ops = nullptr;           // Requests admitted.
    Counter* denials = nullptr;       // Occupancy / ownership denials.
    Counter* rate_denials = nullptr;  // Token-bucket rejections.
    Gauge* reserved_gauge = nullptr;
    HistogramMetric* service_us = nullptr;
  };

  // Finds (or, when !strict, lazily creates) the state row for a nonzero
  // tenant. Returns nullptr for unknown ids under strict policy.
  TenantState* TenantStateLocked(uint16_t tenant) const;
  void BindTenantMetricsLocked(uint16_t tenant, TenantState* state) const;
  // Credits quota rows and splits/erases ownership runs for a freed range.
  // control_mutex_ held.
  void ReleaseTenantRunsLocked(uint64_t first_slot, uint64_t pages);
  // True when serving `request` could put the thread to sleep: an emulated
  // store service time, a SetSlotDelayForTest delay on its slot, or a spill
  // DiskStore behind the cold tier. Such requests decline inline service on
  // a transport loop thread (InlineService, transport.h).
  bool CouldSleep(const Message& request) const;
  // The SetSlotDelayForTest delay on `slot`; 0 when none is set.
  int64_t SlotDelayMicros(uint64_t slot) const;

  // The request path under Handle's trace shim: Serve runs Gate, then
  // Dispatch, and echoes the tenant when tenant policy is on.
  Message Serve(const Message& request);
  // Every check a request passes before dispatch, in order: tenant
  // admission, the slot-delay test hook, the epoch gate, and the owner check
  // of single-slot ops. Returns false with *denial set to refuse; on admit,
  // *service_us points at the tenant's latency histogram (null for tenant 0).
  bool Gate(const Message& request, Message* denial, HistogramMetric** service_us);
  Message Dispatch(const Message& request);
  // PAGEOUT_BATCH and PAGEIN_BATCH: the entries in order, each behind the
  // owner check, stopping at the first failure (its index goes in aux).
  Message ServeBatch(const Message& request);
  // Rate limit and attribution for a nonzero tenant: kOk to admit,
  // kFailedPrecondition for an unknown tenant under strict policy, or
  // kResourceExhausted when its token bucket is dry.
  ErrorCode AdmitTenant(const Message& request, HistogramMetric** service_us_out);
  // Ownership check for data ops: a nonzero tenant may only touch slots in
  // runs it allocated, or legacy ones. Tenant 0 (legacy/recovery) may touch
  // everything. CheckOwnerLocked covers a range, with control_mutex_ held.
  Status CheckSlotOwner(uint64_t slot, uint16_t tenant) const;
  Status CheckOwnerLocked(uint64_t first_slot, uint64_t pages, uint16_t tenant) const;

  MemoryServerParams params_;
  uint32_t shard_count_ = 1;
  uint32_t shard_bits_ = 0;
  uint64_t per_shard_hot_limit_ = 0;    // 0 = tier disabled.
  uint64_t per_shard_cold_budget_ = 0;  // 0 = never spill.
  std::unique_ptr<Shard[]> shards_;

  // Spill backing, shared by all shards. Lock order: shard → disk_mutex_.
  mutable std::mutex disk_mutex_;
  mutable std::unique_ptr<DiskStore> disk_;

  // Allocation bookkeeping; taken before any shard mutex, never after.
  mutable std::mutex control_mutex_;
  uint64_t reserved_slots_ = 0;  // Allocated (granted) but possibly unwritten.
  std::vector<std::pair<uint64_t, uint64_t>> free_runs_;
  // Slot-run ownership when tenants are enforced: start → (pages, tenant).
  // Lets Free/MIGRATE credit the right quota and reject cross-tenant frees.
  std::map<uint64_t, std::pair<uint64_t, uint16_t>> tenant_runs_;
  double native_load_ = 0.0;
  std::unordered_map<uint64_t, int64_t> slot_delays_micros_;

  // Read lock-free on the data path; written under control_mutex_.
  std::atomic<uint64_t> next_slot_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> has_slot_delays_{false};
  std::atomic<uint64_t> incarnation_{1};

  // Elastic membership (DESIGN.md §16): the last adopted cluster map. The
  // epoch is read lock-free on every data op (the stale gate); the serialized
  // bytes sit under map_mutex_ and only matter on MAP_QUERY/MAP_PUBLISH.
  mutable std::mutex map_mutex_;
  std::vector<uint8_t> map_bytes_;
  std::atomic<uint64_t> map_epoch_{0};

  // Tenant quota rows; populated from params_.tenants at construction and
  // lazily for attributed-but-unquota'd ids. tenant_enforced_ is immutable
  // after construction, so the data path branches on it lock-free.
  bool tenant_enforced_ = false;
  mutable std::mutex tenant_mutex_;
  mutable std::unordered_map<uint16_t, TenantState> tenant_states_;

  // Declared before stats_: the stat counters live in this registry.
  mutable MetricsRegistry registry_;
  mutable MemoryServerStats stats_{&registry_};
  PageTracer* tracer_ = nullptr;
  mutable SpanRing spans_;
  mutable EventJournal events_;
};

}  // namespace rmp

#endif  // SRC_SERVER_MEMORY_SERVER_H_
