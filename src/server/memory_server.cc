#include "src/server/memory_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "src/util/checksum.h"
#include "src/util/compress.h"
#include "src/util/logging.h"
#include "src/util/units.h"

namespace rmp {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0).count();
}

// Demotion requires this much saving before it keeps the compressed form;
// pages that barely shrink go into the extent raw, so a later cold pagein
// skips a decompress that buys almost nothing.
constexpr size_t kCompressCeiling = kPageSize - kPageSize / 16;

TimeNs NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now().time_since_epoch())
      .count();
}

// Accumulates this scope's wall time into a ServerTraceScratch sink, but only
// when a traced request is in flight on this thread (DESIGN.md §17) — the
// untraced path pays one thread_local bool test and no clock reads.
class ScratchTimer {
 public:
  explicit ScratchTimer(int64_t ServerTraceScratch::* sink) {
    ServerTraceScratch& scratch = ServerScratch();
    if (scratch.active) {
      sink_ = &(scratch.*sink);
      t0_ = NowNanos();
    }
  }
  ~ScratchTimer() {
    if (sink_ != nullptr) {
      *sink_ += NowNanos() - t0_;
    }
  }
  ScratchTimer(const ScratchTimer&) = delete;
  ScratchTimer& operator=(const ScratchTimer&) = delete;

 private:
  int64_t* sink_ = nullptr;
  TimeNs t0_ = 0;
};

// The single-slot data ops, whose owner check the gate runs before dispatch.
// Batches check each entry in the batch loop, FREE its whole range.
bool OwnerGated(MessageType type) {
  switch (type) {
    case MessageType::kPageOut:
    case MessageType::kPageIn:
    case MessageType::kDeltaPageOut:
    case MessageType::kXorMerge:
    case MessageType::kMigrate:
      return true;
    default:
      return false;
  }
}

// The reply type each request type expects.
MessageType ReplyType(MessageType type) {
  switch (type) {
    case MessageType::kAllocRequest:
      return MessageType::kAllocReply;
    case MessageType::kFreeRequest:
    case MessageType::kShutdown:
      return MessageType::kFreeReply;
    case MessageType::kPageOut:
      return MessageType::kPageOutAck;
    case MessageType::kPageIn:
    case MessageType::kDeltaPageOut:  // The delta travels back PAGEIN_REPLY-shaped.
      return MessageType::kPageInReply;
    case MessageType::kXorMerge:
      return MessageType::kXorMergeAck;
    case MessageType::kMigrate:
      return MessageType::kMigrateReply;
    case MessageType::kPageOutBatch:
      return MessageType::kPageOutBatchAck;
    case MessageType::kPageInBatch:
      return MessageType::kPageInBatchReply;
    default:
      return MessageType::kErrorReply;
  }
}

// The one reply shaper: the reply `request`'s op expects, carrying `status`,
// with the slot echoed for single-slot ops. Every denial (rate, stale epoch,
// ownership) and every store result travels in this shape, so clients that
// only look at the status field keep working. Callers add ADVISE_STOP, the
// epoch, aux, count or a payload themselves.
Message ReplyFor(const Message& request, ErrorCode status) {
  Message reply;
  reply.type = ReplyType(request.type);
  reply.request_id = request.request_id;
  reply.status = static_cast<uint32_t>(status);
  if (OwnerGated(request.type) || request.type == MessageType::kFreeRequest) {
    reply.slot = request.slot;
  }
  return reply;
}

// ReplyFor carrying `page`'s status and, when it is OK, its bytes.
Message PageReply(const Message& request, const Result<PageBuffer>& page) {
  Message reply = ReplyFor(request, page.status().code());
  if (page.ok()) {
    reply.payload.assign(page->span().begin(), page->span().end());
  }
  return reply;
}

// True for the ops a stale map can misroute: everything that names slots or
// changes occupancy. Control traffic (heartbeat, stats, map exchange itself)
// must keep flowing whatever epoch the client holds.
bool EpochGated(MessageType type) {
  switch (type) {
    case MessageType::kAllocRequest:
    case MessageType::kFreeRequest:
    case MessageType::kPageOut:
    case MessageType::kPageIn:
    case MessageType::kPageOutBatch:
    case MessageType::kPageInBatch:
    case MessageType::kDeltaPageOut:
    case MessageType::kXorMerge:
    case MessageType::kMigrate:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<ConfigTable> TenantConfigKeys(const Config& config, TenantPolicyParams* params) {
  for (const std::string& key : config.Keys()) {
    if (key.rfind("tenant.", 0) != 0 || key == "tenant.strict") {
      continue;
    }
    const std::string rest = key.substr(7);
    const size_t dot = rest.find('.');
    if (dot == std::string::npos || dot == 0) {
      return InvalidArgumentError("malformed tenant key: " + key);
    }
    uint64_t id = 0;
    for (size_t i = 0; i < dot; ++i) {
      const char ch = rest[i];
      // Decimal without leading zeros: the one spelling the table's rows use.
      if (ch < '0' || ch > '9' || (i == 0 && ch == '0' && dot > 1)) {
        return InvalidArgumentError("malformed tenant id in key: " + key);
      }
      id = id * 10 + static_cast<uint64_t>(ch - '0');
      if (id > kMaxTenantId) {
        return InvalidArgumentError("tenant id out of range in key: " + key);
      }
    }
    if (id == 0) {
      return InvalidArgumentError("tenant 0 is the legacy lane and takes no quota: " + key);
    }
    if (std::none_of(params->tenants.begin(), params->tenants.end(),
                     [id](const TenantQuota& q) { return q.id == id; })) {
      params->tenants.push_back(TenantQuota{.id = static_cast<uint16_t>(id)});
    }
  }
  ConfigTable table = {{"tenant.strict", ConfigKey::kBool, &params->strict}};
  for (TenantQuota& q : params->tenants) {
    const std::string base = "tenant." + std::to_string(q.id) + ".";
    table.push_back({base + "quota_pages", ConfigKey::kInt, &q.memory_quota_pages, 0, kNoLimit});
    table.push_back({base + "rate", ConfigKey::kInt, &q.rate_pages_per_sec, 0, kNoLimit});
    table.push_back({base + "burst", ConfigKey::kInt, &q.burst_pages, 1, kNoLimit});
    table.push_back({base + "advise_fraction", ConfigKey::kDouble, &q.advise_stop_fraction, 0, 1});
  }
  return table;
}

ConfigTable StoreConfigKeys(MemoryServerParams* params) {
  StoreTierParams& tier = params->tier;
  return {
      {"store.shards", ConfigKey::kInt, &params->store_shards, 1, 4096},
      {"store.service_micros", ConfigKey::kInt, &params->store_service_micros, 0, 1e6},
      {"store.hot_pages", ConfigKey::kInt, &tier.hot_page_limit, 0, kNoLimit},
      {"store.compress", ConfigKey::kBool, &tier.compress},
      {"store.dedup", ConfigKey::kBool, &tier.dedup},
      {"store.promote_hits", ConfigKey::kInt, &tier.promote_after_hits, 0, UINT32_MAX},
      {"store.cold_budget_kb", ConfigKey::kInt, &tier.cold_budget_bytes, 0, kNoLimit / 1024, 1024},
      {"store.spill_blocks", ConfigKey::kInt, &tier.spill_blocks, 0, kNoLimit},
      {"store.overcommit", ConfigKey::kDouble, &tier.logical_overcommit, 1, 1024},
  };
}

MemoryServer::MemoryServer(const MemoryServerParams& params)
    : params_(params), spans_(params.span_ring_capacity), events_(params.events) {
  const uint32_t wanted = std::max<uint32_t>(1, params_.store_shards);
  shard_bits_ = 0;
  while ((1u << shard_bits_) < wanted) {
    ++shard_bits_;
  }
  shard_count_ = 1u << shard_bits_;
  shards_ = std::make_unique<Shard[]>(shard_count_);
  if (params_.tier.hot_page_limit > 0) {
    per_shard_hot_limit_ = std::max<uint64_t>(1, params_.tier.hot_page_limit / shard_count_);
    if (params_.tier.cold_budget_bytes > 0) {
      per_shard_cold_budget_ =
          std::max<uint64_t>(kExtentBytes, params_.tier.cold_budget_bytes / shard_count_);
    }
    if (params_.tier.spill_blocks > 0) {
      auto disk = DiskStore::Create(params_.tier.spill_blocks);
      if (disk.ok()) {
        disk_ = std::make_unique<DiskStore>(std::move(*disk));
      } else {
        RMP_LOG(kWarning) << params_.name << " spill store unavailable ("
                          << disk.status().message() << "); cold tier stays in memory";
      }
    }
  }
  tenant_enforced_ = params_.tenants.enabled();
  if (tenant_enforced_) {
    std::lock_guard<std::mutex> tenant_lock(tenant_mutex_);
    for (const TenantQuota& quota : params_.tenants.tenants) {
      if (quota.id == 0 || quota.id > kMaxTenantId) {
        RMP_LOG(kWarning) << params_.name << " ignores tenant quota row with bad id " << quota.id;
        continue;
      }
      TenantState state;
      state.quota = quota;
      state.bucket = TokenBucket(quota.rate_pages_per_sec, quota.burst_pages);
      auto [it, inserted] = tenant_states_.emplace(quota.id, std::move(state));
      if (inserted) {
        BindTenantMetricsLocked(quota.id, &it->second);
      }
    }
  }
}

void MemoryServer::BindTenantMetricsLocked(uint16_t tenant, TenantState* state) const {
  const std::string prefix = "tenant." + std::to_string(tenant);
  state->ops = registry_.GetCounter(prefix + ".ops");
  state->denials = registry_.GetCounter(prefix + ".denials");
  state->rate_denials = registry_.GetCounter(prefix + ".rate_denials");
  state->reserved_gauge = registry_.GetGauge(prefix + ".reserved_pages");
  state->service_us = registry_.GetHistogram(prefix + ".service_us",
                                             {.lo = 0.1, .hi = 1e5, .buckets = 40,
                                              .log_scale = true});
}

MemoryServer::TenantState* MemoryServer::TenantStateLocked(uint16_t tenant) const {
  auto it = tenant_states_.find(tenant);
  if (it != tenant_states_.end()) {
    return &it->second;
  }
  if (params_.tenants.strict || tenant > kMaxTenantId) {
    return nullptr;
  }
  TenantState state;
  state.quota.id = tenant;  // Unlimited row: attribution only.
  auto [inserted, ok] = tenant_states_.emplace(tenant, std::move(state));
  BindTenantMetricsLocked(tenant, &inserted->second);
  return &inserted->second;
}

MemoryServer::Shard& MemoryServer::ShardFor(uint64_t slot) const {
  // Fibonacci hash: consecutive slots of an extent land on distinct shards,
  // and strided slot patterns do not alias onto one stripe.
  const uint64_t h = slot * 0x9e3779b97f4a7c15ULL;
  const uint32_t index = shard_bits_ == 0 ? 0 : static_cast<uint32_t>(h >> (64 - shard_bits_));
  return shards_[index];
}

uint8_t* MemoryServer::FramePtr(const Shard& shard, uint32_t frame) {
  return shard.slabs[frame / kSlabPages].get() +
         static_cast<size_t>(frame % kSlabPages) * kPageSize;
}

uint32_t MemoryServer::TakeFrameLocked(Shard* shard) {
  if (shard->free_frames.empty()) {
    const uint32_t base = static_cast<uint32_t>(shard->slabs.size()) * kSlabPages;
    shard->slabs.push_back(std::make_unique<uint8_t[]>(size_t{kSlabPages} * kPageSize));
    // Push in reverse so frames are handed out in ascending address order.
    for (uint32_t i = kSlabPages; i > 0; --i) {
      shard->free_frames.push_back(base + i - 1);
    }
  }
  const uint32_t frame = shard->free_frames.back();
  shard->free_frames.pop_back();
  return frame;
}

// --- Cold-tier internals (shard mutex held) ----------------------------------

void MemoryServer::MakeHotLocked(Shard* shard, uint64_t slot, SlotRef* ref,
                                 uint32_t frame) const {
  ref->tier = SlotRef::Tier::kHot;
  ref->clock = 1;
  ref->ref = frame;
  ++shard->hot_count;
  if (per_shard_hot_limit_ > 0) {
    // With the tier off nothing ever pops the ring, so do not feed it.
    ref->ring_epoch = ++shard->next_ring_epoch;
    shard->clock_ring.emplace_back(slot, ref->ring_epoch);
  }
}

void MemoryServer::ReleaseStorageLocked(Shard* shard, SlotRef* ref) const {
  switch (ref->tier) {
    case SlotRef::Tier::kHot:
      shard->free_frames.push_back(ref->ref);
      --shard->hot_count;
      break;  // The slot's ring entry goes stale; the epoch check drops it.
    case SlotRef::Tier::kCold:
      ReleaseColdRefLocked(shard, ref->ref);
      break;
    case SlotRef::Tier::kZero:
      break;
  }
}

void MemoryServer::ReleaseColdRefLocked(Shard* shard, uint32_t entry_index) const {
  ColdEntry& entry = shard->cold_entries[entry_index];
  if (--entry.refs > 0) {
    return;
  }
  if (params_.tier.dedup) {
    auto range = shard->dedup.equal_range(entry.crc);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == entry_index) {
        shard->dedup.erase(it);
        break;
      }
    }
  }
  Extent& extent = shard->extents[entry.extent];
  extent.dead += entry.bytes;
  if (!extent.spilled()) {
    shard->cold_live_bytes -= entry.bytes;
  }
  shard->cold_free.push_back(entry_index);
  if (extent.sealed && extent.dead == extent.used) {
    ReleaseExtentLocked(shard, entry.extent);
  }
}

void MemoryServer::ReleaseExtentLocked(Shard* shard, uint32_t extent_index) const {
  Extent& extent = shard->extents[extent_index];
  if (extent.spilled()) {
    std::lock_guard<std::mutex> disk_lock(disk_mutex_);
    const Status freed = disk_->Free(extent.disk_block, extent.disk_blocks);
    if (!freed.ok()) {
      RMP_LOG(kWarning) << params_.name << " failed to free a spill run: " << freed.message();
    }
  }
  extent = Extent{};
  if (shard->open_extent == extent_index) {
    shard->open_extent = kNoIndex;
  }
  shard->extent_free.push_back(extent_index);
}

void MemoryServer::AppendColdLocked(Shard* shard, const uint8_t* bytes, uint32_t len,
                                    uint32_t* extent_out, uint32_t* offset_out) const {
  if (shard->open_extent == kNoIndex ||
      shard->extents[shard->open_extent].capacity - shard->extents[shard->open_extent].used <
          len) {
    if (shard->open_extent != kNoIndex) {
      Extent& full = shard->extents[shard->open_extent];
      full.sealed = true;
      const uint32_t sealed_index = shard->open_extent;
      shard->open_extent = kNoIndex;
      if (full.dead == full.used) {
        ReleaseExtentLocked(shard, sealed_index);
      }
    }
    uint32_t index;
    if (!shard->extent_free.empty()) {
      index = shard->extent_free.back();
      shard->extent_free.pop_back();
    } else {
      index = static_cast<uint32_t>(shard->extents.size());
      shard->extents.emplace_back();
    }
    Extent& fresh = shard->extents[index];
    fresh.data = std::make_unique<uint8_t[]>(kExtentBytes);
    fresh.capacity = kExtentBytes;
    shard->open_extent = index;
  }
  Extent& open = shard->extents[shard->open_extent];
  std::memcpy(open.data.get() + open.used, bytes, len);
  *extent_out = shard->open_extent;
  *offset_out = open.used;
  open.used += len;
  shard->cold_live_bytes += len;
}

bool MemoryServer::ColdEntryMatchesLocked(Shard* shard, const ColdEntry& entry,
                                          const uint8_t* page) const {
  const Extent& extent = shard->extents[entry.extent];
  if (extent.spilled()) {
    return false;  // Dedup only probes resident extents; a disk read per probe
                   // would make demotion slower than the copy it saves.
  }
  const uint8_t* stored = extent.data.get() + entry.offset;
  if (!entry.compressed) {
    return entry.bytes == kPageSize && std::memcmp(stored, page, kPageSize) == 0;
  }
  thread_local std::vector<uint8_t> verify;
  verify.resize(kPageSize);
  if (!DecompressBlock(stored, entry.bytes, verify.data(), kPageSize).ok()) {
    return false;
  }
  return std::memcmp(verify.data(), page, kPageSize) == 0;
}

void MemoryServer::DemoteLocked(Shard* shard, SlotRef* ref) const {
  const uint32_t frame = ref->ref;
  const uint8_t* page = FramePtr(*shard, frame);
  const uint32_t crc = Crc32c(std::span<const uint8_t>(page, kPageSize));
  uint32_t entry_index = kNoIndex;
  if (params_.tier.dedup) {
    auto range = shard->dedup.equal_range(crc);
    for (auto it = range.first; it != range.second; ++it) {
      if (ColdEntryMatchesLocked(shard, shard->cold_entries[it->second], page)) {
        entry_index = it->second;
        break;
      }
    }
  }
  if (entry_index != kNoIndex) {
    ++shard->cold_entries[entry_index].refs;
    stats_.dedup_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    thread_local std::vector<uint8_t> scratch;
    scratch.resize(CompressBound(kPageSize));
    const uint8_t* stored = page;
    uint32_t stored_bytes = kPageSize;
    bool compressed = false;
    if (params_.tier.compress) {
      const auto t0 = SteadyClock::now();
      const size_t csize = CompressBlock(page, kPageSize, scratch.data(), kCompressCeiling);
      stats_.compress_us.Observe(MicrosSince(t0));
      if (csize > 0) {
        stored = scratch.data();
        stored_bytes = static_cast<uint32_t>(csize);
        compressed = true;
      } else {
        stats_.incompressible.fetch_add(1, std::memory_order_relaxed);
      }
    }
    uint32_t extent = 0;
    uint32_t offset = 0;
    AppendColdLocked(shard, stored, stored_bytes, &extent, &offset);
    if (!shard->cold_free.empty()) {
      entry_index = shard->cold_free.back();
      shard->cold_free.pop_back();
    } else {
      entry_index = static_cast<uint32_t>(shard->cold_entries.size());
      shard->cold_entries.emplace_back();
    }
    shard->cold_entries[entry_index] = ColdEntry{crc, stored_bytes, extent, offset, 1, compressed};
    if (params_.tier.dedup) {
      shard->dedup.emplace(crc, entry_index);
    }
    stats_.cold_source_bytes.fetch_add(kPageSize, std::memory_order_relaxed);
    stats_.cold_stored_bytes.fetch_add(stored_bytes, std::memory_order_relaxed);
  }
  shard->free_frames.push_back(frame);
  --shard->hot_count;
  ref->tier = SlotRef::Tier::kCold;
  ref->clock = 0;
  ref->ref = entry_index;
  stats_.demotions.fetch_add(1, std::memory_order_relaxed);
  MaybeSpillLocked(shard);
}

void MemoryServer::MaybeDemoteLocked(Shard* shard) const {
  if (per_shard_hot_limit_ == 0) {
    return;
  }
  // Bounded pass: a ring full of referenced pages gets its bits cleared and
  // re-queued once; the next store finishes the job. Amortized O(1).
  size_t budget = shard->clock_ring.size() * 2;
  while (shard->hot_count > per_shard_hot_limit_ && budget-- > 0 && !shard->clock_ring.empty()) {
    const auto [slot, epoch] = shard->clock_ring.front();
    shard->clock_ring.pop_front();
    auto it = shard->pages.find(slot);
    if (it == shard->pages.end() || it->second.tier != SlotRef::Tier::kHot ||
        it->second.ring_epoch != epoch) {
      continue;  // Stale: the slot was freed, demoted, or re-stored since.
    }
    SlotRef& ref = it->second;
    if (ref.clock != 0) {
      ref.clock = 0;  // Second chance.
      shard->clock_ring.emplace_back(slot, epoch);
      continue;
    }
    DemoteLocked(shard, &ref);
  }
}

Status MemoryServer::UnspillExtentLocked(Shard* shard, uint32_t extent_index) const {
  ScratchTimer disk_timer(&ServerTraceScratch::disk_ns);
  Extent& extent = shard->extents[extent_index];
  auto data = std::make_unique<uint8_t[]>(extent.capacity);
  {
    std::lock_guard<std::mutex> disk_lock(disk_mutex_);
    // capacity is a multiple of kPageSize, so whole-block reads stay in
    // bounds even when `used` ends mid-block.
    for (uint64_t b = 0; b < extent.disk_blocks; ++b) {
      RMP_RETURN_IF_ERROR(disk_->Read(extent.disk_block + b,
                                      std::span<uint8_t>(data.get() + b * kPageSize, kPageSize)));
    }
    const Status freed = disk_->Free(extent.disk_block, extent.disk_blocks);
    if (!freed.ok()) {
      RMP_LOG(kWarning) << params_.name << " failed to free a spill run: " << freed.message();
    }
  }
  extent.data = std::move(data);
  extent.disk_block = 0;
  extent.disk_blocks = 0;
  shard->cold_live_bytes += extent.used - extent.dead;
  stats_.unspills.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

void MemoryServer::MaybeSpillLocked(Shard* shard) const {
  if (disk_ == nullptr || per_shard_cold_budget_ == 0) {
    return;
  }
  ScratchTimer disk_timer(&ServerTraceScratch::disk_ns);
  while (shard->cold_live_bytes > per_shard_cold_budget_) {
    uint32_t victim = kNoIndex;
    for (uint32_t i = 0; i < shard->extents.size(); ++i) {
      const Extent& x = shard->extents[i];
      if (x.sealed && !x.spilled() && x.data != nullptr && x.used > x.dead) {
        victim = i;  // Lowest index ≈ oldest extent ≈ coldest payloads.
        break;
      }
    }
    if (victim == kNoIndex) {
      return;  // Only the open extent is resident; nothing sealed to evict.
    }
    Extent& extent = shard->extents[victim];
    const uint64_t blocks = (extent.used + kPageSize - 1) / kPageSize;
    {
      std::lock_guard<std::mutex> disk_lock(disk_mutex_);
      auto run = disk_->Allocate(blocks);
      if (!run.ok()) {
        return;  // Spill store full: keep extents resident.
      }
      bool failed = false;
      for (uint64_t b = 0; b < blocks; ++b) {
        if (!disk_->Write(*run + b, std::span<const uint8_t>(extent.data.get() + b * kPageSize,
                                                             kPageSize))
                 .ok()) {
          failed = true;
          break;
        }
      }
      if (failed) {
        (void)disk_->Free(*run, blocks);
        return;
      }
      extent.disk_block = *run;
      extent.disk_blocks = blocks;
    }
    extent.data.reset();
    shard->cold_live_bytes -= extent.used - extent.dead;
    stats_.spills.fetch_add(1, std::memory_order_relaxed);
  }
}

Status MemoryServer::ReadColdLocked(Shard* shard, uint32_t entry_index, uint8_t* out) const {
  ColdEntry& entry = shard->cold_entries[entry_index];
  if (shard->extents[entry.extent].spilled()) {
    RMP_RETURN_IF_ERROR(UnspillExtentLocked(shard, entry.extent));
  }
  const Extent& extent = shard->extents[entry.extent];
  const uint8_t* stored = extent.data.get() + entry.offset;
  if (entry.compressed) {
    const auto t0 = SteadyClock::now();
    RMP_RETURN_IF_ERROR(DecompressBlock(stored, entry.bytes, out, kPageSize));
    stats_.decompress_us.Observe(MicrosSince(t0));
  } else {
    std::memcpy(out, stored, kPageSize);
  }
  // End-to-end net: a bit flip anywhere in the cold path (extent memory, the
  // spill file, the codec) surfaces here instead of reaching the client.
  if (Crc32c(std::span<const uint8_t>(out, kPageSize)) != entry.crc) {
    return CorruptionError(params_.name + " cold page failed its integrity check");
  }
  return OkStatus();
}

void MemoryServer::PromoteLocked(Shard* shard, uint64_t slot, SlotRef* ref,
                                 const uint8_t* page) const {
  const uint32_t entry_index = ref->ref;
  const uint32_t frame = TakeFrameLocked(shard);
  std::memcpy(FramePtr(*shard, frame), page, kPageSize);
  ReleaseColdRefLocked(shard, entry_index);
  MakeHotLocked(shard, slot, ref, frame);
  stats_.promotions.fetch_add(1, std::memory_order_relaxed);
  MaybeDemoteLocked(shard);
}

Result<uint32_t> MemoryServer::MaterializeHotLocked(Shard* shard, uint64_t slot,
                                                    SlotRef* ref) const {
  switch (ref->tier) {
    case SlotRef::Tier::kHot:
      return ref->ref;
    case SlotRef::Tier::kZero: {
      const uint32_t frame = TakeFrameLocked(shard);
      std::memset(FramePtr(*shard, frame), 0, kPageSize);
      MakeHotLocked(shard, slot, ref, frame);
      return frame;
    }
    case SlotRef::Tier::kCold: {
      thread_local std::vector<uint8_t> page;
      page.resize(kPageSize);
      RMP_RETURN_IF_ERROR(ReadColdLocked(shard, ref->ref, page.data()));
      const uint32_t entry_index = ref->ref;
      const uint32_t frame = TakeFrameLocked(shard);
      std::memcpy(FramePtr(*shard, frame), page.data(), kPageSize);
      ReleaseColdRefLocked(shard, entry_index);
      MakeHotLocked(shard, slot, ref, frame);
      return frame;
    }
  }
  return InternalError("unreachable tier");
}

// --- Allocation and data path ------------------------------------------------

uint64_t MemoryServer::EffectiveCapacityLocked() const {
  double available = static_cast<double>(params_.capacity_pages) * (1.0 - native_load_);
  if (per_shard_hot_limit_ > 0) {
    // Compression + dedup make extra logical pages physically affordable.
    available *= params_.tier.logical_overcommit;
  }
  return available <= 0.0 ? 0 : static_cast<uint64_t>(available);
}

uint64_t MemoryServer::FreePagesLocked() const {
  const uint64_t capacity = EffectiveCapacityLocked();
  return capacity > reserved_slots_ ? capacity - reserved_slots_ : 0;
}

bool MemoryServer::AdviseStopLocked() const {
  const uint64_t capacity = EffectiveCapacityLocked();
  if (capacity == 0) {
    return true;
  }
  return static_cast<double>(reserved_slots_) >=
         params_.advise_stop_fraction * static_cast<double>(capacity);
}

Result<uint64_t> MemoryServer::Allocate(uint64_t pages, uint16_t tenant) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  if (crashed()) {
    return UnavailableError(params_.name + " crashed");
  }
  if (pages == 0) {
    return InvalidArgumentError("cannot allocate zero pages");
  }
  if (FreePagesLocked() < pages) {
    stats_.denials.fetch_add(1, std::memory_order_relaxed);
    if (tenant_enforced_ && tenant != 0) {
      std::lock_guard<std::mutex> tenant_lock(tenant_mutex_);
      if (TenantState* state = TenantStateLocked(tenant)) {
        state->denials->Increment();
      }
    }
    return NoSpaceError(params_.name + " denies allocation of " + std::to_string(pages) +
                        " pages (free " + std::to_string(FreePagesLocked()) + ")");
  }
  if (tenant_enforced_ && tenant != 0) {
    std::lock_guard<std::mutex> tenant_lock(tenant_mutex_);
    TenantState* state = TenantStateLocked(tenant);
    if (state == nullptr) {
      return FailedPreconditionError(params_.name + " knows no tenant " + std::to_string(tenant));
    }
    if (state->quota.memory_quota_pages > 0 &&
        state->reserved + pages > state->quota.memory_quota_pages) {
      state->denials->Increment();
      stats_.denials.fetch_add(1, std::memory_order_relaxed);
      return NoSpaceError(params_.name + " denies tenant " + std::to_string(tenant) + " " +
                          std::to_string(pages) + " pages (quota " +
                          std::to_string(state->quota.memory_quota_pages) + ", reserved " +
                          std::to_string(state->reserved) + ")");
    }
    state->reserved += pages;  // The remaining path below cannot fail.
  }
  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  reserved_slots_ += pages;
  uint64_t start = 0;
  bool reused = false;
  // Reuse freed slot runs first so long-lived servers do not leak slot space.
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    if (it->second >= pages) {
      start = it->first;
      it->first += pages;
      it->second -= pages;
      if (it->second == 0) {
        free_runs_.erase(it);
      }
      reused = true;
      break;
    }
  }
  if (!reused) {
    start = next_slot_.load(std::memory_order_relaxed);
    next_slot_.store(start + pages, std::memory_order_release);
  }
  if (tenant_enforced_) {
    // Track tenant-0 runs too: ownership checks must know a slot is legacy
    // (anyone may touch it) rather than merely unknown.
    tenant_runs_.emplace(start, std::make_pair(pages, tenant));
  }
  return start;
}

Status MemoryServer::Free(uint64_t first_slot, uint64_t pages, uint16_t tenant) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  if (crashed()) {
    return UnavailableError(params_.name + " crashed");
  }
  if (pages == 0 || first_slot + pages > next_slot_.load(std::memory_order_relaxed)) {
    return InvalidArgumentError("bad free range");
  }
  // Check the whole range up front so a denied free leaves nothing behind.
  RMP_RETURN_IF_ERROR(CheckOwnerLocked(first_slot, pages, tenant));
  for (uint64_t s = first_slot; s < first_slot + pages; ++s) {
    Shard& shard = ShardFor(s);
    std::lock_guard<std::mutex> shard_lock(shard.mutex);
    auto it = shard.pages.find(s);
    if (it != shard.pages.end()) {
      ReleaseStorageLocked(&shard, &it->second);
      shard.pages.erase(it);
    }
  }
  reserved_slots_ -= std::min(reserved_slots_, pages);
  free_runs_.emplace_back(first_slot, pages);
  std::sort(free_runs_.begin(), free_runs_.end());
  if (tenant_enforced_) {
    ReleaseTenantRunsLocked(first_slot, pages);
  }
  return OkStatus();
}

void MemoryServer::ReleaseTenantRunsLocked(uint64_t first_slot, uint64_t pages) {
  const uint64_t end = first_slot + pages;
  std::vector<std::pair<uint64_t, std::pair<uint64_t, uint16_t>>> remnants;
  std::lock_guard<std::mutex> tenant_lock(tenant_mutex_);
  auto it = tenant_runs_.upper_bound(first_slot);
  if (it != tenant_runs_.begin()) {
    --it;
  }
  while (it != tenant_runs_.end() && it->first < end) {
    const uint64_t run_start = it->first;
    const uint64_t run_end = run_start + it->second.first;
    const uint16_t owner = it->second.second;
    if (run_end <= first_slot) {
      ++it;
      continue;
    }
    const uint64_t cut_start = std::max(first_slot, run_start);
    const uint64_t cut_end = std::min(end, run_end);
    if (owner != 0) {
      if (TenantState* state = TenantStateLocked(owner)) {
        state->reserved -= std::min(state->reserved, cut_end - cut_start);
      }
    }
    it = tenant_runs_.erase(it);
    if (run_start < cut_start) {
      remnants.emplace_back(run_start, std::make_pair(cut_start - run_start, owner));
    }
    if (cut_end < run_end) {
      remnants.emplace_back(cut_end, std::make_pair(run_end - cut_end, owner));
    }
  }
  for (const auto& piece : remnants) {
    tenant_runs_.emplace(piece.first, piece.second);
  }
}

Status MemoryServer::CheckOwnerLocked(uint64_t first_slot, uint64_t pages,
                                      uint16_t tenant) const {
  if (!tenant_enforced_ || tenant == 0) {
    return OkStatus();
  }
  const uint64_t end = first_slot + pages;
  auto it = tenant_runs_.upper_bound(first_slot);
  if (it != tenant_runs_.begin()) {
    --it;
  }
  for (; it != tenant_runs_.end() && it->first < end; ++it) {
    const auto [run_pages, owner] = it->second;
    if (it->first + run_pages <= first_slot || owner == tenant || owner == 0) {
      continue;  // Before the range, the caller's own run, or legacy space.
    }
    std::lock_guard<std::mutex> tenant_lock(tenant_mutex_);
    if (TenantState* state = TenantStateLocked(tenant)) {
      state->denials->Increment();
    }
    return FailedPreconditionError("tenant " + std::to_string(tenant) +
                                   " cannot touch slots owned by tenant " +
                                   std::to_string(owner));
  }
  return OkStatus();  // Untracked slots are legacy space.
}

Status MemoryServer::CheckSlotOwner(uint64_t slot, uint16_t tenant) const {
  if (!tenant_enforced_ || tenant == 0) {
    return OkStatus();  // Skip the control lock on the untenanted path.
  }
  std::lock_guard<std::mutex> lock(control_mutex_);
  return CheckOwnerLocked(slot, 1, tenant);
}

template <typename Body>
Status MemoryServer::Write(uint64_t slot, std::span<const uint8_t> page, Body&& body) {
  ScratchTimer store_timer(&ServerTraceScratch::store_ns);
  if (crashed()) {
    return UnavailableError(params_.name + " crashed");
  }
  if (slot >= next_slot_.load(std::memory_order_acquire)) {
    return InvalidArgumentError("slot " + std::to_string(slot) + " was never allocated");
  }
  if (page.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize bytes");
  }
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Recheck under the shard lock: Crash() raises the flag before sweeping the
  // shards, so a write that loses the race cannot resurrect a dropped page.
  if (crashed()) {
    return UnavailableError(params_.name + " crashed");
  }
  auto [it, inserted] = shard.pages.try_emplace(slot);
  RMP_RETURN_IF_ERROR(body(shard, it->second, inserted));
  stats_.pageouts_served.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_stored.fetch_add(kPageSize, std::memory_order_relaxed);
  return OkStatus();
}

template <typename Modify>
Status MemoryServer::ReadModifyWrite(uint64_t slot, std::span<const uint8_t> page,
                                     Modify&& modify) {
  return Write(slot, page, [&](Shard& shard, SlotRef& ref, bool inserted) -> Status {
    if (inserted) {
      ref.tier = SlotRef::Tier::kZero;  // An absent slot reads as all-zeroes.
    }
    RMP_ASSIGN_OR_RETURN(const uint32_t frame, MaterializeHotLocked(&shard, slot, &ref));
    ref.clock = 1;
    modify(FramePtr(shard, frame));
    MaybeDemoteLocked(&shard);
    return OkStatus();
  });
}

Status MemoryServer::Store(uint64_t slot, std::span<const uint8_t> page) {
  return Write(slot, page, [&](Shard& shard, SlotRef& ref, bool inserted) {
    const bool elide_zero =
        per_shard_hot_limit_ > 0 && params_.tier.compress && IsZeroBytes(page.data(), kPageSize);
    if (elide_zero) {
      if (!inserted) {
        ReleaseStorageLocked(&shard, &ref);
      }
      ref.tier = SlotRef::Tier::kZero;
      ref.clock = 0;
      ref.ref = 0;
      stats_.zero_elisions.fetch_add(1, std::memory_order_relaxed);
    } else if (!inserted && ref.tier == SlotRef::Tier::kHot) {
      // Overwrite in place: the frame is already ours.
      std::memcpy(FramePtr(shard, ref.ref), page.data(), kPageSize);
      ref.clock = 1;
    } else {
      if (!inserted) {
        ReleaseStorageLocked(&shard, &ref);
      }
      const uint32_t frame = TakeFrameLocked(&shard);
      std::memcpy(FramePtr(shard, frame), page.data(), kPageSize);
      MakeHotLocked(&shard, slot, &ref, frame);
      MaybeDemoteLocked(&shard);
    }
    if (params_.store_service_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(params_.store_service_micros));
    }
    return OkStatus();
  });
}

Result<PageBuffer> MemoryServer::DeltaStore(uint64_t slot, std::span<const uint8_t> page) {
  PageBuffer delta;
  RMP_RETURN_IF_ERROR(ReadModifyWrite(slot, page, [&](uint8_t* stored) {
    delta.Assign(std::span<const uint8_t>(stored, kPageSize));
    delta.XorWith(page);
    std::memcpy(stored, page.data(), kPageSize);
  }));
  return delta;
}

Status MemoryServer::XorMerge(uint64_t slot, std::span<const uint8_t> delta) {
  return ReadModifyWrite(slot, delta,
                         [&](uint8_t* stored) { XorBytes(stored, delta.data(), kPageSize); });
}

Result<PageBuffer> MemoryServer::Load(uint64_t slot) const {
  PageBuffer out;
  RMP_RETURN_IF_ERROR(LoadInto(slot, out.span()));
  return out;
}

Message MemoryServer::LoadReply(const Message& request) const {
  Message reply = ReplyFor(request, ErrorCode::kOk);
  reply.payload.resize(kPageSize);
  const Status status = LoadInto(request.slot, std::span<uint8_t>(reply.payload));
  if (!status.ok()) {
    reply.status = static_cast<uint32_t>(status.code());
    reply.payload.clear();
  }
  return reply;
}

Status MemoryServer::LoadInto(uint64_t slot, std::span<uint8_t> out) const {
  assert(out.size() == kPageSize);
  ScratchTimer store_timer(&ServerTraceScratch::store_ns);
  if (crashed()) {
    return UnavailableError(params_.name + " crashed");
  }
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (crashed()) {
    return UnavailableError(params_.name + " crashed");
  }
  auto it = shard.pages.find(slot);
  if (it == shard.pages.end()) {
    return NotFoundError("slot " + std::to_string(slot) + " holds no page");
  }
  if (params_.store_service_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(params_.store_service_micros));
  }
  SlotRef& ref = it->second;
  switch (ref.tier) {
    case SlotRef::Tier::kHot:
      ref.clock = 1;
      std::memcpy(out.data(), FramePtr(shard, ref.ref), kPageSize);
      break;
    case SlotRef::Tier::kZero:
      std::memset(out.data(), 0, kPageSize);
      break;
    case SlotRef::Tier::kCold: {
      RMP_RETURN_IF_ERROR(ReadColdLocked(&shard, ref.ref, out.data()));
      const uint32_t hits = params_.tier.promote_after_hits;
      if (hits > 0) {
        if (ref.clock < 255) {
          ++ref.clock;
        }
        if (ref.clock >= hits) {
          PromoteLocked(&shard, slot, &ref, out.data());
        }
      }
      break;
    }
  }
  stats_.pageins_served.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_returned.fetch_add(kPageSize, std::memory_order_relaxed);
  return OkStatus();
}

bool MemoryServer::Holds(uint64_t slot) const {
  if (crashed()) {
    return false;
  }
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.pages.count(slot) > 0;
}

void MemoryServer::Crash() {
  // Raise the flag first: data ops recheck it under their shard lock, so any
  // store racing the sweep either completes before the shard is cleared or
  // observes the crash and fails.
  crashed_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    free_runs_.clear();
    reserved_slots_ = 0;
    next_slot_.store(0, std::memory_order_release);
    tenant_runs_.clear();
  }
  if (tenant_enforced_) {
    // Every tenant's pages died with the process; their occupancy goes too.
    std::lock_guard<std::mutex> lock(tenant_mutex_);
    for (auto& [id, state] : tenant_states_) {
      state.reserved = 0;
    }
  }
  {
    // The map died with the process: a restarted server waits for the
    // coordinator to republish before its epoch gate bites again.
    std::lock_guard<std::mutex> lock(map_mutex_);
    map_bytes_.clear();
    map_epoch_.store(0, std::memory_order_release);
  }
  for (uint32_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (uint32_t x = 0; x < shard.extents.size(); ++x) {
      if (shard.extents[x].spilled()) {
        ReleaseExtentLocked(&shard, x);  // Returns the disk run too.
      }
    }
    shard.pages.clear();
    shard.free_frames.clear();
    shard.slabs.clear();
    shard.clock_ring.clear();
    shard.next_ring_epoch = 0;
    shard.hot_count = 0;
    shard.cold_entries.clear();
    shard.cold_free.clear();
    shard.dedup.clear();
    shard.extents.clear();
    shard.extent_free.clear();
    shard.open_extent = kNoIndex;
    shard.cold_live_bytes = 0;
  }
  events_.Append(EventKind::kCrash, params_.name, "all pages lost");
  RMP_LOG(kInfo) << params_.name << " crashed, all pages lost";
}

void MemoryServer::Restart() {
  incarnation_.fetch_add(1, std::memory_order_acq_rel);
  crashed_.store(false, std::memory_order_release);
  events_.Append(EventKind::kRestart, params_.name,
                 "incarnation=" + std::to_string(incarnation()));
}

void MemoryServer::ResetStats() {
  // Every counter and gauge lives in the registry, so a registry-wide reset
  // zeroes stats() and the STATS-visible surface in one stroke — a restarted
  // incarnation must not leak the previous life's totals.
  registry_.Reset();
}

TierOccupancy MemoryServer::tier_occupancy() const {
  TierOccupancy occ;
  for (uint32_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    occ.hot_pages += shard.hot_count;
    for (const auto& [slot, ref] : shard.pages) {
      if (ref.tier == SlotRef::Tier::kCold) {
        ++occ.cold_pages;
      } else if (ref.tier == SlotRef::Tier::kZero) {
        ++occ.zero_pages;
      }
    }
    occ.unique_cold_entries += shard.cold_entries.size() - shard.cold_free.size();
    for (const Extent& x : shard.extents) {
      if (x.used <= x.dead) {
        continue;  // Empty husk or fully dead.
      }
      if (x.spilled()) {
        occ.spilled_bytes += x.used - x.dead;
      } else if (x.data != nullptr) {
        occ.cold_physical_bytes += x.used - x.dead;
      }
    }
    occ.logical_bytes += shard.pages.size() * kPageSize;
  }
  occ.physical_bytes = occ.hot_pages * kPageSize + occ.cold_physical_bytes;
  return occ;
}

std::string MemoryServer::StatsJson() const {
  registry_.GetGauge("server.capacity_pages")->Set(static_cast<int64_t>(capacity_pages()));
  registry_.GetGauge("server.free_pages")->Set(static_cast<int64_t>(free_pages()));
  registry_.GetGauge("server.live_pages")->Set(static_cast<int64_t>(live_pages()));
  registry_.GetGauge("server.incarnation")->Set(static_cast<int64_t>(incarnation()));
  registry_.GetGauge("server.advise_stop")->Set(ShouldAdviseStop() ? 1 : 0);
  const TierOccupancy occ = tier_occupancy();
  registry_.GetGauge("server.hot_pages")->Set(static_cast<int64_t>(occ.hot_pages));
  registry_.GetGauge("server.cold_pages")->Set(static_cast<int64_t>(occ.cold_pages));
  registry_.GetGauge("server.zero_pages")->Set(static_cast<int64_t>(occ.zero_pages));
  registry_.GetGauge("server.cold_unique")->Set(static_cast<int64_t>(occ.unique_cold_entries));
  registry_.GetGauge("server.cold_spilled_bytes")->Set(static_cast<int64_t>(occ.spilled_bytes));
  registry_.GetGauge("server.logical_bytes")->Set(static_cast<int64_t>(occ.logical_bytes));
  registry_.GetGauge("server.physical_bytes")->Set(static_cast<int64_t>(occ.physical_bytes));
  if (tenant_enforced_) {
    std::lock_guard<std::mutex> lock(tenant_mutex_);
    for (auto& [id, state] : tenant_states_) {
      state.reserved_gauge->Set(static_cast<int64_t>(state.reserved));
    }
  }
  return registry_.ExportJson();
}

void MemoryServer::SetNativeLoad(double fraction) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  native_load_ = std::clamp(fraction, 0.0, 1.0);
}

void MemoryServer::SetSlotDelayForTest(uint64_t slot, int64_t micros) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  if (micros <= 0) {
    slot_delays_micros_.erase(slot);
  } else {
    slot_delays_micros_[slot] = micros;
  }
  has_slot_delays_.store(!slot_delays_micros_.empty(), std::memory_order_release);
}

uint64_t MemoryServer::capacity_pages() const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  return EffectiveCapacityLocked();
}

uint64_t MemoryServer::free_pages() const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  return FreePagesLocked();
}

uint64_t MemoryServer::live_pages() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    total += shards_[i].pages.size();
  }
  return total;
}

bool MemoryServer::ShouldAdviseStop() const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  return AdviseStopLocked();
}

uint64_t MemoryServer::TenantReservedPages(uint16_t tenant) const {
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  auto it = tenant_states_.find(tenant);
  return it == tenant_states_.end() ? 0 : it->second.reserved;
}

bool MemoryServer::TenantShouldAdviseStop(uint16_t tenant) const {
  if (!tenant_enforced_ || tenant == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  auto it = tenant_states_.find(tenant);
  if (it == tenant_states_.end() || it->second.quota.memory_quota_pages == 0) {
    return false;
  }
  const TenantState& state = it->second;
  return static_cast<double>(state.reserved) >=
         state.quota.advise_stop_fraction * static_cast<double>(state.quota.memory_quota_pages);
}

ErrorCode MemoryServer::AdmitTenant(const Message& request, HistogramMetric** service_us_out) {
  // Classify into a priority lane and a token cost. Lower lanes must leave a
  // slice of the bucket untouched, so when a tenant runs hot its background
  // and pageout traffic throttles first and pageins keep landing — the same
  // ordering the scheduler's shedding uses (DESIGN.md §15).
  uint64_t cost = 0;
  int lane = 0;  // 0 = pagein (no reserve), 1 = pageout-ish, 2 = background.
  switch (request.type) {
    case MessageType::kPageIn:
      cost = 1;
      break;
    case MessageType::kPageInBatch:
      cost = std::clamp<uint64_t>(request.count, 1, kMaxBatchPages);
      break;
    case MessageType::kPageOut:
    case MessageType::kDeltaPageOut:
    case MessageType::kXorMerge:
      cost = 1;
      lane = 1;
      break;
    case MessageType::kPageOutBatch:
      cost = std::clamp<uint64_t>(request.count, 1, kMaxBatchPages);
      lane = 1;
      break;
    case MessageType::kMigrate:
      cost = 1;
      lane = 2;
      break;
    default:
      break;  // Control traffic (alloc, heartbeat, stats) is never rate-gated.
  }
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  TenantState* state = TenantStateLocked(request.tenant);
  if (state == nullptr) {
    return ErrorCode::kFailedPrecondition;
  }
  state->ops->Increment();
  if (cost > 0 && state->quota.rate_pages_per_sec > 0) {
    const TimeNs now = NowNanos();
    const uint64_t burst = state->bucket.burst();
    const uint64_t reserve = lane == 0 ? 0 : (lane == 1 ? burst / 8 : burst / 2);
    if (state->bucket.Available(now) < cost + reserve) {
      state->rate_denials->Increment();
      return ErrorCode::kResourceExhausted;
    }
    state->bucket.TakeUpTo(cost, now);
  }
  *service_us_out = state->service_us;
  return ErrorCode::kOk;
}

bool MemoryServer::CouldSleep(const Message& request) const {
  return params_.store_service_micros > 0 || disk_ != nullptr || SlotDelayMicros(request.slot) > 0;
}

int64_t MemoryServer::SlotDelayMicros(uint64_t slot) const {
  if (!has_slot_delays_.load(std::memory_order_acquire)) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(control_mutex_);
  auto it = slot_delays_micros_.find(slot);
  return it == slot_delays_micros_.end() ? 0 : it->second;
}

Message MemoryServer::Handle(const Message& request) {
  // Run to completion (DESIGN.md §13): on a transport loop thread, a request
  // that could sleep is handed back untouched — before any span, admission
  // token or store access — and the transport queues it for a worker.
  InlineService& inline_service = InlineServiceFlags();
  if (inline_service.active && CouldSleep(request)) {
    inline_service.declined = true;
    return Message();
  }
  // Trace shim (DESIGN.md §17). Requests without a trace id — sampled-out
  // operations, tracing off — pay exactly one test and skip the timing.
  const uint32_t trace_id = request.trace_id;
  if (trace_id == 0) {
    return Serve(request);
  }
  // Traced request: time the handler wall-to-wall and let the store path
  // accumulate its share into the per-thread scratch; the transport worker
  // already deposited the scheduler queue delay there (0 for in-proc calls).
  ServerTraceScratch& scratch = ServerScratch();
  const int64_t queue_ns = scratch.queue_ns;
  scratch.queue_ns = 0;
  scratch.store_ns = 0;
  scratch.disk_ns = 0;
  scratch.active = true;
  const TimeNs t0 = NowNanos();
  Message reply = Serve(request);
  const TimeNs t1 = NowNanos();
  scratch.active = false;
  if (queue_ns > 0) {
    spans_.Record(trace_id, TraceStage::kServerQueue, t0 - queue_ns, queue_ns);
  }
  spans_.Record(trace_id, TraceStage::kServerService, t0, t1 - t0);
  // Store/disk are sub-spans of service (same start anchor): the breakdown
  // reports how much of the service time the store path accounts for.
  if (scratch.store_ns > 0) {
    spans_.Record(trace_id, TraceStage::kServerStore, t0, scratch.store_ns);
  }
  if (scratch.disk_ns > 0) {
    spans_.Record(trace_id, TraceStage::kServerDisk, t0, scratch.disk_ns);
  }
  return reply;
}

Message MemoryServer::Serve(const Message& request) {
  const TimeNs t0 = tenant_enforced_ ? NowNanos() : 0;
  HistogramMetric* service_us = nullptr;
  Message reply;
  if (Gate(request, &reply, &service_us)) {
    reply = Dispatch(request);
  }
  if (tenant_enforced_) {
    reply.tenant = request.tenant;  // Replies echo the tenant for attribution.
    if (service_us != nullptr) {
      service_us->Observe(static_cast<double>(NowNanos() - t0) / 1e3);
    }
  }
  return reply;
}

bool MemoryServer::Gate(const Message& request, Message* denial,
                        HistogramMetric** service_us) {
  if (tenant_enforced_ && request.tenant != 0) {
    const ErrorCode admitted = AdmitTenant(request, service_us);
    if (admitted != ErrorCode::kOk) {
      events_.Append(EventKind::kTenantShed, params_.name,
                     "tenant=" + std::to_string(request.tenant) + " op=" +
                         std::string(MessageTypeName(request.type)) + " shed");
      if (admitted == ErrorCode::kFailedPrecondition) {
        // An unknown tenant under strict policy: the catch-all error reply.
        *denial = MakeErrorReply(request.request_id, admitted);
        return false;
      }
      // A rate denial keeps the op's shape. Pageout-shaped ones carry
      // ADVISE_STOP: an over-rate tenant should back off exactly like one
      // paging against a full server.
      *denial = ReplyFor(request, admitted);
      if (denial->type == MessageType::kPageOutAck ||
          denial->type == MessageType::kPageOutBatchAck) {
        denial->flags = kFlagAdviseStop;
      }
      return false;
    }
  }
  if (const int64_t delay_micros = SlotDelayMicros(request.slot); delay_micros > 0) {
    // Sleep outside any lock: a stalled slot must not stall the others.
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros));
  }
  // Epoch gate (DESIGN.md §16): a data op stamped with an epoch strictly
  // older than the map in force here was routed by a placement the cluster
  // has since abandoned — deny it before it can land a page on the wrong
  // owner. Epoch 0 (a client that adopted no map) passes: the gate only
  // bites clients that opted into the map protocol. The denial carries the
  // current epoch, so the client learns it before it even re-queries the
  // map, and never ADVISE_STOP: the client is not overloading anyone.
  const uint64_t epoch_now = map_epoch_.load(std::memory_order_acquire);
  if (request.epoch != 0 && request.epoch < epoch_now && EpochGated(request.type)) {
    stats_.stale_epoch_rejections.fetch_add(1, std::memory_order_relaxed);
    events_.Append(EventKind::kStaleEpoch, params_.name,
                   "op=" + std::string(MessageTypeName(request.type)) + " stamped=" +
                       std::to_string(request.epoch) + " current=" + std::to_string(epoch_now));
    *denial = ReplyFor(request, ErrorCode::kStaleEpoch);
    denial->epoch = epoch_now;
    return false;
  }
  // A cross-tenant op must not even read the page, let alone change it.
  if (OwnerGated(request.type)) {
    const Status owner = CheckSlotOwner(request.slot, request.tenant);
    if (!owner.ok()) {
      *denial = ReplyFor(request, owner.code());
      return false;
    }
  }
  return true;
}

Message MemoryServer::ServeBatch(const Message& request) {
  auto count = ValidateBatch(request);
  if (!count.ok()) {
    return MakeErrorReply(request.request_id, ErrorCode::kProtocol);
  }
  stats_.batch_requests.fetch_add(1, std::memory_order_relaxed);
  const bool pageout = request.type == MessageType::kPageOutBatch;
  std::vector<uint8_t> pages;
  if (!pageout) {
    pages.reserve(*count * kPageSize);
  }
  uint64_t served = 0;
  Status status = OkStatus();
  for (; served < *count; ++served) {
    const uint64_t slot = BatchSlot(request, served);
    status = CheckSlotOwner(slot, request.tenant);
    if (status.ok() && pageout) {
      status = Store(slot, BatchPage(request, served));
    } else if (status.ok()) {
      pages.resize(pages.size() + kPageSize);
      status = LoadInto(slot, std::span<uint8_t>(pages).last(kPageSize));
    }
    if (!status.ok()) {
      break;
    }
  }
  Message reply = ReplyFor(request, status.code());
  if (!status.ok()) {
    reply.aux = served;  // Index of the first failing entry.
  }
  if (pageout) {
    reply.count = served;
    if (status.ok() && (ShouldAdviseStop() || TenantShouldAdviseStop(request.tenant))) {
      reply.flags = kFlagAdviseStop;
    }
  } else if (status.ok()) {
    reply.count = served;
    reply.payload = std::move(pages);
  }
  return reply;
}

Message MemoryServer::Dispatch(const Message& request) {
  switch (request.type) {
    case MessageType::kAllocRequest: {
      auto slot = Allocate(request.count, request.tenant);
      Message reply = ReplyFor(request, slot.status().code());
      if (slot.ok()) {
        reply.slot = *slot;
        reply.count = request.count;
      }
      return reply;
    }
    case MessageType::kFreeRequest:
      return ReplyFor(request, Free(request.slot, request.count, request.tenant).code());
    case MessageType::kPageOut: {
      const Status status = Store(request.slot, std::span<const uint8_t>(request.payload));
      Message reply = ReplyFor(request, status.code());
      // Per-tenant backpressure rides the same bit: a tenant near its own
      // quota sees ADVISE_STOP even when the server as a whole has room.
      if (status.ok() && (ShouldAdviseStop() || TenantShouldAdviseStop(request.tenant))) {
        reply.flags = kFlagAdviseStop;
      }
      return reply;
    }
    case MessageType::kPageIn:
      return LoadReply(request);
    case MessageType::kPageOutBatch:
    case MessageType::kPageInBatch:
      return ServeBatch(request);
    case MessageType::kDeltaPageOut:
      return PageReply(request, DeltaStore(request.slot, std::span<const uint8_t>(request.payload)));
    case MessageType::kXorMerge:
      return ReplyFor(request,
                      XorMerge(request.slot, std::span<const uint8_t>(request.payload)).code());
    case MessageType::kMigrate: {
      // MIGRATE returns the page and frees its slot in one operation (the
      // read half of the §2.1 drain path). LoadInto counts the pagein; the free
      // makes the drained server's donated memory reusable at once.
      Message reply = LoadReply(request);
      if (reply.status_code() == ErrorCode::kOk) {
        const Status freed = Free(request.slot, 1, request.tenant);
        if (!freed.ok()) {
          return ReplyFor(request, freed.code());
        }
        stats_.migrations_served.fetch_add(1, std::memory_order_relaxed);
      }
      return reply;
    }
    case MessageType::kLoadQuery: {
      std::lock_guard<std::mutex> lock(control_mutex_);
      return MakeLoadReport(request.request_id, FreePagesLocked(), EffectiveCapacityLocked(),
                            AdviseStopLocked());
    }
    case MessageType::kHeartbeat: {
      if (crashed()) {
        // A crashed process cannot answer; in the simulated fabric the
        // transport is disconnected too, but keep the direct API honest.
        return MakeErrorReply(request.request_id, ErrorCode::kUnavailable);
      }
      stats_.heartbeats_served.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(control_mutex_);
      return MakeHeartbeatAck(request.request_id, incarnation(), FreePagesLocked(),
                              EffectiveCapacityLocked(), AdviseStopLocked());
    }
    case MessageType::kStatsQuery: {
      if (crashed()) {
        return MakeErrorReply(request.request_id, ErrorCode::kUnavailable);
      }
      return MakeStatsReply(request.request_id, incarnation(), StatsJson());
    }
    case MessageType::kTraceDump: {
      if (crashed()) {
        return MakeErrorReply(request.request_id, ErrorCode::kUnavailable);
      }
      // Document 0: the attached tracer's ring (client-side records).
      // Document 1: this server's span ring (the stitch source).
      if (request.slot == 1) {
        return MakeTraceDumpReply(request.request_id, incarnation(), spans_.ToJson());
      }
      return MakeTraceDumpReply(request.request_id, incarnation(),
                                tracer_ != nullptr ? tracer_->ToJson() : "[]");
    }
    case MessageType::kEventsQuery: {
      if (crashed()) {
        return MakeErrorReply(request.request_id, ErrorCode::kUnavailable);
      }
      return MakeEventsReply(request.request_id, incarnation(), events_.next_seq(),
                             events_.ToJson(request.slot));
    }
    case MessageType::kMapQuery: {
      if (crashed()) {
        return MakeErrorReply(request.request_id, ErrorCode::kUnavailable);
      }
      std::lock_guard<std::mutex> lock(map_mutex_);
      const uint64_t epoch = map_epoch_.load(std::memory_order_acquire);
      if (epoch == 0) {
        return MakeMapReply(request.request_id, 0, {}, ErrorCode::kNotFound);
      }
      return MakeMapReply(request.request_id, epoch, map_bytes_, ErrorCode::kOk);
    }
    case MessageType::kMapPublish: {
      if (crashed()) {
        return MakeErrorReply(request.request_id, ErrorCode::kUnavailable);
      }
      auto map = ClusterMap::Deserialize(std::span<const uint8_t>(request.payload));
      if (!map.ok()) {
        return MakeErrorReply(request.request_id, ErrorCode::kProtocol);
      }
      if (request.epoch != map->epoch()) {
        // The header epoch exists so receivers can order frames without
        // decoding; a frame whose two epochs disagree is lying somewhere.
        return MakeErrorReply(request.request_id, ErrorCode::kProtocol);
      }
      std::lock_guard<std::mutex> lock(map_mutex_);
      const uint64_t current = map_epoch_.load(std::memory_order_acquire);
      if (map->epoch() < current) {
        stats_.stale_epoch_rejections.fetch_add(1, std::memory_order_relaxed);
        events_.Append(EventKind::kStaleEpoch, params_.name,
                       "MAP_PUBLISH epoch=" + std::to_string(map->epoch()) +
                           " refused, current=" + std::to_string(current));
        return MakeMapPublishAck(request.request_id, current, ErrorCode::kStaleEpoch);
      }
      map_bytes_.assign(request.payload.begin(), request.payload.end());
      map_epoch_.store(map->epoch(), std::memory_order_release);
      stats_.map_publishes.fetch_add(1, std::memory_order_relaxed);
      events_.Append(EventKind::kEpoch, params_.name,
                     "adopted map epoch=" + std::to_string(map->epoch()));
      return MakeMapPublishAck(request.request_id, map->epoch(), ErrorCode::kOk);
    }
    case MessageType::kShutdown:
      return ReplyFor(request, ErrorCode::kOk);
    default:
      return MakeErrorReply(request.request_id, ErrorCode::kProtocol);
  }
}

}  // namespace rmp
