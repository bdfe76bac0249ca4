// PagedVm: the virtual-memory substrate that stands in for the DEC OSF/1
// kernel above the block device.
//
// An application owns a `virtual_pages`-page address space but only
// `physical_frames` frames of real memory (the paper's DEC Alpha had 32 MB,
// ~18 MB of it available to the application). A miss evicts a victim
// (writing it to the PagingBackend if dirty — a *pageout*) and, if the
// faulting page has been paged out before, reads it back (a *pagein*).
// First-touch pages are zero-filled without device traffic, exactly like a
// real VM.
//
// Translation is a flat page table (vpage -> frame) plus a two-entry cache of
// the last two translations, which stands in for the MMU's TLB. Each entry
// carries its frame's byte pointer and dirty-flag pointer (`frames_` is sized
// once and never moves), so a Read or Write whose span lies inside a cached
// page is served inline without touching `frames_`: it records which entry
// hit in `mru_`, bumps one counter (`cached_hits_`), sets the dirty flag on a
// write and copies. `stats()` folds that counter into both `accesses` and
// `hits`, so the stats are exact at every read. Entries never move on a hit:
// a swap of two entries made GCC copy them in misaligned pieces, and the next
// hit's loads stalled on store forwarding. VmArray forces its Get and Set
// inline (vm_array.h), so this hit path runs inside a kernel's own loop.
//
// A hit changes no policy state. The policy was last told of entry
// `policy_mru_`; when `mru_` differs, the policy owes one reorder, replayed
// as OnAccess(entry mru_) before the policy is next consulted (any
// Translate, hence any fault, InvalidateAll or SetAccessObserver). That keeps
// every policy exact: between two slow-path calls only the two cached pages
// are referenced, and both already sit at the front of the LRU list, so the
// one reorder owed is "the more recent of the pair goes to the front"; under
// CLOCK both reference bits are already set, and only a sweep inside a fault
// clears one; FIFO ignores references. Every fault clears both entries (the
// victim may be one of them). Neither entry is filled while an observer is
// attached, so an observer sees every access.
//
// Two access layers:
//   Touch(vpage, write)    — page-granular, used by the workload generators.
//   Read/Write(addr, span) — byte-granular over real frame contents, used by
//                            the data-mode kernels and integrity tests.

#ifndef SRC_VM_PAGED_VM_H_
#define SRC_VM_PAGED_VM_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/paging_backend.h"
#include "src/util/bytes.h"
#include "src/vm/replacement.h"

namespace rmp {

struct VmParams {
  uint64_t virtual_pages = 1024;
  uint32_t physical_frames = 256;
  ReplacementKind replacement = ReplacementKind::kLru;
};

struct VmStats {
  int64_t accesses = 0;
  int64_t hits = 0;
  int64_t faults = 0;       // Misses (zero-fill + pagein).
  int64_t zero_fills = 0;   // First-touch materializations.
  int64_t pageins = 0;      // Faults served by the backend.
  int64_t pageouts = 0;     // Dirty evictions written to the backend.
  int64_t clean_evictions = 0;
};

class PagedVm {
 public:
  // `backend` must outlive the VM.
  PagedVm(const VmParams& params, PagingBackend* backend);

  // Touches one virtual page; on a miss, runs the fault path against the
  // backend starting at *now and advances *now to the completion time.
  Status Touch(TimeNs* now, uint64_t vpage, bool write);

  // Byte-granular access across page boundaries (data mode).
  Status Read(TimeNs* now, uint64_t addr, std::span<uint8_t> out) {
    if (uint8_t* bytes = CachedBytes(addr, out.size(), /*write=*/false)) {
      std::memcpy(out.data(), bytes, out.size());
      return OkStatus();
    }
    return ReadSlow(now, addr, out);
  }
  Status Write(TimeNs* now, uint64_t addr, std::span<const uint8_t> in) {
    if (uint8_t* bytes = CachedBytes(addr, in.size(), /*write=*/true)) {
      std::memcpy(bytes, in.data(), in.size());
      return OkStatus();
    }
    return WriteSlow(now, addr, in);
  }

  // Flushes every dirty resident page to the backend (app exit / checkpoint).
  Status FlushDirty(TimeNs* now);

  // Drops every resident page WITHOUT writeback (dirty state is lost unless
  // flushed first). Resets residency, not the backend. For test scenarios.
  void InvalidateAll();

  // Observer invoked on every access (each Touch, and each page a Read or
  // Write covers) before the fault path; used by the trace recorder. Pass
  // nullptr to detach.
  using AccessObserver = std::function<void(uint64_t vpage, bool write)>;
  void SetAccessObserver(AccessObserver observer);

  // Folds the inline hits counted since the last read into the stats.
  const VmStats& stats() const {
    stats_.accesses += cached_hits_;
    stats_.hits += cached_hits_;
    cached_hits_ = 0;
    return stats_;
  }
  uint64_t resident_pages() const { return params_.physical_frames - free_frames_.size(); }
  uint32_t physical_frames() const { return params_.physical_frames; }
  uint64_t virtual_pages() const { return params_.virtual_pages; }
  bool IsResident(uint64_t vpage) const {
    return vpage < page_table_.size() && page_table_[vpage] != kNoFrame;
  }
  bool IsDirty(uint64_t vpage) const {
    return IsResident(vpage) && frames_[page_table_[vpage]].dirty;
  }

 private:
  struct Frame {
    PageBuffer data;
    uint64_t vpage = 0;
    bool dirty = false;
    bool live = false;
  };

  static constexpr uint32_t kNoFrame = UINT32_MAX;
  static constexpr uint64_t kNoPage = UINT64_MAX;

  // `bytes` and `dirty` point into frames_[frame]; every fault clears both
  // entries, so they never outlive the page's residency.
  struct CacheEntry {
    uint64_t vpage = kNoPage;
    uint8_t* bytes = nullptr;
    bool* dirty = nullptr;
    uint32_t frame = kNoFrame;
  };

  // When [addr, addr + size) is non-empty and inside a cached page, counts a
  // hit on it, makes it the most recent entry and returns the frame bytes at
  // `addr`; otherwise nullptr.
  uint8_t* CachedBytes(uint64_t addr, size_t size, bool write) {
    const uint64_t vpage = addr / kPageSize;
    const uint64_t in_page = addr % kPageSize;
    if (size == 0 || in_page + size > kPageSize) {
      return nullptr;
    }
    uint8_t hit;
    if (vpage == cache_[0].vpage) {
      hit = 0;
    } else if (vpage == cache_[1].vpage) {
      hit = 1;
    } else {
      return nullptr;
    }
    mru_ = hit;
    ++cached_hits_;
    const CacheEntry& entry = cache_[hit];
    if (write) {
      *entry.dirty = true;
    }
    return entry.bytes + in_page;
  }

  // Tells the policy the reorder the cache owes it, if any. Translate,
  // InvalidateAll and SetAccessObserver call it before they touch the policy.
  void ReplayOrder();

  // Replays the owed reorder and empties the cache.
  void ForgetCache();

  Status ReadSlow(TimeNs* now, uint64_t addr, std::span<uint8_t> out);
  Status WriteSlow(TimeNs* now, uint64_t addr, std::span<const uint8_t> in);

  // One access to `vpage`: notifies the observer, counts it, faults the page
  // in on a miss and marks it dirty on a write. Returns its frame.
  Result<uint32_t> Translate(TimeNs* now, uint64_t vpage, bool write);

  // Makes `vpage` resident; returns its frame index.
  Result<uint32_t> Fault(TimeNs* now, uint64_t vpage);

  Result<uint32_t> TakeFreeFrame(TimeNs* now);

  VmParams params_;
  PagingBackend* backend_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;
  std::vector<uint32_t> page_table_;  // vpage -> frame, or kNoFrame.
  std::vector<bool> ever_paged_out_;  // vpage -> backend holds it.
  CacheEntry cache_[2];
  uint8_t mru_ = 0;         // The entry of the most recent access.
  uint8_t policy_mru_ = 0;  // The entry the policy last saw accessed.
  AccessObserver observer_;
  // Mutable so that stats() can fold cached_hits_ in.
  mutable VmStats stats_;
  mutable int64_t cached_hits_ = 0;  // Inline hits not yet in stats_.
};

}  // namespace rmp

#endif  // SRC_VM_PAGED_VM_H_
