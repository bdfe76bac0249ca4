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
// Translation is a flat page table (vpage -> frame) plus a one-entry cache of
// the last translation, which stands in for the MMU's TLB. A Read or Write
// whose span lies inside the cached page is served inline: it counts the
// access and the hit, marks the frame dirty on a write and copies. Skipping
// the policy there is exact, because referencing the most recent page again
// changes no policy state (LRU: already the front; CLOCK: its bit is already
// set, and only a sweep inside a fault clears it; FIFO: ignores references).
// The cache is cleared by every fault, by InvalidateAll and by
// SetAccessObserver, and is never filled while an observer is attached, so
// an observer sees every access.
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
  void SetAccessObserver(AccessObserver observer) {
    observer_ = std::move(observer);
    cached_vpage_ = kNoPage;
  }

  const VmStats& stats() const { return stats_; }
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

  // When [addr, addr + size) is non-empty and inside the cached page, counts
  // a hit on it and returns the frame bytes at `addr`; otherwise nullptr.
  uint8_t* CachedBytes(uint64_t addr, size_t size, bool write) {
    const uint64_t in_page = addr % kPageSize;
    if (addr / kPageSize != cached_vpage_ || size == 0 || in_page + size > kPageSize) {
      return nullptr;
    }
    ++stats_.accesses;
    ++stats_.hits;
    Frame& slot = frames_[cached_frame_];
    if (write) {
      slot.dirty = true;
    }
    return slot.data.data() + in_page;
  }

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
  uint64_t cached_vpage_ = kNoPage;   // Last translation, if any.
  uint32_t cached_frame_ = kNoFrame;
  AccessObserver observer_;
  VmStats stats_;
};

}  // namespace rmp

#endif  // SRC_VM_PAGED_VM_H_
