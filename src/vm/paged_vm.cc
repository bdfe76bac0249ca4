#include "src/vm/paged_vm.h"

#include <algorithm>
#include <cassert>

namespace rmp {

PagedVm::PagedVm(const VmParams& params, PagingBackend* backend)
    : params_(params),
      backend_(backend),
      policy_(MakeReplacementPolicy(params.replacement, params.physical_frames)),
      frames_(params.physical_frames),
      page_table_(params.virtual_pages, kNoFrame),
      ever_paged_out_(params.virtual_pages, false) {
  assert(backend_ != nullptr);
  assert(params_.physical_frames > 0);
  free_frames_.reserve(params_.physical_frames);
  for (uint32_t f = 0; f < params_.physical_frames; ++f) {
    free_frames_.push_back(params_.physical_frames - 1 - f);  // Pop in order 0,1,2...
  }
}

Result<uint32_t> PagedVm::TakeFreeFrame(TimeNs* now) {
  if (!free_frames_.empty()) {
    const uint32_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  const uint32_t victim = policy_->Victim();
  Frame& slot = frames_[victim];
  assert(slot.live);
  if (slot.dirty) {
    auto done = backend_->PageOut(*now, slot.vpage, slot.data.span());
    if (!done.ok()) {
      return done.status();
    }
    *now = *done;
    ever_paged_out_[slot.vpage] = true;
    ++stats_.pageouts;
  } else {
    ++stats_.clean_evictions;
  }
  policy_->OnEvict(victim);
  page_table_[slot.vpage] = kNoFrame;
  slot.live = false;
  slot.dirty = false;
  return victim;
}

Result<uint32_t> PagedVm::Fault(TimeNs* now, uint64_t vpage) {
  ++stats_.faults;
  cached_vpage_ = kNoPage;  // The victim may be the cached page.
  RMP_ASSIGN_OR_RETURN(const uint32_t frame, TakeFreeFrame(now));
  Frame& slot = frames_[frame];
  if (ever_paged_out_[vpage]) {
    auto done = backend_->PageIn(*now, vpage, slot.data.span());
    if (!done.ok()) {
      free_frames_.push_back(frame);  // The victim is gone; keep its frame.
      return done.status();
    }
    *now = *done;
    ++stats_.pageins;
  } else {
    slot.data.Clear();
    ++stats_.zero_fills;
  }
  slot.vpage = vpage;
  slot.dirty = false;
  slot.live = true;
  page_table_[vpage] = frame;
  policy_->OnInsert(frame);
  return frame;
}

Result<uint32_t> PagedVm::Translate(TimeNs* now, uint64_t vpage, bool write) {
  if (vpage >= params_.virtual_pages) {
    return InvalidArgumentError("virtual page out of range");
  }
  if (observer_) {
    observer_(vpage, write);
  }
  ++stats_.accesses;
  uint32_t frame = page_table_[vpage];
  if (frame != kNoFrame) {
    ++stats_.hits;
    policy_->OnAccess(frame);
  } else {
    RMP_ASSIGN_OR_RETURN(frame, Fault(now, vpage));
  }
  if (write) {
    frames_[frame].dirty = true;
  }
  if (!observer_) {
    cached_vpage_ = vpage;
    cached_frame_ = frame;
  }
  return frame;
}

Status PagedVm::Touch(TimeNs* now, uint64_t vpage, bool write) {
  return Translate(now, vpage, write).status();
}

Status PagedVm::ReadSlow(TimeNs* now, uint64_t addr, std::span<uint8_t> out) {
  uint64_t offset = 0;
  while (offset < out.size()) {
    const uint64_t in_page = (addr + offset) % kPageSize;
    const uint64_t chunk = std::min<uint64_t>(out.size() - offset, kPageSize - in_page);
    RMP_ASSIGN_OR_RETURN(const uint32_t frame, Translate(now, (addr + offset) / kPageSize, false));
    std::copy_n(frames_[frame].data.data() + in_page, chunk, out.data() + offset);
    offset += chunk;
  }
  return OkStatus();
}

Status PagedVm::WriteSlow(TimeNs* now, uint64_t addr, std::span<const uint8_t> in) {
  uint64_t offset = 0;
  while (offset < in.size()) {
    const uint64_t in_page = (addr + offset) % kPageSize;
    const uint64_t chunk = std::min<uint64_t>(in.size() - offset, kPageSize - in_page);
    RMP_ASSIGN_OR_RETURN(const uint32_t frame, Translate(now, (addr + offset) / kPageSize, true));
    std::copy_n(in.data() + offset, chunk, frames_[frame].data.data() + in_page);
    offset += chunk;
  }
  return OkStatus();
}

Status PagedVm::FlushDirty(TimeNs* now) {
  // Deterministic order: ascending vpage.
  for (uint64_t vpage = 0; vpage < page_table_.size(); ++vpage) {
    const uint32_t frame = page_table_[vpage];
    if (frame == kNoFrame || !frames_[frame].dirty) {
      continue;
    }
    Frame& slot = frames_[frame];
    auto done = backend_->PageOut(*now, vpage, slot.data.span());
    if (!done.ok()) {
      return done.status();
    }
    *now = *done;
    ever_paged_out_[vpage] = true;
    slot.dirty = false;
    ++stats_.pageouts;
  }
  return OkStatus();
}

void PagedVm::InvalidateAll() {
  for (uint32_t f = 0; f < params_.physical_frames; ++f) {
    if (frames_[f].live) {
      policy_->OnEvict(f);
      page_table_[frames_[f].vpage] = kNoFrame;
      frames_[f].live = false;
      frames_[f].dirty = false;
    }
  }
  cached_vpage_ = kNoPage;
  free_frames_.clear();
  for (uint32_t f = 0; f < params_.physical_frames; ++f) {
    free_frames_.push_back(params_.physical_frames - 1 - f);
  }
}

}  // namespace rmp
