#include "src/vm/paged_vm.h"

#include <gtest/gtest.h>

#include <list>
#include <tuple>
#include <unordered_map>

#include "src/core/testbed.h"
#include "src/util/rng.h"
#include "src/vm/replacement.h"

namespace rmp {
namespace {

// A tiny deterministic backend recording traffic (no timing, no network).
class RecordingBackend final : public PagingBackend {
 public:
  enum class Op { kPageOut, kPageIn };

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override {
    store_[page_id].Assign(data);
    ++stats_.pageouts;
    order_.push_back(page_id);
    traffic_.emplace_back(Op::kPageOut, page_id);
    return now;
  }
  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override {
    if (std::exchange(fail_next_pagein_, false)) {
      return UnavailableError("injected pagein failure");
    }
    auto it = store_.find(page_id);
    if (it == store_.end()) {
      return NotFoundError("never stored");
    }
    std::copy(it->second.span().begin(), it->second.span().end(), out.begin());
    ++stats_.pageins;
    traffic_.emplace_back(Op::kPageIn, page_id);
    return now;
  }
  const BackendStats& stats() const override { return stats_; }
  std::string Name() const override { return "recording"; }

  const std::vector<uint64_t>& pageout_order() const { return order_; }
  // Every served pageout and pagein, in order.
  const std::vector<std::pair<Op, uint64_t>>& traffic() const { return traffic_; }
  bool Holds(uint64_t page_id) const { return store_.count(page_id) > 0; }
  void FailNextPageIn() { fail_next_pagein_ = true; }

 private:
  bool fail_next_pagein_ = false;
  std::unordered_map<uint64_t, PageBuffer> store_;
  std::vector<uint64_t> order_;
  std::vector<std::pair<Op, uint64_t>> traffic_;
  BackendStats stats_;
};

VmParams SmallVm(uint32_t frames, uint64_t virtual_pages = 64) {
  VmParams params;
  params.virtual_pages = virtual_pages;
  params.physical_frames = frames;
  return params;
}

TEST(PagedVmTest, FirstTouchesAreZeroFills) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(4), &backend);
  TimeNs now = 0;
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(vm.Touch(&now, p, false).ok());
  }
  EXPECT_EQ(vm.stats().zero_fills, 4);
  EXPECT_EQ(vm.stats().pageins, 0);
  EXPECT_EQ(vm.stats().pageouts, 0);
  EXPECT_EQ(vm.resident_pages(), 4u);
}

TEST(PagedVmTest, CleanEvictionsCostNothing) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(2), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, false).ok());
  ASSERT_TRUE(vm.Touch(&now, 1, false).ok());
  ASSERT_TRUE(vm.Touch(&now, 2, false).ok());  // Evicts clean page 0.
  EXPECT_EQ(vm.stats().pageouts, 0);
  EXPECT_EQ(vm.stats().clean_evictions, 1);
  EXPECT_FALSE(vm.IsResident(0));
}

TEST(PagedVmTest, DirtyEvictionPagesOut) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(2), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 1, false).ok());
  ASSERT_TRUE(vm.Touch(&now, 2, false).ok());  // Evicts dirty page 0.
  EXPECT_EQ(vm.stats().pageouts, 1);
  EXPECT_TRUE(backend.Holds(0));
}

TEST(PagedVmTest, RefaultPagesBackIn) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(2), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 1, false).ok());
  ASSERT_TRUE(vm.Touch(&now, 2, false).ok());  // Page 0 evicted to backend.
  ASSERT_TRUE(vm.Touch(&now, 0, false).ok());  // Fault it back.
  EXPECT_EQ(vm.stats().pageins, 1);
  EXPECT_TRUE(vm.IsResident(0));
}

TEST(PagedVmTest, LruEvictsLeastRecentlyUsed) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(3), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 1, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 2, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 0, false).ok());  // 0 is now MRU; 1 is LRU.
  ASSERT_TRUE(vm.Touch(&now, 3, true).ok());   // Evicts 1.
  ASSERT_EQ(backend.pageout_order().size(), 1u);
  EXPECT_EQ(backend.pageout_order()[0], 1u);
}

TEST(PagedVmTest, DataSurvivesEvictionRoundTrip) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(2), &backend);
  TimeNs now = 0;
  const std::vector<uint8_t> payload = {9, 8, 7, 6, 5};
  ASSERT_TRUE(vm.Write(&now, 0, std::span<const uint8_t>(payload)).ok());
  // Force page 0 out.
  ASSERT_TRUE(vm.Touch(&now, 1, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 2, true).ok());
  ASSERT_FALSE(vm.IsResident(0));
  std::vector<uint8_t> readback(payload.size());
  ASSERT_TRUE(vm.Read(&now, 0, std::span<uint8_t>(readback)).ok());
  EXPECT_EQ(readback, payload);
}

TEST(PagedVmTest, ReadWriteSpanPageBoundary) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(4), &backend);
  TimeNs now = 0;
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  const uint64_t addr = kPageSize - 50;  // Straddles pages 0 and 1.
  ASSERT_TRUE(vm.Write(&now, addr, std::span<const uint8_t>(data)).ok());
  std::vector<uint8_t> readback(100);
  ASSERT_TRUE(vm.Read(&now, addr, std::span<uint8_t>(readback)).ok());
  EXPECT_EQ(readback, data);
  EXPECT_TRUE(vm.IsDirty(0));
  EXPECT_TRUE(vm.IsDirty(1));
}

TEST(PagedVmTest, OutOfRangeTouchRejected) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(2, /*virtual_pages=*/4), &backend);
  TimeNs now = 0;
  EXPECT_EQ(vm.Touch(&now, 4, false).code(), ErrorCode::kInvalidArgument);
}

TEST(PagedVmTest, FlushDirtyWritesAllDirtyPages) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(4), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, true).ok());
  ASSERT_TRUE(vm.Touch(&now, 1, false).ok());
  ASSERT_TRUE(vm.Touch(&now, 2, true).ok());
  ASSERT_TRUE(vm.FlushDirty(&now).ok());
  EXPECT_EQ(vm.stats().pageouts, 2);
  EXPECT_FALSE(vm.IsDirty(0));
  // Flushing twice writes nothing new.
  ASSERT_TRUE(vm.FlushDirty(&now).ok());
  EXPECT_EQ(vm.stats().pageouts, 2);
}

TEST(PagedVmTest, InvalidateAllDropsResidency) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(4), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, true).ok());
  ASSERT_TRUE(vm.FlushDirty(&now).ok());
  vm.InvalidateAll();
  EXPECT_EQ(vm.resident_pages(), 0u);
  // Page 0 was flushed, so it can fault back in with its data.
  ASSERT_TRUE(vm.Touch(&now, 0, false).ok());
  EXPECT_EQ(vm.stats().pageins, 1);
}

TEST(PagedVmTest, HitCountingIsAccurate) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(2), &backend);
  TimeNs now = 0;
  ASSERT_TRUE(vm.Touch(&now, 0, false).ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(vm.Touch(&now, 0, false).ok());
  }
  EXPECT_EQ(vm.stats().accesses, 10);
  EXPECT_EQ(vm.stats().hits, 9);
  EXPECT_EQ(vm.stats().faults, 1);
}

// A pagein that fails after its victim was evicted must hand the victim's
// frame back; otherwise every failed pagein shrinks memory by one frame.
TEST(PagedVmTest, FailedPageInKeepsItsFrame) {
  for (const ReplacementKind kind :
       {ReplacementKind::kLru, ReplacementKind::kClock, ReplacementKind::kFifo}) {
    SCOPED_TRACE(std::string(ReplacementKindName(kind)));
    RecordingBackend backend;
    VmParams params = SmallVm(2);
    params.replacement = kind;
    PagedVm vm(params, &backend);
    TimeNs now = 0;
    for (uint64_t p = 0; p < 3; ++p) {
      ASSERT_TRUE(vm.Touch(&now, p, true).ok());  // Page 0 is paged out.
    }
    backend.FailNextPageIn();
    EXPECT_EQ(vm.Touch(&now, 0, false).code(), ErrorCode::kUnavailable);
    for (uint64_t p = 3; p < 8; ++p) {
      ASSERT_TRUE(vm.Touch(&now, p, true).ok());
    }
    EXPECT_EQ(vm.resident_pages(), 2u);
    ASSERT_TRUE(vm.Touch(&now, 0, false).ok());
    EXPECT_EQ(vm.resident_pages(), 2u);
    EXPECT_TRUE(vm.IsResident(0));
  }
}

// An observer attached while a page is cached still sees every access to it.
TEST(PagedVmTest, ObserverSeesRepeatedHitsOnOnePage) {
  RecordingBackend backend;
  PagedVm vm(SmallVm(4), &backend);
  TimeNs now = 0;
  uint64_t value = 7;
  auto bytes = std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value), sizeof(value));
  ASSERT_TRUE(vm.Write(&now, 16, bytes).ok());  // Page 0 is now cached.
  std::vector<std::pair<uint64_t, bool>> seen;
  vm.SetAccessObserver([&seen](uint64_t vpage, bool write) { seen.emplace_back(vpage, write); });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(vm.Read(&now, 16, bytes).ok());
    ASSERT_TRUE(vm.Write(&now, 24, bytes).ok());
  }
  vm.SetAccessObserver(nullptr);
  ASSERT_TRUE(vm.Read(&now, 16, bytes).ok());
  ASSERT_EQ(seen.size(), 10u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], std::make_pair(uint64_t{0}, i % 2 == 1));
  }
  EXPECT_EQ(vm.stats().accesses, 12);
  EXPECT_EQ(vm.stats().hits, 11);
}

// Sweep the replacement policies over a cyclic access pattern and confirm
// each produces a sane fault count (property-style).
class ReplacementSweepTest : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(ReplacementSweepTest, CyclicPatternFaultsBounded) {
  RecordingBackend backend;
  VmParams params = SmallVm(8, 16);
  params.replacement = GetParam();
  PagedVm vm(params, &backend);
  TimeNs now = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (uint64_t p = 0; p < 16; ++p) {
      ASSERT_TRUE(vm.Touch(&now, p, true).ok());
    }
  }
  // Cyclic over 16 pages with 8 frames: every policy faults heavily but
  // never more than once per access.
  EXPECT_GE(vm.stats().faults, 16);
  EXPECT_LE(vm.stats().faults, vm.stats().accesses);
  // All data still retrievable.
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_TRUE(vm.Touch(&now, p, false).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementSweepTest,
                         ::testing::Values(ReplacementKind::kLru, ReplacementKind::kClock,
                                           ReplacementKind::kFifo));

// --- Replacement policy units ------------------------------------------------

TEST(ReplacementTest, LruVictimOrder) {
  LruPolicy lru(4);
  lru.OnInsert(1);
  lru.OnInsert(2);
  lru.OnInsert(3);
  EXPECT_EQ(lru.Victim(), 1u);
  lru.OnAccess(1);
  EXPECT_EQ(lru.Victim(), 2u);
  lru.OnEvict(2);
  EXPECT_EQ(lru.Victim(), 3u);
}

TEST(ReplacementTest, ClockGivesSecondChance) {
  ClockPolicy clock(4);
  clock.OnInsert(1);
  clock.OnInsert(2);
  clock.OnInsert(3);
  // All referenced: the hand clears bits on the first lap, then takes 1.
  EXPECT_EQ(clock.Victim(), 1u);
  clock.OnEvict(1);
  clock.OnAccess(2);  // 2 referenced again.
  EXPECT_EQ(clock.Victim(), 3u);
}

TEST(ReplacementTest, ClockReusesDeadSlots) {
  ClockPolicy clock(4);
  clock.OnInsert(1);
  clock.OnEvict(1);
  clock.OnInsert(2);  // The hand skips frame 1's dead slot.
  EXPECT_EQ(clock.Victim(), 2u);
  clock.OnEvict(2);
  clock.OnInsert(1);  // Frame 1's slot is live again.
  EXPECT_EQ(clock.Victim(), 1u);
}

TEST(ReplacementTest, FifoIgnoresAccesses) {
  FifoPolicy fifo(4);
  fifo.OnInsert(1);
  fifo.OnInsert(2);
  fifo.OnAccess(1);
  EXPECT_EQ(fifo.Victim(), 1u);
}

TEST(ReplacementTest, FactoryProducesAllKinds) {
  EXPECT_EQ(MakeReplacementPolicy(ReplacementKind::kLru, 4)->Name(), "LRU");
  EXPECT_EQ(MakeReplacementPolicy(ReplacementKind::kClock, 4)->Name(), "CLOCK");
  EXPECT_EQ(MakeReplacementPolicy(ReplacementKind::kFifo, 4)->Name(), "FIFO");
}

TEST(ReplacementTest, LruAccessToFrontChangesNothing) {
  LruPolicy lru(3);
  lru.OnInsert(0);
  lru.OnInsert(1);
  lru.OnAccess(1);  // Already the front.
  EXPECT_EQ(lru.Victim(), 0u);
  lru.OnAccess(0);
  EXPECT_EQ(lru.Victim(), 1u);
  lru.OnEvict(1);
  lru.OnEvict(1);  // Evicting an absent frame is a no-op.
  EXPECT_EQ(lru.Victim(), 0u);
}

// --- Differential test against the hash-map VM ------------------------------
//
// The reference VM below is PagedVm as it was before the flat page table and
// the translation cache: an unordered_map from vpage to frame, one policy call
// per access, and policies built from std::list and unordered_map. Its only
// change is the fix that returns a failed pagein's frame to the free list.
// Random streams, with injected pagein failures, must give both VMs equal
// results, stats, pageout order, observer streams and read-back bytes.

class RefLru final : public ReplacementPolicy {
 public:
  void OnInsert(uint32_t frame) override {
    recency_.push_front(frame);
    where_[frame] = recency_.begin();
  }
  void OnAccess(uint32_t frame) override {
    recency_.splice(recency_.begin(), recency_, where_.at(frame));
  }
  void OnEvict(uint32_t frame) override {
    auto it = where_.find(frame);
    if (it != where_.end()) {
      recency_.erase(it->second);
      where_.erase(it);
    }
  }
  uint32_t Victim() override { return recency_.back(); }
  std::string Name() const override { return "REF-LRU"; }

 private:
  std::list<uint32_t> recency_;  // Front = most recent.
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> where_;
};

class RefClock final : public ReplacementPolicy {
 public:
  void OnInsert(uint32_t frame) override {
    for (size_t i = 0; i < ring_.size(); ++i) {  // Reuse the first dead slot.
      if (!ring_[i].live) {
        ring_[i] = Slot{frame, true, true};
        where_[frame] = i;
        return;
      }
    }
    ring_.push_back(Slot{frame, true, true});
    where_[frame] = ring_.size() - 1;
  }
  void OnAccess(uint32_t frame) override { ring_[where_.at(frame)].referenced = true; }
  void OnEvict(uint32_t frame) override {
    auto it = where_.find(frame);
    if (it != where_.end()) {
      ring_[it->second].live = false;
      where_.erase(it);
    }
  }
  uint32_t Victim() override {
    for (;;) {
      Slot& slot = ring_[hand_];
      hand_ = (hand_ + 1) % ring_.size();
      if (!slot.live) {
        continue;
      }
      if (slot.referenced) {
        slot.referenced = false;
        continue;
      }
      return slot.frame;
    }
  }
  std::string Name() const override { return "REF-CLOCK"; }

 private:
  struct Slot {
    uint32_t frame = 0;
    bool referenced = false;
    bool live = false;
  };
  std::vector<Slot> ring_;
  std::unordered_map<uint32_t, size_t> where_;
  size_t hand_ = 0;
};

class RefFifo final : public ReplacementPolicy {
 public:
  void OnInsert(uint32_t frame) override {
    queue_.push_back(frame);
    where_[frame] = std::prev(queue_.end());
  }
  void OnAccess(uint32_t /*frame*/) override {}
  void OnEvict(uint32_t frame) override {
    auto it = where_.find(frame);
    if (it != where_.end()) {
      queue_.erase(it->second);
      where_.erase(it);
    }
  }
  uint32_t Victim() override { return queue_.front(); }
  std::string Name() const override { return "REF-FIFO"; }

 private:
  std::list<uint32_t> queue_;  // Front = oldest.
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> where_;
};

std::unique_ptr<ReplacementPolicy> MakeRefPolicy(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<RefLru>();
    case ReplacementKind::kClock:
      return std::make_unique<RefClock>();
    case ReplacementKind::kFifo:
      return std::make_unique<RefFifo>();
  }
  return nullptr;
}

class RefVm {
 public:
  RefVm(const VmParams& params, PagingBackend* backend)
      : params_(params),
        backend_(backend),
        policy_(MakeRefPolicy(params.replacement)),
        frames_(params.physical_frames),
        ever_paged_out_(params.virtual_pages, false) {
    InvalidateAll();
  }

  Status Touch(TimeNs* now, uint64_t vpage, bool write) {
    if (vpage >= params_.virtual_pages) {
      return InvalidArgumentError("virtual page out of range");
    }
    if (observer_) {
      observer_(vpage, write);
    }
    ++stats_.accesses;
    auto it = frame_of_.find(vpage);
    uint32_t frame;
    if (it != frame_of_.end()) {
      ++stats_.hits;
      frame = it->second;
      policy_->OnAccess(frame);
    } else {
      RMP_ASSIGN_OR_RETURN(frame, Fault(now, vpage));
    }
    if (write) {
      frames_[frame].dirty = true;
    }
    return OkStatus();
  }

  Status Read(TimeNs* now, uint64_t addr, std::span<uint8_t> out) {
    for (uint64_t offset = 0; offset < out.size();) {
      const uint64_t vpage = (addr + offset) / kPageSize;
      const uint64_t in_page = (addr + offset) % kPageSize;
      const uint64_t chunk = std::min<uint64_t>(out.size() - offset, kPageSize - in_page);
      RMP_RETURN_IF_ERROR(Touch(now, vpage, false));
      std::copy_n(frames_[frame_of_.at(vpage)].data.data() + in_page, chunk, out.data() + offset);
      offset += chunk;
    }
    return OkStatus();
  }

  Status Write(TimeNs* now, uint64_t addr, std::span<const uint8_t> in) {
    for (uint64_t offset = 0; offset < in.size();) {
      const uint64_t vpage = (addr + offset) / kPageSize;
      const uint64_t in_page = (addr + offset) % kPageSize;
      const uint64_t chunk = std::min<uint64_t>(in.size() - offset, kPageSize - in_page);
      RMP_RETURN_IF_ERROR(Touch(now, vpage, true));
      std::copy_n(in.data() + offset, chunk, frames_[frame_of_.at(vpage)].data.data() + in_page);
      offset += chunk;
    }
    return OkStatus();
  }

  Status FlushDirty(TimeNs* now) {
    std::vector<uint64_t> dirty;
    for (const auto& [vpage, frame] : frame_of_) {
      if (frames_[frame].dirty) {
        dirty.push_back(vpage);
      }
    }
    std::sort(dirty.begin(), dirty.end());
    for (const uint64_t vpage : dirty) {
      Frame& slot = frames_[frame_of_.at(vpage)];
      RMP_ASSIGN_OR_RETURN(*now, backend_->PageOut(*now, vpage, slot.data.span()));
      ever_paged_out_[vpage] = true;
      slot.dirty = false;
      ++stats_.pageouts;
    }
    return OkStatus();
  }

  void InvalidateAll() {
    for (uint32_t f = 0; f < params_.physical_frames; ++f) {
      if (frames_[f].live) {
        policy_->OnEvict(f);
        frames_[f].live = false;
        frames_[f].dirty = false;
      }
    }
    frame_of_.clear();
    free_frames_.clear();
    for (uint32_t f = 0; f < params_.physical_frames; ++f) {
      free_frames_.push_back(params_.physical_frames - 1 - f);
    }
  }

  void SetAccessObserver(PagedVm::AccessObserver observer) { observer_ = std::move(observer); }
  const VmStats& stats() const { return stats_; }
  uint64_t resident_pages() const { return frame_of_.size(); }

 private:
  struct Frame {
    PageBuffer data;
    uint64_t vpage = 0;
    bool dirty = false;
    bool live = false;
  };

  Result<uint32_t> Fault(TimeNs* now, uint64_t vpage) {
    ++stats_.faults;
    uint32_t frame;
    if (!free_frames_.empty()) {
      frame = free_frames_.back();
      free_frames_.pop_back();
    } else {
      frame = policy_->Victim();
      Frame& victim = frames_[frame];
      if (victim.dirty) {
        RMP_ASSIGN_OR_RETURN(*now, backend_->PageOut(*now, victim.vpage, victim.data.span()));
        ever_paged_out_[victim.vpage] = true;
        ++stats_.pageouts;
      } else {
        ++stats_.clean_evictions;
      }
      policy_->OnEvict(frame);
      frame_of_.erase(victim.vpage);
      victim.live = false;
    }
    Frame& slot = frames_[frame];
    if (ever_paged_out_[vpage]) {
      auto done = backend_->PageIn(*now, vpage, slot.data.span());
      if (!done.ok()) {
        free_frames_.push_back(frame);
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
    frame_of_[vpage] = frame;
    policy_->OnInsert(frame);
    return frame;
  }

  VmParams params_;
  PagingBackend* backend_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;
  std::unordered_map<uint64_t, uint32_t> frame_of_;
  std::vector<bool> ever_paged_out_;
  PagedVm::AccessObserver observer_;
  VmStats stats_;
};

void ExpectSameStats(const VmStats& got, const VmStats& want) {
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.faults, want.faults);
  EXPECT_EQ(got.zero_fills, want.zero_fills);
  EXPECT_EQ(got.pageins, want.pageins);
  EXPECT_EQ(got.pageouts, want.pageouts);
  EXPECT_EQ(got.clean_evictions, want.clean_evictions);
}

class VmDifferentialTest : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(VmDifferentialTest, RandomStreamsMatchReferenceVm) {
  constexpr uint64_t kPages = 24;
  constexpr int kSteps = 6000;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    VmParams params = SmallVm(8, kPages);
    params.replacement = GetParam();
    RecordingBackend backend;
    RecordingBackend ref_backend;
    PagedVm vm(params, &backend);
    RefVm ref(params, &ref_backend);
    TimeNs now = 0;
    TimeNs ref_now = 0;
    Rng rng(seed);
    std::vector<std::pair<uint64_t, bool>> seen;
    std::vector<std::pair<uint64_t, bool>> ref_seen;

    // One byte-granular access at `addr` of `size` bytes on both VMs.
    auto access = [&](uint64_t addr, size_t size, bool write) {
      std::vector<uint8_t> got(size);
      std::vector<uint8_t> want(size);
      if (write) {
        for (uint8_t& b : got) {
          b = static_cast<uint8_t>(rng.Next());
        }
        ASSERT_EQ(vm.Write(&now, addr, std::span<const uint8_t>(got)).code(),
                  ref.Write(&ref_now, addr, std::span<const uint8_t>(got)).code());
      } else {
        const Status status = vm.Read(&now, addr, std::span<uint8_t>(got));
        ASSERT_EQ(status.code(), ref.Read(&ref_now, addr, std::span<uint8_t>(want)).code());
        if (status.ok()) {
          ASSERT_EQ(got, want) << "read-back differs at " << addr;
        }
      }
    };
    auto word_addr = [&](uint64_t page) { return page * kPageSize + 8 * rng.Below(kPageSize / 8); };

    for (int step = 0; step < kSteps; ++step) {
      const uint64_t op = rng.Below(100);
      const uint64_t page = rng.Below(kPages);
      const bool write = rng.Below(3) == 0;
      if (op < 25) {
        ASSERT_EQ(vm.Touch(&now, page, write).code(), ref.Touch(&ref_now, page, write).code());
      } else if (op < 60) {
        access(word_addr(page), 8, write);
      } else if (op < 70) {  // A span across the end of `page`.
        const uint64_t before = 1 + rng.Below(64);
        const uint64_t addr = std::min(page + 1, kPages - 1) * kPageSize - before;
        access(addr, before + rng.Below(64), write);
      } else if (op < 85) {  // A run of hits on one page.
        for (uint64_t i = 0, n = 2 + rng.Below(30); i < n; ++i) {
          access(word_addr(page), 8, rng.Below(4) == 0);
        }
      } else if (op < 95) {  // Alternation between two pages.
        const uint64_t other = rng.Below(kPages);
        for (uint64_t i = 0, n = 2 + rng.Below(30); i < n; ++i) {
          access(word_addr(i % 2 == 0 ? page : other), 8, rng.Below(4) == 0);
        }
      } else if (op < 97) {
        if (rng.Below(2) == 0) {
          vm.SetAccessObserver([&seen](uint64_t p, bool w) { seen.emplace_back(p, w); });
          ref.SetAccessObserver([&ref_seen](uint64_t p, bool w) { ref_seen.emplace_back(p, w); });
        } else {
          vm.SetAccessObserver(nullptr);
          ref.SetAccessObserver(nullptr);
        }
      } else if (op < 98) {
        ASSERT_TRUE(vm.FlushDirty(&now).ok());
        ASSERT_TRUE(ref.FlushDirty(&ref_now).ok());
      } else if (op < 99) {
        vm.InvalidateAll();
        ref.InvalidateAll();
      } else {
        backend.FailNextPageIn();
        ref_backend.FailNextPageIn();
      }
      if (HasFatalFailure()) {
        return;
      }
    }
    ExpectSameStats(vm.stats(), ref.stats());
    EXPECT_EQ(vm.resident_pages(), ref.resident_pages());
    EXPECT_EQ(backend.pageout_order(), ref_backend.pageout_order());
    EXPECT_EQ(seen, ref_seen);
    EXPECT_GT(seen.size(), 0u);
    EXPECT_GT(vm.stats().faults, 0);
    // Every page reads back the same bytes.
    vm.SetAccessObserver(nullptr);
    ref.SetAccessObserver(nullptr);
    for (uint64_t p = 0; p < kPages; ++p) {
      PageBuffer got;
      PageBuffer want;
      ASSERT_TRUE(vm.Read(&now, p * kPageSize, got.span()).ok());
      ASSERT_TRUE(ref.Read(&ref_now, p * kPageSize, want.span()).ok());
      ASSERT_TRUE(got == want) << "page " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, VmDifferentialTest,
                         ::testing::Values(ReplacementKind::kLru, ReplacementKind::kClock,
                                           ReplacementKind::kFifo),
                         [](const auto& info) { return std::string(ReplacementKindName(info.param)); });

// The two-entry translation cache serves hits without the policy and owes it
// at most one reorder, replayed before the policy is next consulted. A twin
// with a no-op observer never fills its cache, so its policy sees every
// access; the cached VM must page the same pages in the same order.
class VmCacheTwinTest : public ::testing::TestWithParam<std::tuple<ReplacementKind, uint32_t>> {};

TEST_P(VmCacheTwinTest, PagesLikeATwinWhosePolicySeesEveryAccess) {
  const auto [kind, frames] = GetParam();
  constexpr uint64_t kPages = 12;
  constexpr int kSteps = 4000;
  const PagedVm::AccessObserver no_op = [](uint64_t, bool) {};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    VmParams params = SmallVm(frames, kPages);
    params.replacement = kind;
    RecordingBackend backend;
    RecordingBackend twin_backend;
    PagedVm vm(params, &backend);
    PagedVm twin(params, &twin_backend);
    twin.SetAccessObserver(no_op);
    TimeNs now = 0;
    TimeNs twin_now = 0;
    Rng rng(seed);

    auto access = [&](uint64_t addr, size_t size, bool write) {
      std::vector<uint8_t> got(size);
      std::vector<uint8_t> want(size);
      if (write) {
        for (uint8_t& b : got) {
          b = static_cast<uint8_t>(rng.Next());
        }
        ASSERT_TRUE(vm.Write(&now, addr, std::span<const uint8_t>(got)).ok());
        ASSERT_TRUE(twin.Write(&twin_now, addr, std::span<const uint8_t>(got)).ok());
      } else {
        ASSERT_TRUE(vm.Read(&now, addr, std::span<uint8_t>(got)).ok());
        ASSERT_TRUE(twin.Read(&twin_now, addr, std::span<uint8_t>(want)).ok());
        ASSERT_EQ(got, want) << "read-back differs at " << addr;
      }
    };
    auto word_addr = [&](uint64_t page) { return page * kPageSize + 8 * rng.Below(kPageSize / 8); };

    for (int step = 0; step < kSteps; ++step) {
      const uint64_t op = rng.Below(100);
      const uint64_t page = rng.Below(kPages);
      const bool write = rng.Below(3) == 0;
      if (op < 45) {  // Alternation between two pages, then maybe a third.
        const uint64_t other = rng.Below(kPages);
        for (uint64_t i = 0, n = 2 + rng.Below(24); i < n; ++i) {
          access(word_addr(i % 2 == 0 ? page : other), 8, rng.Below(4) == 0);
        }
        if (rng.Below(2) == 0) {
          access(word_addr(rng.Below(kPages)), 8, write);
        }
      } else if (op < 65) {
        access(word_addr(page), 8, write);
      } else if (op < 80) {
        ASSERT_TRUE(vm.Touch(&now, page, write).ok());
        ASSERT_TRUE(twin.Touch(&twin_now, page, write).ok());
      } else if (op < 92) {  // A span across the end of `page`.
        const uint64_t before = 1 + rng.Below(64);
        const uint64_t addr = std::min(page + 1, kPages - 1) * kPageSize - before;
        access(addr, before + rng.Below(64), write);
      } else if (op < 95) {
        ASSERT_TRUE(vm.FlushDirty(&now).ok());
        ASSERT_TRUE(twin.FlushDirty(&twin_now).ok());
      } else if (op < 96) {
        vm.InvalidateAll();
        twin.InvalidateAll();
      } else {  // Attach or detach an observer on the cached VM only.
        vm.SetAccessObserver(rng.Below(2) == 0 ? no_op : nullptr);
      }
      if (HasFatalFailure()) {
        return;
      }
    }
    ExpectSameStats(vm.stats(), twin.stats());
    EXPECT_EQ(backend.traffic(), twin_backend.traffic());
    for (uint64_t p = 0; p < kPages; ++p) {
      EXPECT_EQ(vm.IsResident(p), twin.IsResident(p)) << "page " << p;
      EXPECT_EQ(vm.IsDirty(p), twin.IsDirty(p)) << "page " << p;
    }
    EXPECT_GT(vm.stats().pageins, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, VmCacheTwinTest,
    ::testing::Combine(::testing::Values(ReplacementKind::kLru, ReplacementKind::kClock,
                                         ReplacementKind::kFifo),
                       ::testing::Values(1u, 2u, 3u, 8u)),
    [](const auto& info) {
      return std::string(ReplacementKindName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "Frames";
    });

// Inline hits bump one counter that stats() folds into `accesses` and `hits`.
// Read after every access of a stream that mostly hits the translation cache,
// the cached VM's stats must equal those of a twin whose observer keeps every
// access on the counted slow path, and a second read must not count the
// folded hits again.
TEST(VmCacheTwinTest, StatsFoldInlineHitsAtEveryRead) {
  constexpr uint64_t kPages = 8;
  const PagedVm::AccessObserver no_op = [](uint64_t, bool) {};
  RecordingBackend backend;
  RecordingBackend twin_backend;
  PagedVm vm(SmallVm(4, kPages), &backend);
  PagedVm twin(SmallVm(4, kPages), &twin_backend);
  twin.SetAccessObserver(no_op);
  TimeNs now = 0;
  TimeNs twin_now = 0;
  Rng rng(29);
  uint64_t page = 0;
  uint64_t other = 1;
  for (int step = 0; step < 3000; ++step) {
    if (rng.Below(16) == 0) {  // Mostly alternate between two pages.
      page = rng.Below(kPages);
      other = rng.Below(kPages);
    }
    const uint64_t addr = (step % 2 == 0 ? page : other) * kPageSize + 8 * rng.Below(kPageSize / 8);
    uint64_t value = rng.Next();
    auto bytes = std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value), sizeof(value));
    if (rng.Below(3) == 0) {
      ASSERT_TRUE(vm.Write(&now, addr, bytes).ok());
      ASSERT_TRUE(twin.Write(&twin_now, addr, bytes).ok());
    } else {
      ASSERT_TRUE(vm.Read(&now, addr, bytes).ok());
      ASSERT_TRUE(twin.Read(&twin_now, addr, bytes).ok());
    }
    SCOPED_TRACE("step " + std::to_string(step));
    ExpectSameStats(vm.stats(), twin.stats());
    ExpectSameStats(vm.stats(), twin.stats());
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(vm.stats().hits, 2 * vm.stats().faults);
}

}  // namespace
}  // namespace rmp
