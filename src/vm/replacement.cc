#include "src/vm/replacement.h"

#include <cassert>
#include <utility>

namespace rmp {

std::string_view ReplacementKindName(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return "LRU";
    case ReplacementKind::kClock:
      return "CLOCK";
    case ReplacementKind::kFifo:
      return "FIFO";
  }
  return "UNKNOWN";
}

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(ReplacementKind kind, uint32_t frames) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>(frames);
    case ReplacementKind::kClock:
      return std::make_unique<ClockPolicy>(frames);
    case ReplacementKind::kFifo:
      return std::make_unique<FifoPolicy>(frames);
  }
  return nullptr;
}

// --- LRU and FIFO --------------------------------------------------------

ListPolicy::ListPolicy(uint32_t frames)
    : prev_(frames + 1, kUnlinked), next_(frames + 1, kUnlinked), head_(frames) {
  prev_[head_] = head_;
  next_[head_] = head_;
}

void ListPolicy::Unlink(uint32_t frame) {
  assert(next_[frame] != kUnlinked);
  next_[prev_[frame]] = next_[frame];
  prev_[next_[frame]] = prev_[frame];
  next_[frame] = kUnlinked;
}

void ListPolicy::PushFront(uint32_t frame) {
  const uint32_t old_front = next_[head_];
  prev_[frame] = head_;
  next_[frame] = old_front;
  prev_[old_front] = frame;
  next_[head_] = frame;
}

void ListPolicy::OnInsert(uint32_t frame) {
  assert(frame < head_ && next_[frame] == kUnlinked);
  PushFront(frame);
}

void ListPolicy::OnEvict(uint32_t frame) {
  if (next_[frame] != kUnlinked) {
    Unlink(frame);
  }
}

uint32_t ListPolicy::Victim() {
  assert(prev_[head_] != head_);
  return prev_[head_];
}

void ListPolicy::MoveToFront(uint32_t frame) {
  if (next_[head_] != frame) {
    Unlink(frame);
    PushFront(frame);
  }
}

// --- CLOCK -------------------------------------------------------------

void ClockPolicy::OnInsert(uint32_t frame) {
  assert(!ring_[frame].live);
  ring_[frame] = Slot{true, true};
  ++live_;
}

void ClockPolicy::OnAccess(uint32_t frame) {
  assert(ring_[frame].live);
  ring_[frame].referenced = true;
}

void ClockPolicy::OnEvict(uint32_t frame) {
  if (ring_[frame].live) {
    ring_[frame].live = false;
    --live_;
  }
}

uint32_t ClockPolicy::Victim() {
  assert(live_ > 0);
  for (;;) {
    const size_t current = hand_;
    hand_ = (hand_ + 1) % ring_.size();
    // Second chance: a referenced frame loses its bit and is passed over.
    Slot& slot = ring_[current];
    if (slot.live && !std::exchange(slot.referenced, false)) {
      return static_cast<uint32_t>(current);
    }
  }
}

}  // namespace rmp
