// The one bounded ring buffer (DESIGN.md §12): storage for the page tracer's
// completed records, a server's span ring, the flight recorder and the SLO
// window.
//
// Unsynchronized: every owner already holds a mutex around its ring, so the
// ring adds no lock. A push into a full ring overwrites the oldest element,
// counts it in dropped() and hands it back, so an owner keeping a running
// aggregate over the window (SloTracker's violation count) can subtract what
// left. Capacity 0 is the disabled ring: Push stores, counts and returns
// nothing.

#ifndef SRC_UTIL_BOUNDED_RING_H_
#define SRC_UTIL_BOUNDED_RING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace rmp {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity = 0) : slots_(capacity) {}

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  // Elements Push overwrote since construction (Clear and Resize keep it).
  int64_t dropped() const { return dropped_; }

  // Appends `value` as the newest element. In a full ring the oldest element
  // is overwritten, counted in dropped() and returned.
  std::optional<T> Push(T value) {
    if (slots_.empty()) {
      return std::nullopt;
    }
    if (size_ < slots_.size()) {
      slots_[Slot(size_++)] = std::move(value);
      return std::nullopt;
    }
    std::optional<T> evicted(std::move(slots_[head_]));
    slots_[head_] = std::move(value);
    head_ = Slot(1);
    ++dropped_;
    return evicted;
  }

  // The i-th element, oldest first: [0] is the oldest, [size() - 1] the newest.
  const T& operator[](size_t i) const { return slots_[Slot(i)]; }

  // Copies of every element, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      out.push_back((*this)[i]);
    }
    return out;
  }

  // Moves every element out, oldest first, and leaves the ring empty.
  std::vector<T> Drain() {
    std::vector<T> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      out.push_back(std::move(slots_[Slot(i)]));
    }
    Clear();
    return out;
  }

  // The newest element `pred` accepts, or null.
  template <typename Pred>
  T* FindNewest(Pred pred) {
    for (size_t i = size_; i-- > 0;) {
      T& value = slots_[Slot(i)];
      if (pred(value)) {
        return &value;
      }
    }
    return nullptr;
  }

  // Clear empties the ring; Resize empties it and gives it `capacity` slots.
  void Clear() {
    head_ = 0;
    size_ = 0;
  }
  void Resize(size_t capacity) {
    slots_.assign(capacity, T());
    Clear();
  }

 private:
  // Storage index of the i-th oldest element; i <= capacity().
  size_t Slot(size_t i) const {
    const size_t slot = head_ + i;
    return slot < slots_.size() ? slot : slot - slots_.size();
  }

  std::vector<T> slots_;
  size_t head_ = 0;  // Storage index of the oldest element.
  size_t size_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace rmp

#endif  // SRC_UTIL_BOUNDED_RING_H_
