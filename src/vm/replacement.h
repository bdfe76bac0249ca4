// Page replacement policies for the simulated VM.
//
// The interface works in physical frame numbers: the VM tells the policy
// when a frame is filled or referenced, and asks for a victim when memory is
// full. LRU approximates what the DEC OSF/1 global page-replacement clock
// achieved for the paper's single-application workloads; CLOCK and FIFO
// exist for the replacement-policy ablation bench. Frame numbers are dense
// (0 .. frames-1), so each policy keeps its state in arrays indexed by frame.

#ifndef SRC_VM_REPLACEMENT_H_
#define SRC_VM_REPLACEMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace rmp {

enum class ReplacementKind { kLru, kClock, kFifo };

std::string_view ReplacementKindName(ReplacementKind kind);

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  // Frame was filled with a fresh page.
  virtual void OnInsert(uint32_t frame) = 0;

  // Frame was referenced (hit).
  virtual void OnAccess(uint32_t frame) = 0;

  // Frame was evicted by the VM (after Victim(), or explicit invalidation).
  virtual void OnEvict(uint32_t frame) = 0;

  // Chooses the frame to evict. Precondition: at least one frame inserted.
  virtual uint32_t Victim() = 0;

  virtual std::string Name() const = 0;
};

// Every policy accepts frame numbers 0 .. frames-1.
std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(ReplacementKind kind, uint32_t frames);

// LRU and FIFO share one list, threaded through per-frame prev/next arrays.
// The front is the newest frame and the back is the victim. Only LRU moves a
// frame to the front when it is referenced.
class ListPolicy : public ReplacementPolicy {
 public:
  explicit ListPolicy(uint32_t frames);
  void OnInsert(uint32_t frame) override;
  void OnEvict(uint32_t frame) override;
  uint32_t Victim() override;

 protected:
  void MoveToFront(uint32_t frame);

 private:
  static constexpr uint32_t kUnlinked = UINT32_MAX;
  void Unlink(uint32_t frame);
  void PushFront(uint32_t frame);

  // Index `head_` (== frames) is the sentinel: next_[head_] is the front and
  // prev_[head_] the back. An unlinked frame has next_ == kUnlinked.
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> next_;
  uint32_t head_;
};

// Exact LRU.
class LruPolicy final : public ListPolicy {
 public:
  using ListPolicy::ListPolicy;
  void OnAccess(uint32_t frame) override { MoveToFront(frame); }
  std::string Name() const override { return "LRU"; }
};

// First-in first-out; references are ignored.
class FifoPolicy final : public ListPolicy {
 public:
  using ListPolicy::ListPolicy;
  void OnAccess(uint32_t /*frame*/) override {}
  std::string Name() const override { return "FIFO"; }
};

// Second-chance clock with one reference bit per frame. Ring slot i is
// frame i; the hand skips frames that are not resident.
class ClockPolicy final : public ReplacementPolicy {
 public:
  explicit ClockPolicy(uint32_t frames) : ring_(frames) {}
  void OnInsert(uint32_t frame) override;
  void OnAccess(uint32_t frame) override;
  void OnEvict(uint32_t frame) override;
  uint32_t Victim() override;
  std::string Name() const override { return "CLOCK"; }

 private:
  struct Slot {
    bool referenced = false;
    bool live = false;
  };
  std::vector<Slot> ring_;
  uint32_t live_ = 0;
  size_t hand_ = 0;
};

}  // namespace rmp

#endif  // SRC_VM_REPLACEMENT_H_
