// VmArray<T>: a typed array living inside a PagedVm address space. The
// data-mode workload kernels (a real quicksort, a real matrix sweep) operate
// on these so that every element access goes through the fault path and the
// final data provably round-tripped through servers, parity and recovery.

#ifndef SRC_VM_VM_ARRAY_H_
#define SRC_VM_VM_ARRAY_H_

#include <cstdint>
#include <type_traits>

#include "src/vm/paged_vm.h"

namespace rmp {

template <typename T>
class VmArray {
  static_assert(std::is_trivially_copyable_v<T>, "VmArray elements must be trivially copyable");

 public:
  // Places `count` elements at byte offset `base` of the VM address space.
  VmArray(PagedVm* vm, uint64_t base, uint64_t count) : vm_(vm), base_(base), count_(count) {}

  uint64_t size() const { return count_; }

  // Byte span this array occupies (for laying out several arrays).
  uint64_t end_offset() const { return base_ + count_ * sizeof(T); }

  // Get and Set are forced inline. Left to its heuristics, GCC -O2 calls Get
  // out of line from the larger kernels (27 calls in a RelWithDebInfo
  // librmp_workloads.a, 7 of them in QuicksortVm), and every call returns a
  // 56-byte Result through the stack to be checked and destroyed there.
  // Inlined, a translation-cache hit is a few instructions inside the
  // kernel's loop (EXPERIMENTS.md "VM hit path, part 3").
  [[gnu::always_inline]] Result<T> Get(TimeNs* now, uint64_t index) const {
    T value{};
    auto span = std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value), sizeof(T));
    RMP_RETURN_IF_ERROR(vm_->Read(now, base_ + index * sizeof(T), span));
    return value;
  }

  [[gnu::always_inline]] Status Set(TimeNs* now, uint64_t index, const T& value) {
    auto span = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(T));
    return vm_->Write(now, base_ + index * sizeof(T), span);
  }

 private:
  PagedVm* vm_;
  uint64_t base_;
  uint64_t count_;
};

}  // namespace rmp

#endif  // SRC_VM_VM_ARRAY_H_
