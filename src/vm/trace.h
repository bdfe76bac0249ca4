// Page-reference trace capture and replay.
//
// Record the exact reference stream of any run (via PagedVm's access
// observer), persist it to a compact binary file, and replay it later as a
// Workload against any policy/backend configuration. This is the tooling
// that lets a measurement from one configuration drive apples-to-apples
// comparisons across every other one — and lets users of the library feed
// their own application traces through the pager.
//
// File format (little-endian):
//   magic   u32  'RMPT'
//   version u32  2       (version 1 files, sealed with IEEE CRC32, are
//                        refused as an unsupported version)
//   count   u64
//   events  count x u64   (bit 63 = write, bits 62..0 = virtual page)
//   crc32c  u32            (CRC-32C over the events)

#ifndef SRC_VM_TRACE_H_
#define SRC_VM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/units.h"
#include "src/vm/paged_vm.h"

namespace rmp {

class AccessTrace {
 public:
  AccessTrace() = default;

  void Add(uint64_t vpage, bool write) {
    events_.push_back((vpage & kPageMask) | (write ? kWriteBit : 0));
  }

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  uint64_t vpage(size_t i) const { return events_[i] & kPageMask; }
  bool is_write(size_t i) const { return (events_[i] & kWriteBit) != 0; }

  // Highest referenced page + 1 (the address-space size a replay needs).
  uint64_t MaxPageExclusive() const;
  int64_t CountWrites() const;

  // Attaches this trace as the observer of `vm`: every subsequent Touch is
  // appended. Detach by vm->SetAccessObserver(nullptr).
  void AttachTo(PagedVm* vm);

  // Persistence, CRC-guarded.
  Status Save(const std::string& path) const;
  static Result<AccessTrace> Load(const std::string& path);

  // Replays the trace through `vm`, spreading `cpu_seconds` of compute
  // evenly between references (matching the generators' timing model).
  Status Replay(PagedVm* vm, TimeNs* now, double cpu_seconds = 0.0) const;

  bool operator==(const AccessTrace& other) const { return events_ == other.events_; }

 private:
  static constexpr uint64_t kWriteBit = 1ull << 63;
  static constexpr uint64_t kPageMask = kWriteBit - 1;

  std::vector<uint64_t> events_;
};

}  // namespace rmp

#endif  // SRC_VM_TRACE_H_
