#include "src/vm/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/util/checksum.h"

namespace rmp {
namespace {

constexpr uint32_t kTraceMagic = 0x54504d52;  // "RMPT"
// Version 2 seals the events with CRC-32C; version 1 used IEEE CRC32.
constexpr uint32_t kTraceVersion = 2;

// RAII stdio handle.
struct File {
  explicit File(std::FILE* f) : f(f) {}
  ~File() {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
  std::FILE* f;
};

}  // namespace

uint64_t AccessTrace::MaxPageExclusive() const {
  uint64_t max_page = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    max_page = std::max(max_page, vpage(i) + 1);
  }
  return max_page;
}

int64_t AccessTrace::CountWrites() const {
  int64_t writes = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    writes += is_write(i) ? 1 : 0;
  }
  return writes;
}

void AccessTrace::AttachTo(PagedVm* vm) {
  vm->SetAccessObserver([this](uint64_t vpage, bool write) { Add(vpage, write); });
}

Status AccessTrace::Save(const std::string& path) const {
  File file(std::fopen(path.c_str(), "wb"));
  if (file.f == nullptr) {
    return IoError("cannot open trace file for writing: " + path);
  }
  const uint64_t count = events_.size();
  const auto events_bytes = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(events_.data()), count * sizeof(uint64_t));
  const uint32_t crc = Crc32c(events_bytes);
  if (std::fwrite(&kTraceMagic, sizeof(kTraceMagic), 1, file.f) != 1 ||
      std::fwrite(&kTraceVersion, sizeof(kTraceVersion), 1, file.f) != 1 ||
      std::fwrite(&count, sizeof(count), 1, file.f) != 1 ||
      (count > 0 && std::fwrite(events_.data(), sizeof(uint64_t), count, file.f) != count) ||
      std::fwrite(&crc, sizeof(crc), 1, file.f) != 1) {
    return IoError("short write to trace file: " + path);
  }
  return OkStatus();
}

Result<AccessTrace> AccessTrace::Load(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr) {
    return IoError("cannot open trace file: " + path);
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t count = 0;
  if (std::fread(&magic, sizeof(magic), 1, file.f) != 1 ||
      std::fread(&version, sizeof(version), 1, file.f) != 1 ||
      std::fread(&count, sizeof(count), 1, file.f) != 1) {
    return ProtocolError("trace file truncated header: " + path);
  }
  if (magic != kTraceMagic) {
    return ProtocolError("not a trace file: " + path);
  }
  if (version != kTraceVersion) {
    return ProtocolError("unsupported trace version " + std::to_string(version));
  }
  AccessTrace trace;
  trace.events_.resize(count);
  if (count > 0 && std::fread(trace.events_.data(), sizeof(uint64_t), count, file.f) != count) {
    return ProtocolError("trace file truncated events: " + path);
  }
  uint32_t stored_crc = 0;
  if (std::fread(&stored_crc, sizeof(stored_crc), 1, file.f) != 1) {
    return ProtocolError("trace file missing checksum: " + path);
  }
  const auto events_bytes = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(trace.events_.data()), count * sizeof(uint64_t));
  if (Crc32c(events_bytes) != stored_crc) {
    return CorruptionError("trace checksum mismatch: " + path);
  }
  return trace;
}

Status AccessTrace::Replay(PagedVm* vm, TimeNs* now, double cpu_seconds) const {
  const double slice =
      events_.empty() ? 0.0 : cpu_seconds * kSecond / static_cast<double>(events_.size());
  double carry = 0.0;
  for (size_t i = 0; i < events_.size(); ++i) {
    carry += slice;
    const auto step = static_cast<DurationNs>(carry);
    carry -= static_cast<double>(step);
    *now += step;
    RMP_RETURN_IF_ERROR(vm->Touch(now, vpage(i), is_write(i)));
  }
  return OkStatus();
}

}  // namespace rmp
