// The two CRC-32C kernels behind Crc32c(), exposed so tests can compare them
// against each other and against a bitwise reference on the same inputs.
// Production code calls Crc32c(), which picks one at startup.
//
// Both take and return the raw CRC register: no pre- or post-inversion, so
// Crc32c(data) == ~Kernel(~0u, data).

#ifndef SRC_UTIL_CHECKSUM_INTERNAL_H_
#define SRC_UTIL_CHECKSUM_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace rmp::checksum_internal {

// Block size of the hardware kernel (bytes): three crc32q lanes of
// 24 * kFoldRounds bytes plus 64 * kFoldRounds bytes folded with
// pclmulqdq, all advanced together. An 8 KB page is one block and a
// 32-byte tail; what is left after the blocks runs through a single crc32q
// chain.
inline constexpr size_t kFoldRounds = 60;
inline constexpr size_t kLongBlock = 136 * kFoldRounds;

// Slice-by-8 table kernel; runs on any CPU.
uint32_t Crc32cSoftware(uint32_t crc, std::span<const uint8_t> data);

// The SSE4.2 crc32q + PCLMULQDQ kernel: independent chains over separate
// parts of the buffer, joined by carry-less multiplies. Only callable when
// Crc32cHardwareAvailable() is true; on builds without the x86 kernel it
// forwards to Crc32cSoftware.
uint32_t Crc32cInterleaved(uint32_t crc, std::span<const uint8_t> data);

}  // namespace rmp::checksum_internal

#endif  // SRC_UTIL_CHECKSUM_INTERNAL_H_
