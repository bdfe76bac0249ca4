// CRC-32C (Castagnoli polynomial 0x1EDC6F41): the one checksum of the code
// base. It guards every page payload on the wire (PayloadCrc in
// src/proto/wire.h), keys and verifies the server's dedup index, and seals
// access-trace files.
//
// It runs twice per hop on every 8 KB page the transport moves, so it is
// hot-path code. On x86 with SSE4.2 and PCLMUL it runs three independent
// `crc32q` chains side by side with a carry-less-multiply fold over the
// rest of the block, and joins the partial CRCs with carry-less multiplies
// by x^(8n) mod P. On a 2 GHz Xeon that is ~0.26 µs per page, against
// ~0.49 µs for `crc32q` chains alone and ~5 µs for the tables. Elsewhere a
// slice-by-8 table kernel computes the same value. The choice is made once
// per process; src/util/checksum_internal.h exposes both kernels to tests.

#ifndef SRC_UTIL_CHECKSUM_H_
#define SRC_UTIL_CHECKSUM_H_

#include <cstdint>
#include <span>

namespace rmp {

// One-shot CRC-32C of `data` (0 for empty input).
uint32_t Crc32c(std::span<const uint8_t> data);

// True when Crc32c dispatches to the hardware kernel (SSE4.2 and PCLMUL) on
// this machine.
bool Crc32cHardwareAvailable();

}  // namespace rmp

#endif  // SRC_UTIL_CHECKSUM_H_
