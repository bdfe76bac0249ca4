// Helpers for tests that patch encoded wire frames (layout: src/proto/wire.h).

#ifndef TESTS_WIRE_TEST_UTIL_H_
#define TESTS_WIRE_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/proto/wire.h"

namespace rmp {

// Byte offsets of the header fields tests patch.
inline constexpr size_t kTypeOffset = 4;
inline constexpr size_t kFlagsOffset = 5;
inline constexpr size_t kTenantOffset = 6;
inline constexpr size_t kSlotOffset = 16;
inline constexpr size_t kPayloadLenOffset = 60;

// Recomputes the header CRC of an encoded frame after a test patched its
// header, so the patched value reaches the checks behind the CRC: the type,
// tenant and payload bounds, and the server's attribution.
inline void ResealHeader(std::vector<uint8_t>* frame) { SealHeader(frame->data()); }

}  // namespace rmp

#endif  // TESTS_WIRE_TEST_UTIL_H_
