#include "src/util/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/util/checksum_internal.h"

namespace rmp {
namespace {

using checksum_internal::Crc32cInterleaved;
using checksum_internal::Crc32cSoftware;
using checksum_internal::kLongBlock;

constexpr uint32_t kReflectedPoly = 0x82f63b78u;

std::span<const uint8_t> AsBytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Bit-at-a-time reference: advances a raw CRC register over `data`.
uint32_t ReferenceRegister(uint32_t crc, std::span<const uint8_t> data) {
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kReflectedPoly : 0u);
    }
  }
  return crc;
}

uint32_t ReferenceCrc(std::span<const uint8_t> data) {
  return ReferenceRegister(0xffffffffu, data) ^ 0xffffffffu;
}

std::vector<uint8_t> PseudoRandomBuffer(size_t size, uint64_t seed) {
  std::vector<uint8_t> data(size);
  uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& byte : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<uint8_t>(x);
  }
  return data;
}

TEST(Crc32cTest, KnownVector) {
  // The canonical CRC-32C (Castagnoli) check value.
  EXPECT_EQ(Crc32c(AsBytes("123456789")), 0xe3069283u);
}

TEST(Crc32cTest, EmptyInput) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(1024, 0xa5);
  const uint32_t clean = Crc32c(std::span<const uint8_t>(data));
  for (size_t byte : {0u, 511u, 1023u}) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32c(std::span<const uint8_t>(data)), clean);
    data[byte] ^= 0x10;
  }
}

TEST(Crc32cTest, DetectsTransposition) {
  std::vector<uint8_t> a = {1, 2, 3, 4};
  std::vector<uint8_t> b = {1, 3, 2, 4};
  EXPECT_NE(Crc32c(std::span<const uint8_t>(a)), Crc32c(std::span<const uint8_t>(b)));
}

TEST(Crc32cTest, MatchesBitwiseReference) {
  // Runs whichever kernel this machine dispatches to.
  for (size_t size : {1u, 7u, 8u, 9u, 100u, 8192u}) {
    const auto data = PseudoRandomBuffer(size, size * 31 + 5);
    const std::span<const uint8_t> span(data);
    EXPECT_EQ(Crc32c(span), ReferenceCrc(span))
        << "size " << size << " hw=" << Crc32cHardwareAvailable();
  }
}

// Every length from empty through one long block (three crc32q lanes and
// the folded region) and a tail of single-chain words and bytes.
constexpr size_t kSweepBytes = kLongBlock + 64;

// Checks `kernel` against the bitwise reference on every prefix of one
// buffer, copied to each of the 8 start misalignments. One reference pass
// records the register after every prefix length.
template <typename Kernel>
void SweepLengthsAndAlignments(Kernel kernel) {
  const auto data = PseudoRandomBuffer(kSweepBytes, 77);
  std::vector<uint32_t> prefix_register(kSweepBytes + 1);
  prefix_register[0] = 0xffffffffu;
  for (size_t n = 0; n < kSweepBytes; ++n) {
    prefix_register[n + 1] =
        ReferenceRegister(prefix_register[n], std::span<const uint8_t>(&data[n], 1));
  }
  // 8-byte aligned backing store, so offset `shift` really is misaligned.
  std::vector<uint64_t> backing(kSweepBytes / 8 + 2);
  auto* base = reinterpret_cast<uint8_t*>(backing.data());
  for (size_t shift = 0; shift < 8; ++shift) {
    std::memcpy(base + shift, data.data(), kSweepBytes);
    for (size_t len = 0; len <= kSweepBytes; ++len) {
      const uint32_t got = kernel(0xffffffffu, std::span<const uint8_t>(base + shift, len));
      ASSERT_EQ(got, prefix_register[len]) << "length " << len << " misalignment " << shift;
    }
  }
}

TEST(Crc32cTest, SoftwareFallbackMatchesReferenceAtEveryLengthAndAlignment) {
  SweepLengthsAndAlignments(Crc32cSoftware);
}

TEST(Crc32cTest, InterleavedKernelMatchesReferenceAtEveryLengthAndAlignment) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 and PCLMUL on this CPU";
  }
  SweepLengthsAndAlignments(Crc32cInterleaved);
}

TEST(Crc32cTest, KernelsAgreeOnMultiPageBuffers) {
  // Batch payloads: several long blocks back to back, with odd tails.
  for (size_t size : {2 * 8192u, 2 * 8192u + 8u + 5u, 32 * 8192u + 8u * 3 + 1}) {
    const auto data = PseudoRandomBuffer(size, size);
    const std::span<const uint8_t> span(data);
    const uint32_t software = Crc32cSoftware(0xffffffffu, span);
    EXPECT_EQ(software, ReferenceRegister(0xffffffffu, span)) << "size " << size;
    if (Crc32cHardwareAvailable()) {
      EXPECT_EQ(Crc32cInterleaved(0xffffffffu, span), software) << "size " << size;
    }
  }
}

TEST(Crc32cTest, KernelsContinueFromAnyRegister) {
  // A kernel fed the register of a prefix must finish the whole buffer's
  // CRC, so lane 0 really starts from the incoming register at every split.
  const auto data = PseudoRandomBuffer(kLongBlock + 100, 9);
  const std::span<const uint8_t> whole(data);
  const uint32_t expected = ReferenceRegister(0xffffffffu, whole);
  for (size_t split : {1u, 8u, 99u, 100u}) {
    const uint32_t head = ReferenceRegister(0xffffffffu, whole.first(split));
    EXPECT_EQ(Crc32cSoftware(head, whole.subspan(split)), expected) << "split " << split;
    if (Crc32cHardwareAvailable()) {
      EXPECT_EQ(Crc32cInterleaved(head, whole.subspan(split)), expected) << "split " << split;
    }
  }
}

}  // namespace
}  // namespace rmp
