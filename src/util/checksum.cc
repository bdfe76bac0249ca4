#include "src/util/checksum.h"

#include <array>
#include <cstring>

#include "src/util/checksum_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMP_HAVE_X86_CRC32C 1
#include <immintrin.h>
#else
#define RMP_HAVE_X86_CRC32C 0
#endif

namespace rmp {
namespace {

using checksum_internal::kFoldRounds;
using checksum_internal::kLongBlock;

// Castagnoli polynomial 0x1EDC6F41, bit-reflected: bit i of a register
// holds the coefficient of x^(31-i).
constexpr uint32_t kReflectedPoly = 0x82f63b78u;

// Eight shifted lookup tables: t[0] is the classic byte-at-a-time table,
// t[k] advances a byte through k+1 zero bytes.
struct SliceTables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

SliceTables BuildSliceTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kReflectedPoly ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables.t[0][i];
    for (int s = 1; s < 8; ++s) {
      c = tables.t[0][c & 0xffu] ^ (c >> 8);
      tables.t[s][i] = c;
    }
  }
  return tables;
}

const SliceTables& Tables() {
  static const SliceTables tables = BuildSliceTables();
  return tables;
}

#if RMP_HAVE_X86_CRC32C

// The long block: three crc32q lanes of kScalarLane bytes, then a region of
// kVectorBytes folded by carry-less multiplies. Each round advances every
// lane by 24 bytes and the fold by 64 bytes; crc32q and pclmulqdq issue on
// different execution ports, so the two halves run side by side.
constexpr size_t kScalarLane = 24 * kFoldRounds;
constexpr size_t kVectorBytes = 64 * kFoldRounds;
static_assert(3 * kScalarLane + kVectorBytes == kLongBlock);

// x^e mod P as a reflected register.
constexpr uint32_t XPowModP(int e) {
  uint32_t r = 0x80000000u;  // x^0.
  for (int i = 0; i < e; ++i) {
    r = (r & 1) ? (r >> 1) ^ kReflectedPoly : r >> 1;
  }
  return r;
}

// x^e mod P as a 64-bit reflected pclmulqdq operand (bit j holds x^(63-j)).
// The product of two reflected operands comes out one degree low, so a
// multiply by ClmulConst(e) advances a value by x^(e+1).
constexpr uint64_t ClmulConst(int e) { return static_cast<uint64_t>(XPowModP(e)) << 32; }

#define RMP_CRC_TARGET __attribute__((target("sse4.2,pclmul")))

RMP_CRC_TARGET inline uint64_t Crc32q(uint64_t crc, const uint8_t* p) {
  uint64_t val;
  std::memcpy(&val, p, 8);  // Unaligned load.
  return _mm_crc32_u64(crc, val);
}

RMP_CRC_TARGET inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// A 128-bit value v (bit m holds x^(127-m)) reduced to v * x^32 mod P: the
// register of a zero-started CRC over v's 16 bytes.
RMP_CRC_TARGET inline uint32_t Reduce128(__m128i v) {
  const uint64_t lo = _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(v)));
  return static_cast<uint32_t>(_mm_crc32_u64(lo, static_cast<uint64_t>(_mm_extract_epi64(v, 1))));
}

// The register after `bytes` zero bytes: crc * x^(8*bytes) mod P. The
// register widened to 64 bits stands for crc * x^32; the multiply adds
// e + 1 and Reduce128 another 32, so e = 8*bytes - 65.
constexpr uint64_t ShiftConst(size_t bytes) { return ClmulConst(static_cast<int>(8 * bytes) - 65); }

RMP_CRC_TARGET inline uint32_t Shift(uint32_t crc, uint64_t shift_const) {
  return Reduce128(_mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(crc)),
                                        _mm_cvtsi64_si128(static_cast<int64_t>(shift_const)),
                                        0x00));
}

// a * x^(128*m) + b, congruent mod P and still 128 bits wide, with
// k = FoldConst<m>(). a's low qword holds its high-degree half.
RMP_CRC_TARGET inline __m128i Fold(__m128i a, __m128i k, __m128i b) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       b);
}

// Low qword: the multiplier of a's high-degree half; high qword: of its
// low-degree half.
template <int kBlocks>
inline __m128i FoldConst() {
  static constexpr uint64_t kHigh = ClmulConst(128 * kBlocks - 1);
  static constexpr uint64_t kLow = ClmulConst(128 * kBlocks + 63);
  return _mm_set_epi64x(static_cast<int64_t>(kHigh), static_cast<int64_t>(kLow));
}

RMP_CRC_TARGET uint32_t LongBlock(uint32_t crc, const uint8_t* p) {
  static constexpr uint64_t kLaneShift = ShiftConst(kScalarLane);
  static constexpr uint64_t kVectorShift = ShiftConst(kVectorBytes);
  const __m128i k512 = FoldConst<4>();
  const uint8_t* s = p;
  const uint8_t* v = p + 3 * kScalarLane;
  // Lanes 1 and 2 start from a zero register. The three chains are
  // independent, so the core retires one crc32q per cycle instead of one
  // per instruction latency (3 cycles).
  uint64_t c0 = crc;
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  // Four accumulators, each folding every fourth 16-byte block of the
  // vector region; all of them start from a zero register too.
  __m128i a0 = Load128(v);
  __m128i a1 = Load128(v + 16);
  __m128i a2 = Load128(v + 32);
  __m128i a3 = Load128(v + 48);
  for (size_t round = 0;;) {
    for (size_t w = 0; w < 24; w += 8) {
      c0 = Crc32q(c0, s + w);
      c1 = Crc32q(c1, s + kScalarLane + w);
      c2 = Crc32q(c2, s + 2 * kScalarLane + w);
    }
    s += 24;
    if (++round == kFoldRounds) {
      break;
    }
    v += 64;
    a0 = Fold(a0, k512, Load128(v));
    a1 = Fold(a1, k512, Load128(v + 16));
    a2 = Fold(a2, k512, Load128(v + 32));
    a3 = Fold(a3, k512, Load128(v + 48));
  }
  const __m128i k128 = FoldConst<1>();
  const __m128i folded = Fold(Fold(Fold(a0, k128, a1), k128, a2), k128, a3);
  // CRC linearity joins the parts in buffer order:
  // reg(A||B) = shift_|B|(reg(A)) ^ reg0(B).
  uint32_t joined = Shift(static_cast<uint32_t>(c0), kLaneShift) ^ static_cast<uint32_t>(c1);
  joined = Shift(joined, kLaneShift) ^ static_cast<uint32_t>(c2);
  return Shift(joined, kVectorShift) ^ Reduce128(folded);
}

RMP_CRC_TARGET uint32_t HardwareKernel(uint32_t crc, const uint8_t* p, size_t n) {
  for (; n >= kLongBlock; p += kLongBlock, n -= kLongBlock) {
    crc = LongBlock(crc, p);
  }
  // Wire payloads are whole pages, so what is left is short (an 8 KB page
  // leaves 32 bytes) and one chain is enough.
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    c = Crc32q(c, p);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(crc, *p);
  }
  return crc;
}

bool DetectHardware() {
  return __builtin_cpu_supports("sse4.2") != 0 && __builtin_cpu_supports("pclmul") != 0;
}

#endif  // RMP_HAVE_X86_CRC32C

}  // namespace

namespace checksum_internal {

uint32_t Crc32cSoftware(uint32_t crc, std::span<const uint8_t> data) {
  const auto& t = Tables().t;
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32cInterleaved(uint32_t crc, std::span<const uint8_t> data) {
#if RMP_HAVE_X86_CRC32C
  return HardwareKernel(crc, data.data(), data.size());
#else
  return Crc32cSoftware(crc, data);
#endif
}

}  // namespace checksum_internal

bool Crc32cHardwareAvailable() {
#if RMP_HAVE_X86_CRC32C
  static const bool available = DetectHardware();
  return available;
#else
  return false;
#endif
}

uint32_t Crc32c(std::span<const uint8_t> data) {
  const uint32_t crc = Crc32cHardwareAvailable()
                           ? checksum_internal::Crc32cInterleaved(0xffffffffu, data)
                           : checksum_internal::Crc32cSoftware(0xffffffffu, data);
  return crc ^ 0xffffffffu;
}

}  // namespace rmp
