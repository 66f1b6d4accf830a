#include "util/checksum.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// Two kernels, one polynomial (IEEE 802.3, reflected 0xEDB88320):
//
//  * slice-by-8: eight 256-entry tables fold eight input bytes per step.
//    Portable and endian-safe (bytes are assembled little-endian by hand),
//    it runs the whole input on targets without carry-less multiply and the
//    last < 16 bytes everywhere.
//  * PCLMULQDQ folding (x86-64, chosen once at first call from CPUID) for
//    every input of 16 bytes or more: from 64 bytes up, four 128-bit lanes
//    fold 64 bytes per step and collapse to one; below that (a 54-byte DT
//    header, a short control PDU) the single lane starts at once.  The lane
//    then folds the remaining 16-byte blocks and Barrett-reduces to the
//    32-bit register.  Constants and structure follow Gopal et al., "Fast
//    CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//    (Intel, 2009), in the bit-reflected form zlib/Chromium's crc32_simd
//    uses.
//
// Both kernels advance the same pre-/post-inverted register, so chaining
// (`seed` = a previous result) and every encoded byte are unchanged.

namespace cmtos {
namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;

using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables make_tables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  // t[k][i]: CRC register after byte i followed by k zero bytes.
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

constexpr SliceTables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// Advances the (inverted) register `c` over n bytes at p.
std::uint32_t crc_slice8(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

/// Smallest input the folding kernel accepts (one 16-byte block).
constexpr std::size_t kFoldMin = 16;

// Intrinsics inline only into functions compiled for their ISA, so the
// helpers carry the folding function's target attribute too.
#define CMTOS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CMTOS_CLMUL_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds the 128-bit accumulator x forward with the constant pair k (by 512
// bits for k1k2, by 128 bits for k3k4) and adds the next block.
CMTOS_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the (inverted) register `c` over n bytes at p; n >= 16 and a
// multiple of 16.
CMTOS_CLMUL_TARGET std::uint32_t crc_fold(std::uint32_t c, const std::uint8_t* p,
                                          std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0x0000000000, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  p += 16;
  n -= 16;

  if (n >= 48) {
    // Four lanes while a whole 64-byte block remains, then collapse.
    __m128i x2 = load(p);
    __m128i x3 = load(p + 16);
    __m128i x4 = load(p + 32);
    p += 48;
    n -= 48;
    for (; n >= 64; p += 64, n -= 64) {
      x1 = fold(x1, k1k2, load(p));
      x2 = fold(x2, k1k2, load(p + 16));
      x3 = fold(x3, k1k2, load(p + 32));
      x4 = fold(x4, k1k2, load(p + 48));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
  }
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5k0, 0x00);
  x1 = _mm_xor_si128(x1, t);
  // Barrett reduction to the 32-bit register.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef CMTOS_CLMUL_TARGET

bool cpu_has_fold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  static const bool kFold = cpu_has_fold();
  if (kFold && n >= kFoldMin) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = crc_fold(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return crc_slice8(c, p, n) ^ 0xffffffffu;
}

}  // namespace cmtos
