#include "util/checksum.h"

#include <array>
#include <initializer_list>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// Three kernels, one polynomial (IEEE 802.3, reflected 0xEDB88320):
//
//  * table (slice-by-8): eight 256-entry tables fold eight input bytes per
//    step.  Portable and endian-safe (bytes are assembled little-endian by
//    hand), it runs the whole input on targets without carry-less multiply
//    and inputs under 16 bytes everywhere.
//  * fold128 (x86-64 PCLMULQDQ): from 64 bytes up, four 128-bit lanes fold
//    64 bytes per step and collapse to one; below that (a 54-byte DT header,
//    a short control PDU) the single lane starts at once.
//  * fold512 (x86-64 VPCLMULQDQ + AVX-512F): from 256 bytes up, four 512-bit
//    accumulators fold 256 bytes per step, collapse to one by 512 bits,
//    which then folds its four 128-bit lanes into one (by 384, 256 and 128
//    bits).  Shorter inputs take the fold128 path.
//
// Both folding kernels finish alike: the single lane folds the remaining
// 16-byte blocks, then the last 1-15 bytes with one overlapping 16-byte
// load, a PSHUFB byte shift and one fold by 128 bits (no table), then
// Barrett-reduces to the 32-bit register.  Structure follows Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), in the bit-reflected form zlib/Chromium's
// crc32_simd uses.  A fold by D bits multiplies the accumulator's low and
// high 64-bit halves by lo = reflect32(x^(D+32) mod P) << 1 and
// hi = reflect32(x^(D-32) mod P) << 1.
//
// crc32() picks the widest kernel the CPU supports once, from CPUID.  Every
// kernel advances the same pre-/post-inverted register, so chaining (`seed`
// = a previous result) and every encoded byte are unchanged.

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

/// Smallest input the folding kernels accept (one 16-byte block).
constexpr std::size_t kFoldMin = 16;

// Intrinsics inline only into functions compiled for their ISA, so the
// helpers carry the folding functions' target attributes too.
#define CMTOS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))
#define CMTOS_VPCLMUL_TARGET \
  __attribute__((target("pclmul,sse4.1,avx2,avx512f,vpclmulqdq")))

// PSHUFB indices: the 16 bytes at kShuffle + 16 - s shift a vector left (to
// higher byte positions) by s bytes, the 16 at kShuffle + 16 + s shift it
// right by s; 0x80 lanes read as zero.
alignas(16) constexpr std::uint8_t kShuffle[48] = {
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
    0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x80, 0x80, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80};

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

CMTOS_CLMUL_TARGET inline __m128i k3k4() {
  return _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
}

// Folds the single lane x over the n bytes left at p (whole blocks, then
// the 1-15-byte tail), then reduces it to the 32-bit register.  The 16
// bytes before p were already folded into x, so the tail's overlapping load
// stays inside the input.
CMTOS_CLMUL_TARGET inline std::uint32_t finish(__m128i x, const std::uint8_t* p,
                                               std::size_t n) {
  const __m128i k = k3k4();
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k, load(p));
  if (n > 0) {
    // The stream ends x || t[0..n): split it as (16 - n zero bytes, x[0..n))
    // || (x[n..16), t), fold the first block into the second by 128 bits.
    const __m128i head = _mm_shuffle_epi8(x, load(kShuffle + n));
    const __m128i shr = load(kShuffle + 16 + n);
    const __m128i last = _mm_blendv_epi8(_mm_shuffle_epi8(x, shr), load(p + n - 16), shr);
    x = fold(head, k, last);
  }

  const __m128i k5k0 = _mm_set_epi64x(0x0000000000, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x, k, 0x10);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x, 4);
  x = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5k0, 0x00);
  x = _mm_xor_si128(x, t);
  // Barrett reduction to the 32-bit register.
  t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
}

// Advances the (inverted) register `c` over n >= 16 bytes at p.
CMTOS_CLMUL_TARGET std::uint32_t crc_fold128(std::uint32_t c, const std::uint8_t* p,
                                             std::size_t n) {
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  p += 16;
  n -= 16;
  if (n >= 48) {
    // Four lanes while a whole 64-byte block remains, then collapse.
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k = k3k4();
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
    x1 = fold(x1, k, x2);
    x1 = fold(x1, k, x3);
    x1 = fold(x1, k, x4);
  }
  return finish(x1, p, n);
}

CMTOS_VPCLMUL_TARGET inline __m512i load512(const std::uint8_t* p) {
  return _mm512_loadu_si512(p);
}

// The pair (lo, hi) in every 128-bit lane.
CMTOS_VPCLMUL_TARGET inline __m512i lanes(std::int64_t lo, std::int64_t hi) {
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

// fold() on four lanes at once.
CMTOS_VPCLMUL_TARGET inline __m512i fold512(__m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next, 0x96);
}

// Advances the (inverted) register `c` over n >= 16 bytes at p.
CMTOS_VPCLMUL_TARGET std::uint32_t crc_fold512(std::uint32_t c, const std::uint8_t* p,
                                               std::size_t n) {
  if (n < 256) return crc_fold128(c, p, n);
  const __m512i k2048 = lanes(0x011542778a, 0x01322d1430);
  const __m512i k512 = lanes(0x0154442bd4, 0x01c6e41596);

  __m512i x1 = _mm512_xor_si512(
      load512(p), _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(c))));
  __m512i x2 = load512(p + 64);
  __m512i x3 = load512(p + 128);
  __m512i x4 = load512(p + 192);
  p += 256;
  n -= 256;
  for (; n >= 256; p += 256, n -= 256) {
    x1 = fold512(x1, k2048, load512(p));
    x2 = fold512(x2, k2048, load512(p + 64));
    x3 = fold512(x3, k2048, load512(p + 128));
    x4 = fold512(x4, k2048, load512(p + 192));
  }
  x1 = fold512(x1, k512, x2);
  x1 = fold512(x1, k512, x3);
  x1 = fold512(x1, k512, x4);
  for (; n >= 64; p += 64, n -= 64) x1 = fold512(x1, k512, load512(p));

  // Lanes 0, 1 and 2 sit 384, 256 and 128 bits before lane 3: fold each by
  // its distance onto lane 3 (whose constant pair is zero), then sum lanes.
  const __m512i kl = _mm512_set_epi64(0, 0, 0x00ccaa009e, 0x01751997d0, 0x015a546366,
                                      0x00f1da05aa, 0x0174359406, 0x003db1ecdc);
  const __m512i y = fold512(x1, kl, _mm512_maskz_mov_epi64(0xc0, x1));
  const __m256i h = _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xf, y, 0),
                                     _mm512_maskz_extracti64x4_epi64(0xf, y, 1));
  const __m128i x = _mm_xor_si128(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
  return finish(x, p, n);
}

#undef CMTOS_VPCLMUL_TARGET
#undef CMTOS_CLMUL_TARGET

#endif  // __x86_64__

// Advances the (inverted) register `c` over data with kernel k, which the
// CPU supports.
std::uint32_t run(detail::CrcKernel k, std::uint32_t c, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMin) {
    if (k == detail::CrcKernel::kFold512) return crc_fold512(c, p, n);
    if (k == detail::CrcKernel::kFold128) return crc_fold128(c, p, n);
  }
#else
  (void)k;
#endif
  return crc_slice8(c, p, n);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return run(detail::crc32_kernel(), seed ^ 0xffffffffu, data) ^ 0xffffffffu;
}

namespace detail {

const char* to_string(CrcKernel k) {
  switch (k) {
    case CrcKernel::kTable: return "table";
    case CrcKernel::kFold128: return "fold128";
    case CrcKernel::kFold512: return "fold512";
  }
  return "?";
}

bool crc32_kernel_supported(CrcKernel k) {
  switch (k) {
    case CrcKernel::kTable: return true;
#if defined(__x86_64__)
    case CrcKernel::kFold128:
      __builtin_cpu_init();
      return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    case CrcKernel::kFold512:
      return crc32_kernel_supported(CrcKernel::kFold128) && __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("vpclmulqdq");
#else
    case CrcKernel::kFold128:
    case CrcKernel::kFold512: return false;
#endif
  }
  return false;
}

CrcKernel crc32_kernel() {
  static const CrcKernel kKernel = [] {
    for (CrcKernel k : {CrcKernel::kFold512, CrcKernel::kFold128})
      if (crc32_kernel_supported(k)) return k;
    return CrcKernel::kTable;
  }();
  return kKernel;
}

std::optional<std::uint32_t> crc32_with(CrcKernel k, std::span<const std::uint8_t> data,
                                        std::uint32_t seed) {
  if (!crc32_kernel_supported(k)) return std::nullopt;
  return run(k, seed ^ 0xffffffffu, data) ^ 0xffffffffu;
}

}  // namespace detail

}  // namespace cmtos
