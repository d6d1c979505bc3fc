#include "util/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ngram {

namespace {

/// Lazily built tables for the zlib CRC-32 polynomial (reflected),
/// slicing-by-8: table[0] is the classic byte-at-a-time table; table[k]
/// advances a byte through k additional zero bytes, letting the hot loop
/// fold 8 input bytes per iteration instead of one table lookup per byte.
const uint32_t (*Crc32Tables())[256] {
  static const uint32_t(*tables)[256] = [] {
    static uint32_t t[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

/// Advances the inverted CRC register `c` over `p[0, n)`, slicing-by-8.
uint32_t ExtendPortable(uint32_t c, const uint8_t* p, size_t n) {
  const uint32_t(*t)[256] = Crc32Tables();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    memcpy(&lo, p, 4);
    memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xffu] ^ t[6][(c >> 8) & 0xffu] ^ t[5][(c >> 16) & 0xffu] ^
        t[4][c >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    c = t[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

#define NGRAM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// True when this CPU can run ExtendFolded; probed once per process.
bool CpuCanFold() {
  static const bool can_fold = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return can_fold;
}

NGRAM_CLMUL_TARGET inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: carries the 128-bit lane `x` forward by the distance
/// the constant pair `k` encodes and adds (XORs) in the lane `next`.
NGRAM_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advances the inverted CRC register `c` over `p[0, n)`, where n >= 64
/// and n is a multiple of 16, by folding 16-byte lanes with carry-less
/// multiplication, then reducing the last lane to 32 bits (Barrett).
/// Reflected-domain constants for the zlib polynomial from Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009); Chromium's zlib crc32_simd.c uses the
/// same values.
NGRAM_CLMUL_TARGET uint32_t ExtendFolded(uint32_t c, const uint8_t* p,
                                         size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four independent lanes fold 64 bytes per round.
  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = Fold(x1, k1k2, Load16(p));
    x2 = Fold(x2, k1k2, Load16(p + 16));
    x3 = Fold(x3, k1k2, Load16(p + 32));
    x4 = Fold(x4, k1k2, Load16(p + 48));
    p += 64;
    n -= 64;
  }
  // Merge the lanes, then fold any remaining 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = Fold(x1, k3k4, Load16(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  // 64 -> 32 bits.
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to the 32-bit remainder.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef NGRAM_CLMUL_TARGET

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32(uint32_t crc, const char* data, size_t n) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xffffffffu;
#if defined(__x86_64__)
  if (n >= 64 && CpuCanFold()) {
    const size_t folded = n & ~static_cast<size_t>(15);
    c = ExtendFolded(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ExtendPortable(c, p, n) ^ 0xffffffffu;
}

namespace internal {

uint32_t Crc32Portable(uint32_t crc, const char* data, size_t n) {
  return ExtendPortable(crc ^ 0xffffffffu,
                        reinterpret_cast<const uint8_t*>(data), n) ^
         0xffffffffu;
}

}  // namespace internal

}  // namespace ngram
