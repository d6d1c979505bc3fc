// CRC-32 (util/crc32.h) against a bit-at-a-time reference of the zlib
// polynomial: the dispatched kernel (which folds with carry-less
// multiplication where the CPU allows) and the portable slicing-by-8
// kernel must both match it for every length up to past the folding
// threshold many times over, at every alignment, from any running CRC.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/random.h"

namespace ngram {
namespace {

/// One reflected CRC-32 bit step per input bit — the definition, with no
/// tables and no folding.
uint32_t ReferenceStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1) ? (reg >> 1) ^ 0xedb88320u : reg >> 1;
  }
  return reg;
}

uint32_t ReferenceCrc32(uint32_t crc, const std::string& bytes) {
  uint32_t reg = crc ^ 0xffffffffu;
  for (const char c : bytes) {
    reg = ReferenceStep(reg, static_cast<uint8_t>(c));
  }
  return reg ^ 0xffffffffu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.Uniform(256));
  }
  return bytes;
}

TEST(Crc32Test, MatchesKnownVector) {
  // CRC-32 of "123456789" under the zlib polynomial.
  EXPECT_EQ(Crc32(0, "123456789", 9), 0xcbf43926u);
  EXPECT_EQ(internal::Crc32Portable(0, "123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, BothKernelsMatchBitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kAlignments = 16;
  const std::string bytes = RandomBytes(kMaxLen + kAlignments + 16, 17);
  // A 16-byte-aligned base, so `align` is the real address alignment.
  alignas(16) char buf[kMaxLen + kAlignments + 16];
  bytes.copy(buf, sizeof(buf));
  for (const uint32_t seed : {0u, 0x9e3779b9u}) {
    for (size_t align = 0; align < kAlignments; ++align) {
      const char* data = buf + align;
      // Extend the reference one byte at a time: reg is its inverted
      // register over data[0, len).
      uint32_t reg = seed ^ 0xffffffffu;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint32_t want = reg ^ 0xffffffffu;
        ASSERT_EQ(Crc32(seed, data, len), want)
            << "len " << len << " align " << align << " seed " << seed;
        ASSERT_EQ(internal::Crc32Portable(seed, data, len), want)
            << "len " << len << " align " << align << " seed " << seed;
        if (len < kMaxLen) {
          reg = ReferenceStep(reg, static_cast<uint8_t>(data[len]));
        }
      }
    }
  }
}

TEST(Crc32Test, ChainsAtEverySplit) {
  // Crc32(Crc32(0, a), b) == Crc32(0, a + b): how a stream is cut into
  // calls never changes its checksum, whichever kernel each piece takes.
  const std::string bytes = RandomBytes(300, 23);
  const uint32_t whole = Crc32(0, bytes.data(), bytes.size());
  EXPECT_EQ(whole, ReferenceCrc32(0, bytes));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(0, bytes.data(), split);
    EXPECT_EQ(Crc32(head, bytes.data() + split, bytes.size() - split), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace ngram
