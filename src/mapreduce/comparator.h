// Raw comparators: total orders over *serialized* keys. Sorting on raw
// bytes without deserialization is one of the paper's Hadoop-specific
// optimizations (Section V) and is how this runtime sorts the shuffle.
#pragma once

#include <cstring>

#include "util/slice.h"

namespace ngram::mr {

/// Interface for key orders. Implementations must be stateless/thread-safe:
/// one instance is shared by all sort and merge workers.
class RawComparator {
 public:
  virtual ~RawComparator() = default;

  /// Classic three-way compare: negative if a orders before b, zero iff the
  /// keys are equal for grouping purposes, positive otherwise.
  virtual int Compare(Slice a, Slice b) const = 0;

  /// \brief 8-byte order-preserving sort-key prefix.
  ///
  /// Contract: SortPrefix(a) < SortPrefix(b) (unsigned) implies
  /// Compare(a, b) < 0; equal prefixes imply nothing and require a full
  /// Compare. The shuffle caches this per record so the overwhelming
  /// majority of sort and merge comparisons are a single integer compare
  /// that never touches the key bytes. The default (constant 0) makes
  /// every prefix comparison inconclusive, which is always correct.
  virtual uint64_t SortPrefix(Slice key) const { return 0; }

  /// Human-readable name for logs.
  virtual const char* Name() const = 0;
};

/// memcmp order; the default, equivalent to Hadoop's BytesWritable order.
class BytewiseComparator final : public RawComparator {
 public:
  int Compare(Slice a, Slice b) const override { return a.compare(b); }

  /// First 8 key bytes, big-endian packed (zero padded): unsigned integer
  /// order on the prefix equals memcmp order on those bytes, and a short
  /// key that is a prefix of a longer one yields a smaller-or-equal
  /// prefix, never a larger one.
  uint64_t SortPrefix(Slice key) const override {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (key.size() >= 8) {
      uint64_t word;
      memcpy(&word, key.data(), 8);
      return __builtin_bswap64(word);
    }
#endif
    uint64_t prefix = 0;
    const size_t n = key.size() < 8 ? key.size() : 8;
    for (size_t i = 0; i < n; ++i) {
      prefix |= static_cast<uint64_t>(key.udata()[i]) << (56 - 8 * i);
    }
    return prefix;
  }

  const char* Name() const override { return "bytewise"; }

  static const BytewiseComparator* Instance() {
    static const BytewiseComparator kInstance;
    return &kInstance;
  }
};

}  // namespace ngram::mr
