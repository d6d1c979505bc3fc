// SUFFIX-sigma's two Hadoop customizations (Algorithm 4):
//
//  - the reverse lexicographic order over term sequences,
//        r < s  <=>  (|r| > |s| and s is a prefix of r)  or
//                    exists i: r[i] > s[i] and r[j] = s[j] for j < i,
//    implemented as a raw comparator that walks the two varbyte encodings
//    in lockstep without allocating;
//
//  - the first-term partitioner, which routes every suffix to the reducer
//    responsible for its first term, so one reducer sees all suffixes that
//    can represent n-grams starting with that term.
#pragma once

#include <cstring>

#include "encoding/sequence.h"
#include "mapreduce/comparator.h"
#include "mapreduce/partitioner.h"

namespace ngram {

class ReverseLexSequenceComparator final : public mr::RawComparator {
 public:
  int Compare(Slice a, Slice b) const override {
    // Byte-level fast path: varbyte encodings of equal term prefixes are
    // byte-identical, so skip the shared byte prefix with word-wide
    // compares and only decode terms from the first divergence. A full
    // byte-prefix match means one sequence is a term-prefix of the other
    // (the shorter encoding ends on a varint boundary), which the
    // reverse-lexicographic order resolves on length alone.
    const size_t min_len = a.size() < b.size() ? a.size() : b.size();
    const size_t i = CommonPrefixLength(a.data(), b.data(), min_len);
    if (i == min_len) {
      if (a.size() == b.size()) {
        return 0;
      }
      // The longer sequence (of which the other is a prefix) orders first.
      return a.size() > b.size() ? -1 : +1;
    }
    // Back up to the start of the varint containing the divergence: in
    // LEB128 every byte of a term except the last has the high bit set,
    // and the bytes before `i` are identical in both encodings.
    size_t j = i;
    while (j > 0 && (a.udata()[j - 1] & 0x80) != 0) {
      --j;
    }
    return CompareDecoded(Slice(a.data() + j, a.size() - j),
                          Slice(b.data() + j, b.size() - j));
  }

  /// First two term ids packed big-endian and bit-complemented: the
  /// complement turns the descending term order into the contract's
  /// ascending unsigned prefix order. A missing second (or first) term
  /// packs as 0 — the reserved-invalid id — so a one-term sequence gets a
  /// larger pack-complement than any two-term extension of it, matching
  /// longer-orders-first on prefix ties.
  uint64_t SortPrefix(Slice key) const override {
    SequenceReader reader(key);
    TermId first = 0, second = 0;
    if (reader.Next(&first)) {
      reader.Next(&second);
    }
    return ~((static_cast<uint64_t>(first) << 32) |
             static_cast<uint64_t>(second));
  }

  const char* Name() const override { return "reverse-lex-sequence"; }

  static const ReverseLexSequenceComparator* Instance() {
    static const ReverseLexSequenceComparator kInstance;
    return &kInstance;
  }

 private:
  /// The original lockstep term walk, applied from the first divergence.
  static int CompareDecoded(Slice a, Slice b) {
    SequenceReader ra(a);
    SequenceReader rb(b);
    for (;;) {
      TermId ta = 0, tb = 0;
      const bool ha = ra.Next(&ta);
      const bool hb = rb.Next(&tb);
      if (ha && hb) {
        if (ta != tb) {
          // Larger term id first (descending), per the paper's comparator.
          return ta > tb ? -1 : +1;
        }
      } else if (ha) {
        return -1;  // a strictly longer, b a prefix of a: a orders first.
      } else if (hb) {
        return +1;
      } else {
        return 0;
      }
    }
  }
};

/// Partitions an encoded sequence by its first term only (Algorithm 4's
/// partition() = hashcode(s[0]) mod R).
class FirstTermPartitioner final : public mr::Partitioner {
 public:
  uint32_t Partition(Slice key, uint32_t num_partitions) const override {
    TermId first = 0;
    SequenceReader reader(key);
    reader.Next(&first);
    // SplitMix64 finalizer as the "hashcode".
    uint64_t z = first + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<uint32_t>(z % num_partitions);
  }

  const char* Name() const override { return "first-term"; }

  static const FirstTermPartitioner* Instance() {
    static const FirstTermPartitioner kInstance;
    return &kInstance;
  }
};

}  // namespace ngram
