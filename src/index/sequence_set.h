// SequenceSet: a compact hash set of encoded term sequences, used as the
// frequent-(k-1)-gram dictionary of APRIORI-SCAN (Algorithm 2's
// `hashset<int[]> dict`).
//
// Entries are stored back-to-back in an arena ([len varint][bytes]) with an
// open-addressing offset table, so the per-entry overhead stays a few bytes
// — the paper notes that "to make lookups in the dictionary efficient,
// significant main memory at cluster nodes is required", and this structure
// is what keeps that footprint measurable and as small as possible. Past a
// configurable budget the set migrates to the disk KV store (the paper's
// Berkeley DB fallback).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "encoding/sequence.h"
#include "kvstore/kvstore.h"
#include "util/macros.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram {

class SequenceSet {
 public:
  struct Options {
    /// Budget for arena + bucket table before spilling to disk. SIZE_MAX
    /// never spills.
    size_t memory_budget_bytes = SIZE_MAX;
    /// Directory for the spill KV store (required if spilling can happen).
    /// The spill starts it empty; the set deletes it when destroyed.
    std::string spill_dir;
  };

  SequenceSet() : SequenceSet(Options{}) {}
  explicit SequenceSet(Options options);
  ~SequenceSet();

  NGRAM_DISALLOW_COPY_AND_ASSIGN(SequenceSet);

  /// Inserts an encoded sequence; duplicates are ignored.
  Status Insert(Slice encoded);

  /// Convenience: encodes and inserts a term sequence.
  Status InsertSequence(const TermSequence& seq);

  /// Membership test on the encoded form.
  bool Contains(Slice encoded) const;

  /// Convenience: encodes `seq[begin..end)` into a caller-provided scratch
  /// buffer and tests membership — the APRIORI-SCAN mapper's hot path,
  /// allocation-free across calls.
  bool ContainsRange(const TermSequence& seq, size_t begin, size_t end,
                     std::string* scratch) const;

  uint64_t size() const { return size_; }
  /// Current main-memory footprint (arena + buckets), for metrics.
  size_t MemoryBytes() const;
  bool spilled() const { return store_ != nullptr; }

 private:
  bool FindInMemory(Slice encoded, uint64_t hash, size_t* bucket) const;
  void GrowBuckets();
  Status SpillToStore();

  /// 1-byte hash tag stored per occupied bucket: probes reject almost all
  /// non-matching buckets on the tag alone, skipping the arena read.
  static uint8_t Tag(uint64_t hash) {
    return static_cast<uint8_t>(hash >> 56);
  }

  Options options_;
  // Arena entries: [len varint][bytes]...
  std::string arena_;
  // Bucket table: offset + 1 into arena_, 0 = empty. Power-of-two size.
  std::vector<uint64_t> buckets_;
  // Hash tags, parallel to buckets_ (meaningful where buckets_[b] != 0).
  std::vector<uint8_t> tags_;
  uint64_t size_ = 0;
  uint64_t in_memory_size_ = 0;
  mutable std::unique_ptr<kv::KVStore> store_;  // Non-null once spilled.
};

}  // namespace ngram
