#include "mapreduce/sort_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/rev_lex.h"
#include "corpus/zipf.h"
#include "encoding/sequence.h"
#include "encoding/serde.h"
#include "mapreduce/job.h"
#include "mapreduce/merge.h"
#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

class SortBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("sortbuf-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  SortBuffer::Options Opts(uint32_t partitions, size_t budget) {
    SortBuffer::Options o;
    o.num_partitions = partitions;
    o.budget_bytes = budget;
    o.work_dir = dir_->path().string();
    return o;
  }

  /// Reads all records of one partition of a run back.
  std::vector<std::pair<std::string, std::string>> ReadPartition(
      const SpillRun& run, uint32_t partition) {
    std::vector<std::pair<std::string, std::string>> out;
    auto reader = OpenRunPartition(run, partition);
    if (reader == nullptr) {
      return out;
    }
    while (reader->Next()) {
      out.emplace_back(reader->key().ToString(), reader->value().ToString());
    }
    EXPECT_TRUE(reader->status().ok());
    return out;
  }

  /// Adds a record with a `key_size`-byte key whose charge is exactly
  /// `budget`, then a small one. The first reaches the budget and spills
  /// at once; the final flush spills too, since a run is already on disk.
  /// `framing_bytes` pins the width of the record's two length varints.
  void ExpectRecordAtBudgetSpills(size_t budget, size_t key_size,
                                  int framing_bytes) {
    size_t value_size = 0;
    while (SortBuffer::RecordCharge(key_size, value_size) < budget) {
      ++value_size;
    }
    ASSERT_EQ(SortBuffer::RecordCharge(key_size, value_size), budget);
    ASSERT_EQ(VarintLength(key_size) + VarintLength(value_size),
              framing_bytes);
    const std::string key(key_size, 'k');
    const std::string value(value_size, 'v');
    Counters counters;
    TaskCounters tc(&counters);
    {
      // One byte under the budget stays in memory.
      SortBuffer under(Opts(1, budget), &tc);
      ASSERT_TRUE(under.Add(0, key, Slice(value.data(), value_size - 1)).ok());
      EXPECT_EQ(under.spill_count(), 0u);
    }
    SortBuffer buffer(Opts(1, budget), &tc);
    ASSERT_TRUE(buffer.Add(0, key, value).ok());
    ASSERT_TRUE(buffer.Add(0, "tail", "t").ok());
    std::vector<SpillRun> runs;
    ASSERT_TRUE(buffer.Finish(&runs).ok());
    EXPECT_EQ(buffer.spill_count(), 2u);  // Boundary spill + final flush.
    size_t total = 0;
    for (const auto& run : runs) {
      total += ReadPartition(run, 0).size();
    }
    EXPECT_EQ(total, 2u);
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SortBufferTest, SortsWithinPartition) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer buffer(Opts(1, 1 << 20), &tc);
  ASSERT_TRUE(buffer.Add(0, "cherry", "3").ok());
  ASSERT_TRUE(buffer.Add(0, "apple", "1").ok());
  ASSERT_TRUE(buffer.Add(0, "banana", "2").ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].in_memory());
  auto records = ReadPartition(runs[0], 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].first, "apple");
  EXPECT_EQ(records[1].first, "banana");
  EXPECT_EQ(records[2].first, "cherry");
}

TEST_F(SortBufferTest, PartitionsAreSeparated) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer buffer(Opts(3, 1 << 20), &tc);
  ASSERT_TRUE(buffer.Add(2, "z", "").ok());
  ASSERT_TRUE(buffer.Add(0, "a", "").ok());
  ASSERT_TRUE(buffer.Add(1, "m", "").ok());
  ASSERT_TRUE(buffer.Add(0, "b", "").ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(ReadPartition(runs[0], 0).size(), 2u);
  EXPECT_EQ(ReadPartition(runs[0], 1).size(), 1u);
  EXPECT_EQ(ReadPartition(runs[0], 2).size(), 1u);
  EXPECT_EQ(runs[0].segments[0].num_records, 2u);
}

TEST_F(SortBufferTest, StableForEqualKeys) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer buffer(Opts(1, 1 << 20), &tc);
  ASSERT_TRUE(buffer.Add(0, "same", "first").ok());
  ASSERT_TRUE(buffer.Add(0, "same", "second").ok());
  ASSERT_TRUE(buffer.Add(0, "same", "third").ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  auto records = ReadPartition(runs[0], 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].second, "first");
  EXPECT_EQ(records[1].second, "second");
  EXPECT_EQ(records[2].second, "third");
}

TEST_F(SortBufferTest, TinyBudgetSpillsToFiles) {
  Counters counters;
  uint64_t total_records = 500;
  {
    TaskCounters tc(&counters);
    SortBuffer buffer(Opts(2, 256), &tc);
    for (uint64_t i = 0; i < total_records; ++i) {
      const std::string key = "key" + std::to_string(i % 50);
      ASSERT_TRUE(
          buffer.Add(static_cast<uint32_t>(i % 2), key, "v").ok());
    }
    std::vector<SpillRun> runs;
    ASSERT_TRUE(buffer.Finish(&runs).ok());
    EXPECT_GT(buffer.spill_count(), 1u);
    uint64_t read_back = 0;
    for (const auto& run : runs) {
      EXPECT_FALSE(run.in_memory());
      read_back += ReadPartition(run, 0).size();
      read_back += ReadPartition(run, 1).size();
    }
    EXPECT_EQ(read_back, total_records);
  }
  EXPECT_EQ(counters.Get(kSpilledRecords), total_records);
  EXPECT_GT(counters.Get(kSpillFiles), 1u);
}

TEST_F(SortBufferTest, CombinerAggregatesWithinSpill) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer::Options opts = Opts(1, 1 << 20);
  opts.combiner = SumCombiner();
  SortBuffer buffer(opts, &tc);
  const std::string one = SerializeToString<uint64_t>(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buffer.Add(0, "word", one).ok());
  }
  ASSERT_TRUE(buffer.Add(0, "other", one).ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  auto records = ReadPartition(runs[0], 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first, "other");
  uint64_t count = 0;
  ASSERT_TRUE(Serde<uint64_t>::Decode(Slice(records[1].second), &count));
  EXPECT_EQ(count, 10u);
  tc.Flush();
  EXPECT_EQ(counters.Get(kCombineInputRecords), 11u);
  EXPECT_EQ(counters.Get(kCombineOutputRecords), 2u);
}

TEST_F(SortBufferTest, CustomComparatorControlsOrder) {
  // Reverse bytewise order.
  class ReverseComparator final : public RawComparator {
   public:
    int Compare(Slice a, Slice b) const override { return b.compare(a); }
    const char* Name() const override { return "reverse"; }
  };
  static const ReverseComparator kReverse;

  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer::Options opts = Opts(1, 1 << 20);
  opts.comparator = &kReverse;
  SortBuffer buffer(opts, &tc);
  ASSERT_TRUE(buffer.Add(0, "a", "").ok());
  ASSERT_TRUE(buffer.Add(0, "c", "").ok());
  ASSERT_TRUE(buffer.Add(0, "b", "").ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  auto records = ReadPartition(runs[0], 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].first, "c");
  EXPECT_EQ(records[1].first, "b");
  EXPECT_EQ(records[2].first, "a");
}

TEST_F(SortBufferTest, EmptyBufferYieldsNoRuns) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer buffer(Opts(4, 1 << 20), &tc);
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  EXPECT_TRUE(runs.empty());
}

TEST_F(SortBufferTest, PartitionOutOfRangeRejected) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer buffer(Opts(2, 1 << 20), &tc);
  EXPECT_TRUE(buffer.Add(2, "k", "v").IsInvalidArgument());
}

TEST_F(SortBufferTest, RecordExactlyAtBudgetSpillsAndSurvives) {
  ExpectRecordAtBudgetSpills(/*budget=*/256, /*key_size=*/120,
                             /*framing_bytes=*/2);
}

TEST_F(SortBufferTest, MultiByteFramedRecordExactlyAtBudgetSpills) {
  ExpectRecordAtBudgetSpills(/*budget=*/1024, /*key_size=*/200,
                             /*framing_bytes=*/4);
}

TEST_F(SortBufferTest, RecordLargerThanBudgetStreamsThroughSpill) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer buffer(Opts(1, 128), &tc);
  const std::string huge(4096, 'h');
  ASSERT_TRUE(buffer.Add(0, "big", huge).ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  ASSERT_EQ(runs.size(), 1u);
  auto records = ReadPartition(runs[0], 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, huge);
}

TEST_F(SortBufferTest, ArenaOffsetOverflowRejected) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer::Options opts = Opts(1, 1 << 20);
  opts.arena_limit_bytes = 512;  // Stand-in for the 4 GiB offset space.
  SortBuffer buffer(opts, &tc);
  // A record that can never fit the offset space is rejected outright...
  EXPECT_TRUE(buffer.Add(0, "k", std::string(600, 'v')).IsInvalidArgument());
  // ...and so is one whose key and value fit (511 bytes) but whose framing
  // does not (514: the value length takes two bytes)...
  EXPECT_TRUE(buffer.Add(0, "k", std::string(510, 'v')).IsInvalidArgument());
  // ...while records that fit after a spill keep working.
  ASSERT_TRUE(buffer.Add(0, "a", std::string(400, 'v')).ok());
  ASSERT_TRUE(buffer.Add(0, "b", std::string(400, 'v')).ok());
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  size_t total = 0;
  for (const auto& run : runs) {
    total += ReadPartition(run, 0).size();
  }
  EXPECT_EQ(total, 2u);
}

TEST_F(SortBufferTest, CombinerRunsPerSpillAndMergeRecombines) {
  // Force several spills of the same key: each spill combines its own
  // slice, the merge then surfaces one partial per run, in run order.
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer::Options opts = Opts(1, 512);
  opts.combiner = SumCombiner();
  SortBuffer buffer(opts, &tc);
  const std::string one = SerializeToString<uint64_t>(1);
  const int kRecords = 100;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(buffer.Add(0, "word", one).ok());
  }
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  ASSERT_GT(runs.size(), 1u);

  std::vector<std::unique_ptr<RecordReader>> sources;
  for (const auto& run : runs) {
    auto reader = OpenRunPartition(run, 0);
    ASSERT_NE(reader, nullptr);
    sources.push_back(std::move(reader));
  }
  KWayMerger merger(std::move(sources), BytewiseComparator::Instance());
  uint64_t total = 0, partials = 0;
  while (merger.Next()) {
    EXPECT_EQ(merger.key().ToString(), "word");
    uint64_t v = 0;
    ASSERT_TRUE(Serde<uint64_t>::Decode(merger.value(), &v));
    total += v;
    ++partials;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(partials, runs.size());
  tc.Flush();
  EXPECT_EQ(counters.Get(kCombineInputRecords),
            static_cast<uint64_t>(kRecords));
  EXPECT_EQ(counters.Get(kCombineOutputRecords), runs.size());
}

TEST_F(SortBufferTest, MultiRunMergeMatchesSingleRunOrder) {
  // The same records through a spilling buffer and a non-spilling buffer
  // must merge to the identical sequence (multi-run determinism).
  auto collect = [&](size_t budget) {
    Counters counters;
    TaskCounters tc(&counters);
    SortBuffer buffer(Opts(2, budget), &tc);
    for (int i = 0; i < 300; ++i) {
      const std::string key = "key" + std::to_string((i * 7) % 40);
      const std::string value = "v" + std::to_string(i);
      EXPECT_TRUE(
          buffer.Add(static_cast<uint32_t>(i % 2), key, value).ok());
    }
    std::vector<SpillRun> runs;
    EXPECT_TRUE(buffer.Finish(&runs).ok());
    std::vector<std::pair<std::string, std::string>> merged;
    for (uint32_t p = 0; p < 2; ++p) {
      std::vector<std::unique_ptr<RecordReader>> sources;
      for (const auto& run : runs) {
        auto reader = OpenRunPartition(run, p);
        if (reader != nullptr) {
          sources.push_back(std::move(reader));
        }
      }
      KWayMerger merger(std::move(sources), BytewiseComparator::Instance());
      while (merger.Next()) {
        merged.emplace_back(merger.key().ToString(),
                            merger.value().ToString());
      }
    }
    return merged;
  };
  const auto spilled = collect(512);      // Many runs.
  const auto in_memory = collect(1 << 20);  // Single in-memory run.
  EXPECT_EQ(spilled, in_memory);
}

TEST_F(SortBufferTest, FailedSpillUnlinksPartialFile) {
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer::Options opts = Opts(1, 256);
  opts.combiner = [](Slice key, RawValueIterator* values,
                     RecordSink* sink) -> Status {
    if (key == Slice("boom")) {
      return Status::Internal("combiner exploded");
    }
    values->NextValue();
    return sink->Append(key, values->value());
  };
  SortBuffer buffer(opts, &tc);
  // Benign records exceed the budget, producing successful spill files.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(buffer.Add(0, "key" + std::to_string(i), "v").ok());
  }
  ASSERT_GT(buffer.spill_count(), 0u);
  // The poisoned key makes the final to-disk flush fail mid-write.
  ASSERT_TRUE(buffer.Add(0, "boom", "v").ok());
  std::vector<SpillRun> runs;
  EXPECT_FALSE(buffer.Finish(&runs).ok());
  // Only the successful spill files remain; the partial one is unlinked.
  size_t files = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_->path())) {
    ++files;
  }
  EXPECT_EQ(files, buffer.spill_count());
}

TEST_F(SortBufferTest, CompressedSpillsShrinkAndCountRunBytes) {
  // Spilled runs are sorted, so adjacent keys share prefixes; the block
  // format must write fewer at-rest bytes than the record framing and expose
  // the split through RUN_BYTES_RAW / RUN_BYTES_WRITTEN.
  Counters counters;
  TaskCounters tc(&counters);
  SortBuffer::Options opts = Opts(2, 4096);
  SortBuffer buffer(opts, &tc);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(buffer.Add(static_cast<uint32_t>(i % 2),
                           "shared-prefix-key-" + std::to_string(i),
                           "value-" + std::to_string(i))
                    .ok());
  }
  std::vector<SpillRun> runs;
  ASSERT_TRUE(buffer.Finish(&runs).ok());
  ASSERT_GT(runs.size(), 1u);
  uint64_t records = 0;
  for (const auto& run : runs) {
    ASSERT_FALSE(run.in_memory());
    for (uint32_t p = 0; p < 2; ++p) {
      records += ReadPartition(run, p).size();
    }
  }
  EXPECT_EQ(records, 500u);
  tc.Flush();
  const uint64_t raw = counters.Get(kRunBytesRaw);
  const uint64_t written = counters.Get(kRunBytesWritten);
  ASSERT_GT(raw, 0u);
  EXPECT_LT(written, raw);
}

// --- Sort order against a reference sort ------------------------------
//
// An unspilled, uncombined Finish hands the sorted bucket refs to the run
// as-is, so they spell out the permutation the sort chose. It must equal a
// reference std::sort under the full order (prefix, Compare, insertion
// index) — the one permutation every correct sort produces, and the one a
// stable comparator sort would.

/// Keeps the default constant-0 prefix: every bucket is one equal-prefix
/// range and no radix pass ever runs.
class ConstantPrefixComparator final : public RawComparator {
 public:
  int Compare(Slice a, Slice b) const override { return a.compare(b); }
  const char* Name() const override { return "constant-prefix"; }
};

/// Bytewise order with a prefix of only the first key byte (in the low
/// byte): one radix pass, then large ranges of distinct keys sharing it.
class FirstBytePrefixComparator final : public RawComparator {
 public:
  int Compare(Slice a, Slice b) const override { return a.compare(b); }
  uint64_t SortPrefix(Slice key) const override {
    return key.empty() ? 0 : key.udata()[0];
  }
  const char* Name() const override { return "first-byte-prefix"; }
};

enum class RecordMix {
  kIdentical,      // One key, repeated.
  kZipf,           // Zipf-distributed duplicates of a key pool.
  kFewKeysZipf,    // Zipf over six close keys: long equal-key runs.
  kSharedPrefix,   // Distinct keys sharing their first 8 bytes.
  kBytePrefixes,   // Keys that are byte-prefixes of other keys.
  kEmpty,          // Half empty keys, half short keys.
  kLongKeys,       // Keys of 127, 128, 16383 and 16384 bytes.
  kLongValues,     // kFewKeysZipf's keys, values of 127 to 16384 bytes.
  kEmptyValues,    // kFewKeysZipf's keys, every value empty.
};

const char* MixName(RecordMix mix) {
  switch (mix) {
    case RecordMix::kIdentical: return "identical";
    case RecordMix::kZipf: return "zipf";
    case RecordMix::kFewKeysZipf: return "few-keys-zipf";
    case RecordMix::kSharedPrefix: return "shared-prefix";
    case RecordMix::kBytePrefixes: return "byte-prefixes";
    case RecordMix::kEmpty: return "empty";
    case RecordMix::kLongKeys: return "long-keys";
    case RecordMix::kLongValues: return "long-values";
    case RecordMix::kEmptyValues: return "empty-values";
  }
  return "?";
}

/// Lengths whose varints take one, two and three bytes, at each edge.
constexpr size_t kFramingEdgeLengths[] = {127, 128, 16383, 16384};

/// Keys are encoded term sequences, so the reverse-lex comparator sees
/// well-formed input; term ids up to 1e5 give 1–3 byte varints.
TermSequence RandomSequence(Rng* rng, size_t min_len, size_t max_len,
                            uint64_t max_term) {
  TermSequence seq(min_len + rng->Uniform(max_len - min_len + 1));
  for (TermId& t : seq) {
    t = static_cast<TermId>(1 + rng->Uniform(max_term));
  }
  return seq;
}

std::string Encode(const TermSequence& seq) {
  std::string key;
  SequenceCodec::Encode(seq, &key);
  return key;
}

/// Samples `n` keys Zipf-distributed over `pool`.
std::vector<std::string> ZipfKeys(const std::vector<std::string>& pool,
                                  size_t n, Rng* rng) {
  const ZipfSampler zipf(pool.size(), 1.0);
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(pool[zipf.Sample(rng) - 1]);
  }
  return keys;
}

std::vector<std::string> MakeKeys(RecordMix mix, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> keys;
  keys.reserve(n);
  switch (mix) {
    case RecordMix::kIdentical:
      keys.assign(n, Encode({3, 1, 4, 1, 5, 9, 2, 6, 5, 3}));
      break;
    case RecordMix::kZipf: {
      std::vector<std::string> pool;
      for (int i = 0; i < 500; ++i) {
        pool.push_back(Encode(RandomSequence(&rng, 1, 5, 3000)));
      }
      keys = ZipfKeys(pool, n, &rng);
      break;
    }
    case RecordMix::kFewKeysZipf:
    case RecordMix::kLongValues:
    case RecordMix::kEmptyValues:
      // Pairs that differ in their first term, in their last term, only
      // past the first 8 bytes, and by a byte-prefix.
      keys = ZipfKeys(
          {Encode({5, 9, 200, 7}), Encode({6, 9, 200, 7}),
           Encode({5, 9, 200, 8}), Encode({1, 2, 3, 4, 5, 6, 7, 8, 9}),
           Encode({1, 2, 3, 4, 5, 6, 7, 8, 10}), Encode({5, 9, 200, 7, 1})},
          n, &rng);
      break;
    case RecordMix::kSharedPrefix: {
      const std::string head = Encode({1, 2, 3, 4, 5, 6, 7, 8});
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(head + Encode(RandomSequence(&rng, 1, 3, 100000)));
      }
      break;
    }
    case RecordMix::kBytePrefixes: {
      // Cut at term boundaries: still byte-prefixes, still well-formed.
      std::vector<TermSequence> bases;
      for (int i = 0; i < 4; ++i) {
        bases.push_back(RandomSequence(&rng, 6, 14, 300));
      }
      for (size_t i = 0; i < n; ++i) {
        const TermSequence& base = bases[rng.Uniform(bases.size())];
        const size_t len = rng.Uniform(base.size() + 1);
        keys.push_back(Encode(TermSequence(base.begin(), base.begin() + len)));
      }
      break;
    }
    case RecordMix::kEmpty:
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(rng.OneIn(0.5) ? std::string()
                                      : Encode(RandomSequence(&rng, 1, 2, 50)));
      }
      break;
    case RecordMix::kLongKeys: {
      // One-byte terms, so a key of L terms is L bytes; two pool keys per
      // length, differing only in their last term.
      std::vector<std::string> pool;
      for (size_t len : kFramingEdgeLengths) {
        const std::string key = Encode(RandomSequence(&rng, len, len, 127));
        pool.push_back(key);
        const TermId last = static_cast<TermId>(key.back());
        pool.push_back(key.substr(0, len - 1) + Encode({last % 127 + 1}));
      }
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(pool[rng.Uniform(pool.size())]);
      }
      break;
    }
  }
  return keys;
}

/// Record i's value starts with i in decimal; the long-value mix pads it
/// to a framing-edge length and the empty-value mix leaves it empty.
std::string MakeValue(RecordMix mix, size_t i) {
  std::string value;
  if (mix != RecordMix::kEmptyValues) {
    value = std::to_string(i);
  }
  if (mix == RecordMix::kLongValues) {
    value.resize(kFramingEdgeLengths[i % 4], 'v');
  }
  return value;
}

void ExpectReferenceOrder(const RawComparator* cmp, const std::string& dir) {
  const size_t cutoff = SortBuffer::kRadixSortMinRecords;
  const std::vector<size_t> sizes = {0,          1,      2,     cutoff - 1,
                                     cutoff,     cutoff + 1,   20000};
  for (RecordMix mix :
       {RecordMix::kIdentical, RecordMix::kZipf, RecordMix::kFewKeysZipf,
        RecordMix::kSharedPrefix, RecordMix::kBytePrefixes, RecordMix::kEmpty,
        RecordMix::kLongKeys, RecordMix::kLongValues,
        RecordMix::kEmptyValues}) {
    for (size_t n : sizes) {
      if (mix == RecordMix::kLongKeys || mix == RecordMix::kLongValues) {
        n = std::min<size_t>(n, 600);  // ~8 KiB records.
      }
      SCOPED_TRACE(std::string(cmp->Name()) + " mix=" + MixName(mix) +
                   " n=" + std::to_string(n));
      const std::vector<std::string> keys = MakeKeys(mix, n, 17 + n);
      std::vector<std::string> values;
      for (size_t i = 0; i < n; ++i) {
        values.push_back(MakeValue(mix, i));
      }
      Counters counters;
      TaskCounters tc(&counters);
      SortBuffer::Options opts;
      opts.budget_bytes = size_t{1} << 30;
      opts.work_dir = dir;
      opts.comparator = cmp;
      SortBuffer buffer(opts, &tc);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(buffer.Add(0, keys[i], values[i]).ok());
      }
      std::vector<SpillRun> runs;
      ASSERT_TRUE(buffer.Finish(&runs).ok());
      if (n == 0) {
        EXPECT_TRUE(runs.empty());
        continue;
      }
      ASSERT_EQ(runs.size(), 1u);
      ASSERT_TRUE(runs[0].zero_copy());
      const SpillRun::MemoryBucket& bucket = runs[0].buckets[0];
      ASSERT_EQ(bucket.refs.size(), n);

      std::vector<uint64_t> prefixes(n);
      for (size_t i = 0; i < n; ++i) {
        prefixes[i] = cmp->SortPrefix(keys[i]);
      }
      std::vector<uint32_t> want(n);
      std::iota(want.begin(), want.end(), 0u);
      std::sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
        if (prefixes[a] != prefixes[b]) {
          return prefixes[a] < prefixes[b];
        }
        const int c = cmp->Compare(keys[a], keys[b]);
        return c != 0 ? c < 0 : a < b;
      });

      // Insertion indices come from the values. Empty values carry none;
      // those records are told apart by where their frame must start:
      // frames are laid out back to back in insertion order.
      std::map<uint32_t, uint32_t> index_at_offset;
      uint64_t offset = 0;
      for (size_t i = 0; i < n; ++i) {
        index_at_offset[static_cast<uint32_t>(offset)] =
            static_cast<uint32_t>(i);
        offset += SortBuffer::RecordCharge(keys[i].size(), values[i].size()) -
                  sizeof(SortedRecordRef);
      }
      ASSERT_EQ(bucket.arena.size(), offset);
      std::vector<uint32_t> got;
      for (const SortedRecordRef ref : bucket.refs) {
        Slice key, value;
        ArenaRecordAt(bucket.arena.data(), ref.offset, &key, &value);
        uint32_t i = 0;
        if (value.empty()) {
          const auto it = index_at_offset.find(ref.offset);
          ASSERT_NE(it, index_at_offset.end());
          i = it->second;
        } else {
          i = static_cast<uint32_t>(std::stoul(value.ToString()));
        }
        ASSERT_LT(i, n);
        ASSERT_EQ(key, Slice(keys[i]));
        ASSERT_EQ(value, Slice(values[i]));
        ASSERT_EQ(ref.sort_prefix, prefixes[i]);
        got.push_back(i);
      }
      EXPECT_EQ(got, want);
    }
  }
}

TEST_F(SortBufferTest, SortOrderMatchesReferenceBytewise) {
  ExpectReferenceOrder(BytewiseComparator::Instance(), dir_->path().string());
}

TEST_F(SortBufferTest, SortOrderMatchesReferenceReverseLex) {
  ExpectReferenceOrder(ReverseLexSequenceComparator::Instance(),
                       dir_->path().string());
}

TEST_F(SortBufferTest, SortOrderMatchesReferenceConstantPrefix) {
  static const ConstantPrefixComparator kCmp;
  ExpectReferenceOrder(&kCmp, dir_->path().string());
}

TEST_F(SortBufferTest, SortOrderMatchesReferenceFirstBytePrefix) {
  static const FirstBytePrefixComparator kCmp;
  ExpectReferenceOrder(&kCmp, dir_->path().string());
}

}  // namespace
}  // namespace ngram::mr
