#include "mapreduce/sort_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>

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
  Counters counters;
  TaskCounters tc(&counters);
  const size_t budget = 256;
  SortBuffer buffer(Opts(1, budget), &tc);
  // Key + value + the 24-byte RecordRef land exactly on the budget.
  const std::string key(100, 'k');
  const std::string value(budget - key.size() - 24, 'v');
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
// as-is, so their `seq` fields spell out the permutation the sort chose.
// It must equal a reference std::sort under the full order (prefix,
// Compare, seq) — the one permutation every correct sort produces.

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

enum class KeyMix {
  kIdentical,      // One key, repeated.
  kZipf,           // Zipf-distributed duplicates of a key pool.
  kSharedPrefix,   // Distinct keys sharing their first 8 bytes.
  kBytePrefixes,   // Keys that are byte-prefixes of other keys.
  kEmpty,          // Half empty keys, half short keys.
};

const char* MixName(KeyMix mix) {
  switch (mix) {
    case KeyMix::kIdentical: return "identical";
    case KeyMix::kZipf: return "zipf";
    case KeyMix::kSharedPrefix: return "shared-prefix";
    case KeyMix::kBytePrefixes: return "byte-prefixes";
    case KeyMix::kEmpty: return "empty";
  }
  return "?";
}

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

std::vector<std::string> MakeKeys(KeyMix mix, size_t n, uint64_t seed) {
  Rng rng(seed);
  auto encode = [](const TermSequence& seq) {
    std::string key;
    SequenceCodec::Encode(seq, &key);
    return key;
  };
  std::vector<std::string> keys;
  keys.reserve(n);
  switch (mix) {
    case KeyMix::kIdentical: {
      const std::string key = encode({3, 1, 4, 1, 5, 9, 2, 6, 5, 3});
      keys.assign(n, key);
      break;
    }
    case KeyMix::kZipf: {
      std::vector<std::string> pool;
      for (int i = 0; i < 500; ++i) {
        pool.push_back(encode(RandomSequence(&rng, 1, 5, 3000)));
      }
      const ZipfSampler zipf(pool.size(), 1.0);
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(pool[zipf.Sample(&rng) - 1]);
      }
      break;
    }
    case KeyMix::kSharedPrefix: {
      const std::string head = encode({1, 2, 3, 4, 5, 6, 7, 8});
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(head + encode(RandomSequence(&rng, 1, 3, 100000)));
      }
      break;
    }
    case KeyMix::kBytePrefixes: {
      // Cut at term boundaries: still byte-prefixes, still well-formed.
      std::vector<TermSequence> bases;
      for (int i = 0; i < 4; ++i) {
        bases.push_back(RandomSequence(&rng, 6, 14, 300));
      }
      for (size_t i = 0; i < n; ++i) {
        const TermSequence& base = bases[rng.Uniform(bases.size())];
        const size_t len = rng.Uniform(base.size() + 1);
        keys.push_back(encode(TermSequence(base.begin(), base.begin() + len)));
      }
      break;
    }
    case KeyMix::kEmpty: {
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(rng.OneIn(0.5)
                           ? std::string()
                           : encode(RandomSequence(&rng, 1, 2, 50)));
      }
      break;
    }
  }
  return keys;
}

void ExpectReferenceOrder(const RawComparator* cmp, const std::string& dir) {
  const size_t cutoff = SortBuffer::kRadixSortMinRecords;
  const std::vector<size_t> sizes = {0,          1,      2,     cutoff - 1,
                                     cutoff,     cutoff + 1,   20000};
  const std::vector<KeyMix> mixes = {KeyMix::kIdentical, KeyMix::kZipf,
                                     KeyMix::kSharedPrefix,
                                     KeyMix::kBytePrefixes, KeyMix::kEmpty};
  for (KeyMix mix : mixes) {
    for (size_t n : sizes) {
      SCOPED_TRACE(std::string(cmp->Name()) + " mix=" + MixName(mix) +
                   " n=" + std::to_string(n));
      const std::vector<std::string> keys = MakeKeys(mix, n, 17 + n);
      Counters counters;
      TaskCounters tc(&counters);
      SortBuffer::Options opts;
      opts.budget_bytes = size_t{1} << 30;
      opts.work_dir = dir;
      opts.comparator = cmp;
      SortBuffer buffer(opts, &tc);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(buffer.Add(0, keys[i], std::to_string(i)).ok());
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

      std::vector<uint32_t> got;
      for (const SortedRecordRef& ref : bucket.refs) {
        ASSERT_LT(ref.seq, n);
        ASSERT_EQ(Slice(bucket.arena.data() + ref.key_offset, ref.key_len),
                  Slice(keys[ref.seq]));
        ASSERT_EQ(ref.sort_prefix, prefixes[ref.seq]);
        got.push_back(ref.seq);
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
