#include "index/sequence_set.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

TEST(SequenceSetTest, InsertAndContains) {
  SequenceSet set;
  ASSERT_TRUE(set.InsertSequence({1, 2, 3}).ok());
  ASSERT_TRUE(set.InsertSequence({1, 2}).ok());
  std::string scratch;
  EXPECT_TRUE(set.ContainsRange({1, 2, 3}, 0, 3, &scratch));
  EXPECT_TRUE(set.ContainsRange({1, 2, 3}, 0, 2, &scratch));
  EXPECT_FALSE(set.ContainsRange({1, 2, 3}, 1, 3, &scratch));
  EXPECT_EQ(set.size(), 2u);
}

TEST(SequenceSetTest, DuplicatesIgnored) {
  SequenceSet set;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(set.InsertSequence({7, 8}).ok());
  }
  EXPECT_EQ(set.size(), 1u);
}

TEST(SequenceSetTest, EmptySequenceIsStorable) {
  SequenceSet set;
  ASSERT_TRUE(set.InsertSequence({}).ok());
  EXPECT_TRUE(set.Contains(Slice()));
  EXPECT_EQ(set.size(), 1u);
}

TEST(SequenceSetTest, GrowsThroughManyInsertsAndRehashes) {
  SequenceSet set;
  Rng rng(5);
  std::set<TermSequence> model;
  for (int i = 0; i < 20000; ++i) {
    TermSequence seq;
    const uint64_t len = 1 + rng.Uniform(5);
    for (uint64_t j = 0; j < len; ++j) {
      seq.push_back(1 + static_cast<TermId>(rng.Uniform(50)));
    }
    ASSERT_TRUE(set.InsertSequence(seq).ok());
    model.insert(seq);
  }
  EXPECT_EQ(set.size(), model.size());
  std::string scratch;
  for (const auto& seq : model) {
    ASSERT_TRUE(set.ContainsRange(seq, 0, seq.size(), &scratch));
  }
  // Random absent probes.
  for (int i = 0; i < 1000; ++i) {
    TermSequence seq = {1 + static_cast<TermId>(rng.Uniform(50)),
                        100 + static_cast<TermId>(rng.Uniform(50))};
    EXPECT_EQ(set.ContainsRange(seq, 0, seq.size(), &scratch),
              model.count(seq) > 0);
  }
}

TEST(SequenceSetTest, SpillsToKvStorePastBudget) {
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  SequenceSet::Options options;
  options.memory_budget_bytes = 4096;
  options.spill_dir = dir->File("spill");
  SequenceSet set(options);

  std::vector<TermSequence> inserted;
  for (TermId i = 1; i <= 2000; ++i) {
    const TermSequence seq = {i, i + 1, i + 2};
    ASSERT_TRUE(set.InsertSequence(seq).ok());
    inserted.push_back(seq);
  }
  EXPECT_TRUE(set.spilled());
  EXPECT_EQ(set.size(), 2000u);
  std::string scratch;
  for (const auto& seq : inserted) {
    ASSERT_TRUE(set.ContainsRange(seq, 0, seq.size(), &scratch))
        << seq[0];
  }
  EXPECT_FALSE(set.ContainsRange({90000, 1, 2}, 0, 3, &scratch));
  // Memory footprint collapsed after spilling.
  EXPECT_LT(set.MemoryBytes(), options.memory_budget_bytes * 4);
}

TEST(SequenceSetTest, OverBudgetWithoutSpillDirFails) {
  SequenceSet::Options options;
  options.memory_budget_bytes = 64;
  SequenceSet set(options);
  Status last;
  for (TermId i = 1; i <= 100 && last.ok(); ++i) {
    last = set.InsertSequence({i, i, i, i});
  }
  EXPECT_TRUE(last.IsResourceExhausted());
}

TEST(SequenceSetTest, InsertAfterSpillDeduplicates) {
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  SequenceSet::Options options;
  options.memory_budget_bytes = 256;
  options.spill_dir = dir->File("spill");
  SequenceSet set(options);
  for (TermId i = 1; i <= 200; ++i) {
    ASSERT_TRUE(set.InsertSequence({i}).ok());
  }
  ASSERT_TRUE(set.spilled());
  const uint64_t before = set.size();
  ASSERT_TRUE(set.InsertSequence({5}).ok());  // Already present.
  EXPECT_EQ(set.size(), before);
}

TEST(SequenceSetTest, SpillIgnoresAStaleStoreAndDeletesItsOwn) {
  auto dir = TempDir::Create("seqset-test");
  ASSERT_TRUE(dir.ok());
  const std::string spill = dir->File("spill");
  const Slice seven_seven("\x07\x07", 2);  // Encoded <7 7>.
  {
    // A store an earlier owner left under the same name.
    auto stale = kv::KVStore::OpenEmpty(spill);
    ASSERT_TRUE(stale.ok());
    ASSERT_TRUE((*stale)->Put(seven_seven).ok());
  }
  ASSERT_FALSE(std::filesystem::is_empty(spill));
  {
    SequenceSet::Options options;
    options.memory_budget_bytes = 256;
    options.spill_dir = spill;
    SequenceSet set(options);
    for (TermId i = 1; i <= 200; ++i) {
      ASSERT_TRUE(set.InsertSequence({i}).ok());
    }
    ASSERT_TRUE(set.spilled());
    EXPECT_EQ(set.size(), 200u);
    EXPECT_TRUE(set.Contains(Slice("\x07", 1)));
    EXPECT_FALSE(set.Contains(seven_seven));
  }
  EXPECT_FALSE(std::filesystem::exists(spill));
}

}  // namespace
}  // namespace ngram
