#include "index/spillable_vector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "encoding/sequence.h"
#include "mapreduce/io_env.h"
#include "mapreduce/record.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

class SpillableVectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("spillable-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  template <typename T>
  static std::vector<T> Replay(SpillableVector<T>* vec) {
    std::vector<T> seen;
    EXPECT_TRUE(vec->ForEach([&](const T& item) {
                     seen.push_back(item);
                     return Status::OK();
                   })
                    .ok());
    return seen;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SpillableVectorTest, StaysInMemoryUnderBudget) {
  SpillableVector<uint64_t> vec(dir_->File("v"), 1 << 20, nullptr);
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(vec.Append(i * 3).ok());
    expected.push_back(i * 3);
  }
  EXPECT_FALSE(vec.spilled());
  EXPECT_EQ(vec.size(), 100u);
  EXPECT_EQ(Replay(&vec), expected);
  EXPECT_TRUE(std::filesystem::is_empty(dir_->path()));
}

TEST_F(SpillableVectorTest, SpillsPastBudgetAndReplaysInOrder) {
  const std::string path = dir_->File("v");
  SpillableVector<std::string> vec(path, 64, nullptr);
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    const std::string item = "item-" + std::to_string(i);
    ASSERT_TRUE(vec.Append(item).ok());
    expected.push_back(item);
  }
  EXPECT_TRUE(vec.spilled());
  EXPECT_EQ(vec.size(), 50u);
  // The nested-loop join replays a buffer once per outer item.
  EXPECT_EQ(Replay(&vec), expected);
  EXPECT_EQ(Replay(&vec), expected);

  // The committed run is one block-format record per item: an empty key
  // and the item's Serde value.
  uint64_t run_bytes = 0;
  ASSERT_TRUE(mr::IoEnv::Default()->FileSize(path, &run_bytes).ok());
  mr::FileRecordReader reader(path, 0, run_bytes);
  size_t i = 0;
  while (reader.Next()) {
    ASSERT_LT(i, expected.size());
    std::string encoded;
    Serde<std::string>::Encode(expected[i++], &encoded);
    EXPECT_TRUE(reader.key().empty());
    EXPECT_EQ(reader.value().ToString(), encoded);
  }
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(i, expected.size());

  // A committed run takes no more items.
  EXPECT_FALSE(vec.Append("late").ok());
}

TEST_F(SpillableVectorTest, ComplexValueType) {
  using Item = std::pair<TermSequence, uint64_t>;
  SpillableVector<Item> vec(dir_->File("c"), 32, nullptr);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(vec.Append({{1, 2, static_cast<TermId>(i)}, i}).ok());
  }
  EXPECT_TRUE(vec.spilled());
  uint64_t count = 0;
  ASSERT_TRUE(vec.ForEach([&](const Item& item) {
                   EXPECT_EQ(item.first[2], count);
                   EXPECT_EQ(item.second, count);
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 20u);
}

TEST_F(SpillableVectorTest, ForEachPropagatesCallbackError) {
  for (const size_t budget : {size_t{1} << 20, size_t{2}}) {
    SpillableVector<uint64_t> vec(dir_->File("d" + std::to_string(budget)),
                                  budget, nullptr);
    for (uint64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(vec.Append(i).ok());
    }
    EXPECT_EQ(vec.spilled(), budget == 2);
    uint64_t visited = 0;
    Status st = vec.ForEach([&](const uint64_t& v) {
      ++visited;
      return v == 2 ? Status::Cancelled("stop") : Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << "budget " << budget;
    EXPECT_EQ(visited, 2u) << "budget " << budget;
  }
}

TEST_F(SpillableVectorTest, DestructionDeletesTheSpillRun) {
  const std::string committed = dir_->File("committed");
  {
    SpillableVector<uint64_t> vec(committed, 8, nullptr);
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(vec.Append(i).ok());
    }
    ASSERT_TRUE(vec.spilled());
    ASSERT_EQ(Replay(&vec).size(), 10u);
    EXPECT_TRUE(std::filesystem::exists(committed));
  }
  EXPECT_FALSE(std::filesystem::exists(committed));
  {
    // Spilled but never replayed: the staged run goes too.
    SpillableVector<uint64_t> vec(dir_->File("staged"), 8, nullptr);
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(vec.Append(i).ok());
    }
    ASSERT_TRUE(vec.spilled());
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_->path()));
}

TEST_F(SpillableVectorTest, SpilledReadFailureNamesTheRun) {
  // The spill reads through the given env, so a FaultEnv reaches it.
  mr::FaultPlan plan;
  plan.kind = mr::FaultPlan::Kind::kReadError;
  plan.op = 1;
  mr::FaultEnv env(mr::IoEnv::Default(), plan);
  const std::string path = dir_->File("faulty");
  {
    SpillableVector<uint64_t> vec(path, 8, &env);
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(vec.Append(i).ok());
    }
    Status st = vec.ForEach([](const uint64_t&) { return Status::OK(); });
    EXPECT_TRUE(env.fault_fired());
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.path(), path) << st.ToString();
    // The fault fired once; a replay reads the run intact.
    EXPECT_EQ(Replay(&vec).size(), 10u);
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_->path()));
}

}  // namespace
}  // namespace ngram
