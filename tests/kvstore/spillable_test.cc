#include "kvstore/spillable.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "util/temp_dir.h"

namespace ngram::kv {
namespace {

class SpillableVectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("spillable-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }
  std::unique_ptr<TempDir> dir_;
};

TEST_F(SpillableVectorTest, StaysInMemoryUnderBudget) {
  SpillableVector<uint64_t> vec(dir_->File("v"), 1 << 20);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(vec.Append(i).ok());
  }
  EXPECT_FALSE(vec.spilled());
  EXPECT_EQ(vec.size(), 100u);
}

TEST_F(SpillableVectorTest, SpillsPastBudgetAndReplaysInOrder) {
  SpillableVector<std::string> vec(dir_->File("v"), 64);
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    const std::string item = "item-" + std::to_string(i);
    ASSERT_TRUE(vec.Append(item).ok());
    expected.push_back(item);
  }
  EXPECT_TRUE(vec.spilled());
  EXPECT_EQ(vec.size(), 50u);

  std::vector<std::string> seen;
  ASSERT_TRUE(vec.ForEach([&](const std::string& s) {
                   seen.push_back(s);
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(seen, expected);
}

TEST_F(SpillableVectorTest, RandomAccessWorksInBothRegimes) {
  SpillableVector<uint64_t> in_mem(dir_->File("a"), 1 << 20);
  SpillableVector<uint64_t> on_disk(dir_->File("b"), 8);
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(in_mem.Append(i * 3).ok());
    ASSERT_TRUE(on_disk.Append(i * 3).ok());
  }
  EXPECT_FALSE(in_mem.spilled());
  EXPECT_TRUE(on_disk.spilled());
  uint64_t v = 0;
  ASSERT_TRUE(in_mem.At(17, &v).ok());
  EXPECT_EQ(v, 51u);
  ASSERT_TRUE(on_disk.At(17, &v).ok());
  EXPECT_EQ(v, 51u);
  EXPECT_EQ(on_disk.At(30, &v).code(), StatusCode::kOutOfRange);
}

TEST_F(SpillableVectorTest, ComplexValueType) {
  using Item = std::pair<TermSequence, uint64_t>;
  SpillableVector<Item> vec(dir_->File("c"), 32);
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
  SpillableVector<uint64_t> vec(dir_->File("d"), 1 << 20);
  ASSERT_TRUE(vec.Append(1).ok());
  ASSERT_TRUE(vec.Append(2).ok());
  Status st = vec.ForEach([](const uint64_t& v) {
    return v == 2 ? Status::Cancelled("stop") : Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST_F(SpillableVectorTest, ClearResets) {
  SpillableVector<uint64_t> vec(dir_->File("e"), 8);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(vec.Append(i).ok());
  }
  vec.Clear();
  EXPECT_EQ(vec.size(), 0u);
  EXPECT_FALSE(vec.spilled());
  ASSERT_TRUE(vec.Append(42).ok());
  EXPECT_EQ(vec.size(), 1u);
}

TEST_F(SpillableVectorTest, ClearAndDestructionDeleteTheSpillDirectory) {
  const std::string store = dir_->File("f");
  {
    SpillableVector<uint64_t> vec(store, 8);
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(vec.Append(i).ok());
    }
    ASSERT_TRUE(vec.spilled());
    EXPECT_TRUE(std::filesystem::exists(store));
    vec.Clear();
    EXPECT_FALSE(std::filesystem::exists(store));
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(vec.Append(100 + i).ok());
    }
    ASSERT_TRUE(vec.spilled());
    uint64_t v = 0;
    ASSERT_TRUE(vec.At(3, &v).ok());
    EXPECT_EQ(v, 103u);
  }
  EXPECT_FALSE(std::filesystem::exists(store));
}

}  // namespace
}  // namespace ngram::kv
