#include "kvstore/kvstore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram::kv {
namespace {

class KVStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("kvstore-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  std::string StorePath() const { return dir_->File("store"); }

  /// The bytes of the one file a store keeps under StorePath().
  std::string LogBytes() const {
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(StorePath())) {
      files.push_back(entry.path());
    }
    EXPECT_EQ(files.size(), 1u);
    if (files.empty()) {
      return "";
    }
    std::ifstream in(files[0], std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(KVStoreTest, PutThenContains) {
  auto store = KVStore::OpenEmpty(StorePath());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Put("key1").ok());
  ASSERT_TRUE((*store)->Put("key2").ok());
  EXPECT_TRUE((*store)->Contains("key1"));
  EXPECT_TRUE((*store)->Contains("key2"));
}

TEST_F(KVStoreTest, MissingKeyIsNotContained) {
  auto store = KVStore::OpenEmpty(StorePath());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE((*store)->Contains("key1"));
  ASSERT_TRUE((*store)->Put("key1").ok());
  EXPECT_FALSE((*store)->Contains("key"));  // A prefix of a stored key.
  EXPECT_FALSE((*store)->Contains("key12"));
  EXPECT_FALSE((*store)->Contains("absent"));
}

TEST_F(KVStoreTest, EmptyValueAndBinaryKeys) {
  auto store = KVStore::OpenEmpty(StorePath());
  ASSERT_TRUE(store.ok());
  const std::string binary_key("\x00\x01\xff", 3);
  ASSERT_TRUE((*store)->Put(binary_key).ok());
  ASSERT_TRUE((*store)->Put("").ok());
  EXPECT_TRUE((*store)->Contains(binary_key));
  EXPECT_TRUE((*store)->Contains(""));
  EXPECT_FALSE((*store)->Contains(std::string("\x00\x01", 2)));
}

TEST_F(KVStoreTest, AppendedRecordBytesArePinned) {
  // [type 0][varint klen][varint vlen 0][key][fixed32 CRC-32 of the rest],
  // byte for byte: the benchmark's kv.raw_write_mb counts these bytes.
  auto store = KVStore::OpenEmpty(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("ab").ok());
  ASSERT_TRUE((*store)->Put("").ok());
  const std::string long_key(200, 'k');  // Two-byte varint length.
  ASSERT_TRUE((*store)->Put(long_key).ok());
  const std::string expected =
      std::string("\x00\x02\x00" "ab" "\x04\x65\x71\xb3", 9) +
      std::string("\x00\x00\x00" "\x12\xd9\x41\xff", 7) +
      std::string("\x00\xc8\x01\x00", 4) + long_key +
      std::string("\xaf\x02\x85\x82", 4);
  EXPECT_EQ(LogBytes(), expected);
}

TEST_F(KVStoreTest, OpenEmptyDiscardsAnEarlierStoreAndDestroyDeletesIt) {
  {
    // A store an earlier owner left behind: its log stays on disk.
    auto stale = KVStore::OpenEmpty(StorePath());
    ASSERT_TRUE(stale.ok());
    ASSERT_TRUE((*stale)->Put("stale").ok());
  }
  ASSERT_FALSE(LogBytes().empty());
  {
    auto fresh = KVStore::OpenEmpty(StorePath());
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(LogBytes().empty());
    EXPECT_FALSE((*fresh)->Contains("stale"));
    ASSERT_TRUE((*fresh)->Put("new").ok());
    EXPECT_TRUE((*fresh)->Contains("new"));
  }
  KVStore::Destroy(StorePath());
  EXPECT_FALSE(std::filesystem::exists(StorePath()));
}

TEST_F(KVStoreTest, RandomizedAgainstStdSet) {
  auto store = KVStore::OpenEmpty(StorePath());
  ASSERT_TRUE(store.ok());
  std::set<std::string> model;
  Rng rng(99);
  for (int op = 0; op < 2000; ++op) {
    const std::string key = "key" + std::to_string(rng.Uniform(200));
    if (rng.Uniform(2) == 0) {
      ASSERT_TRUE((*store)->Put(key).ok());
      model.insert(key);
    } else {
      EXPECT_EQ((*store)->Contains(key), model.count(key) > 0) << key;
    }
  }
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ((*store)->Contains(key), model.count(key) > 0) << key;
  }
}

}  // namespace
}  // namespace ngram::kv
