#include "kvstore/kvstore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

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

  std::unique_ptr<TempDir> dir_;
};

TEST_F(KVStoreTest, PutGetRoundTrip) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("key1", "value1").ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("key1", &value).ok());
  EXPECT_EQ(value, "value1");
  EXPECT_EQ((*store)->size(), 1u);
}

TEST_F(KVStoreTest, GetMissingIsNotFound) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  std::string value;
  EXPECT_TRUE((*store)->Get("absent", &value).IsNotFound());
  EXPECT_FALSE((*store)->Contains("absent"));
}

TEST_F(KVStoreTest, OverwriteReturnsLatest) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v1").ok());
  ASSERT_TRUE((*store)->Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_EQ((*store)->size(), 1u);
}

TEST_F(KVStoreTest, DeleteRemovesKey) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  ASSERT_TRUE((*store)->Delete("k").ok());
  EXPECT_FALSE((*store)->Contains("k"));
  EXPECT_TRUE((*store)->Delete("k").ok());  // Idempotent.
}

TEST_F(KVStoreTest, EmptyValueAndBinaryKeys) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  const std::string binary_key("\x00\x01\xff", 3);
  ASSERT_TRUE((*store)->Put(binary_key, "").ok());
  std::string value = "sentinel";
  ASSERT_TRUE((*store)->Get(binary_key, &value).ok());
  EXPECT_TRUE(value.empty());
}

TEST_F(KVStoreTest, LargeValuesSpanBlocks) {
  KVStoreOptions options;
  options.block_size = 1024;  // Values below will span many blocks.
  auto store = KVStore::Open(StorePath(), options);
  ASSERT_TRUE(store.ok());
  const std::string large(10000, 'z');
  ASSERT_TRUE((*store)->Put("big", large).ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("big", &value).ok());
  EXPECT_EQ(value, large);
}

TEST_F(KVStoreTest, ReopenRecoversIndex) {
  {
    auto store = KVStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("persist1", "a").ok());
    ASSERT_TRUE((*store)->Put("persist2", "b").ok());
    ASSERT_TRUE((*store)->Put("doomed", "c").ok());
    ASSERT_TRUE((*store)->Delete("doomed").ok());
    ASSERT_TRUE((*store)->Put("persist1", "a2").ok());
  }
  auto reopened = KVStore::Open(StorePath());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 2u);
  std::string value;
  ASSERT_TRUE((*reopened)->Get("persist1", &value).ok());
  EXPECT_EQ(value, "a2");
  ASSERT_TRUE((*reopened)->Get("persist2", &value).ok());
  EXPECT_EQ(value, "b");
  EXPECT_FALSE((*reopened)->Contains("doomed"));
}

TEST_F(KVStoreTest, OpenEmptyDiscardsAnEarlierStoreAndDestroyDeletesIt) {
  {
    auto store = KVStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("stale", "v").ok());
  }
  {
    auto fresh = KVStore::OpenEmpty(StorePath());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ((*fresh)->size(), 0u);
    EXPECT_FALSE((*fresh)->Contains("stale"));
    ASSERT_TRUE((*fresh)->Put("new", "v").ok());
  }
  KVStore::Destroy(StorePath());
  EXPECT_FALSE(std::filesystem::exists(StorePath()));
}

TEST_F(KVStoreTest, SegmentRollOver) {
  KVStoreOptions options;
  options.max_segment_bytes = 512;  // Force several segments.
  auto store = KVStore::Open(StorePath(), options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*store)
            ->Put("key" + std::to_string(i), std::string(64, 'v'))
            .ok());
  }
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, std::string(64, 'v'));
  }
}

TEST_F(KVStoreTest, ScanVisitsAllLiveEntries) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 50; ++i) {
    const std::string k = "k" + std::to_string(i);
    const std::string v = "v" + std::to_string(i * i);
    ASSERT_TRUE((*store)->Put(k, v).ok());
    expected[k] = v;
  }
  ASSERT_TRUE((*store)->Delete("k7").ok());
  expected.erase("k7");

  std::map<std::string, std::string> seen;
  ASSERT_TRUE((*store)
                  ->Scan([&](Slice k, Slice v) {
                    seen[k.ToString()] = v.ToString();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, expected);
}

TEST_F(KVStoreTest, CacheHitsOnRepeatedReads) {
  KVStoreOptions options;
  options.block_size = 256;
  auto store = KVStore::Open(StorePath(), options);
  ASSERT_TRUE(store.ok());
  // Fill beyond one block, then read a sealed (non-final) block repeatedly.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        (*store)->Put("k" + std::to_string(i), std::string(32, 'a')).ok());
  }
  std::string value;
  ASSERT_TRUE((*store)->Get("k0", &value).ok());
  ASSERT_TRUE((*store)->Get("k0", &value).ok());
  ASSERT_TRUE((*store)->Get("k0", &value).ok());
  EXPECT_GT((*store)->stats().cache_hits, 0u);
}

TEST_F(KVStoreTest, RandomizedAgainstStdMap) {
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> model;
  Rng rng(99);
  for (int op = 0; op < 2000; ++op) {
    const std::string key = "key" + std::to_string(rng.Uniform(200));
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0) {
      const std::string value = "v" + std::to_string(rng());
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    } else if (action == 1) {
      ASSERT_TRUE((*store)->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value;
      Status st = (*store)->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(st.IsNotFound());
      } else {
        ASSERT_TRUE(st.ok());
        EXPECT_EQ(value, it->second);
      }
    }
  }
  EXPECT_EQ((*store)->size(), model.size());
}

// --------------------------------------------------- record CRC trailers --

/// Flips one byte of the single segment file under `dir`.
void FlipSegmentByte(const std::string& dir, std::streamoff offset_from_end) {
  std::string segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      segment = entry.path().string();
    }
  }
  ASSERT_FALSE(segment.empty());
  std::fstream file(segment, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  ASSERT_GT(size, offset_from_end);
  char byte = 0;
  file.seekg(size - offset_from_end);
  file.get(byte);
  file.seekp(size - offset_from_end);
  file.put(static_cast<char>(byte ^ 0x40));
}

TEST_F(KVStoreTest, ReplayRefusesCorruptedSegment) {
  {
    auto store = KVStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          (*store)->Put("key" + std::to_string(i), "value-" + std::to_string(i))
              .ok());
    }
  }
  // Hit an early record's key bytes: replay must fail the open with
  // Corruption instead of resurrecting a damaged index.
  FlipSegmentByte(StorePath(), 200);
  auto reopened = KVStore::Open(StorePath());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().ToString().find("offset"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(KVStoreTest, LiveStoreVerifiesRecordCrcOnGet) {
  // Flip a value byte on disk while the store is open (replay never sees
  // it): the Get-path CRC check must refuse the record.
  auto store = KVStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  const std::string big(100 * 1024, 'z');
  ASSERT_TRUE((*store)->Put("big", big).ok());
  FlipSegmentByte(StorePath(), 5000);  // Inside the value bytes.
  std::string value;
  Status st = (*store)->Get("big", &value);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

}  // namespace
}  // namespace ngram::kv
