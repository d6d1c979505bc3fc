// Property tests for the shard router and the serving corruption
// contract:
//   * every key lands in exactly one shard, and that shard answers it;
//   * boundary keys (first/last of each shard), absent keys, and top-k
//     prefixes whose extensions straddle shard boundaries all resolve
//     correctly;
//   * a corrupted shard manifest or a bit-flipped segment yields
//     Corruption naming the path — never a wrong answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "serve/serving_builder.h"
#include "serve/sharded_store.h"
#include "serve/stats_service.h"
#include "testing/test_util.h"
#include "util/crc32.h"
#include "util/temp_dir.h"

namespace ngram::serve {
namespace {

NgramStatistics RandomStats(uint64_t seed) {
  const Corpus corpus = ngram::testing::RandomCorpus(seed, 30, 8, 4, 14);
  NgramStatistics stats = BruteForceCounts(corpus, 2, 4);
  stats.SortCanonical();
  return stats;
}

std::shared_ptr<const ShardedStatsStore> BuildAndOpen(
    const NgramStatistics& stats, const TempDir& dir, uint32_t num_shards,
    size_t cache_bytes = 1 << 20) {
  BuildServingOptions build;
  build.num_shards = num_shards;
  build.block_bytes = 256;  // Many small blocks per shard.
  Status st = BuildServingShards(stats, dir.path().string(), build);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ServingOptions serving;
  serving.cache_bytes = cache_bytes;
  auto store = ShardedStatsStore::Open(dir.path().string(), serving);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return *store;
}

TEST(ShardRouterTest, EveryKeyLandsInExactlyOneShard) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    const NgramStatistics stats = RandomStats(seed);
    for (uint32_t num_shards : {1u, 2u, 5u, 16u}) {
      auto dir = TempDir::Create("shard-router");
      ASSERT_TRUE(dir.ok());
      auto store = BuildAndOpen(stats, *dir, num_shards);

      // Shard key ranges must be disjoint and ordered.
      const Manifest& manifest = store->manifest();
      for (size_t s = 1; s < manifest.shards.size(); ++s) {
        ASSERT_LT(manifest.shards[s - 1].max_key, manifest.shards[s].min_key);
      }

      uint64_t total_records = 0;
      for (const ShardEntry& shard : manifest.shards) {
        ASSERT_GE(shard.num_records, 1u);
        total_records += shard.num_records;
      }
      ASSERT_EQ(total_records, stats.size());

      for (const auto& [seq, cf] : stats.entries) {
        std::string key;
        SequenceCodec::Encode(seq, &key);
        // The router names exactly one shard, and the key is inside that
        // shard's range (so every other shard's range excludes it).
        const int s = store->ShardOf(Slice(key));
        ASSERT_GE(s, 0);
        const ShardEntry& shard = manifest.shards[static_cast<size_t>(s)];
        ASSERT_GE(key, shard.min_key) << SequenceToDebugString(seq);
        ASSERT_LE(key, shard.max_key) << SequenceToDebugString(seq);
        uint64_t count = 0;
        ASSERT_TRUE(store->Count(Slice(key), &count).ok());
        ASSERT_EQ(count, cf) << SequenceToDebugString(seq);
      }
    }
  }
}

TEST(ShardRouterTest, BoundaryAndAbsentKeysResolve) {
  const NgramStatistics stats = RandomStats(11);
  std::map<std::string, uint64_t> by_key;
  for (const auto& [seq, cf] : stats.entries) {
    std::string key;
    SequenceCodec::Encode(seq, &key);
    by_key[key] = cf;
  }
  for (uint32_t num_shards : {1u, 3u, 8u}) {
    auto dir = TempDir::Create("shard-boundary");
    ASSERT_TRUE(dir.ok());
    auto store = BuildAndOpen(stats, *dir, num_shards);

    for (const ShardEntry& shard : store->manifest().shards) {
      // First and last key of every shard — the router's edge cases.
      for (const std::string& key : {shard.min_key, shard.max_key}) {
        uint64_t count = 0;
        ASSERT_TRUE(store->Count(Slice(key), &count).ok());
        ASSERT_EQ(count, by_key.at(key));
      }
      // A key just past a shard's max routes to the next shard (or stays
      // in this one) and answers 0 unless it is actually stored.
      std::string past = shard.max_key;
      past.push_back('\0');
      uint64_t count = 1;
      ASSERT_TRUE(store->Count(Slice(past), &count).ok());
      ASSERT_EQ(count, by_key.count(past) ? by_key.at(past) : 0u);
    }
    // A key before every shard routes to shard 0 and answers 0.
    const std::string before_all(1, '\0');  // Term id 0 is reserved.
    ASSERT_LT(before_all, store->manifest().shards[0].min_key);
    uint64_t count = 1;
    ASSERT_TRUE(store->Count(Slice(before_all), &count).ok());
    ASSERT_EQ(count, 0u);
  }
}

TEST(ShardRouterTest, CrossShardPrefixTopK) {
  const NgramStatistics stats = RandomStats(5);
  // Reference top-k per one-term prefix straight from the table.
  std::map<TermSequence, std::vector<Completion>> expected;
  for (const auto& [seq, cf] : stats.entries) {
    if (seq.size() == 2) {
      expected[{seq[0]}].push_back(Completion{seq[1], cf});
    }
  }
  for (auto& [prefix, completions] : expected) {
    std::sort(completions.begin(), completions.end(),
              [](const Completion& a, const Completion& b) {
                if (a.count != b.count) {
                  return a.count > b.count;
                }
                return a.term < b.term;
              });
  }
  // 16 shards over a small table: most prefixes' extension ranges span a
  // shard boundary, which is exactly what this test is after.
  auto dir = TempDir::Create("shard-prefix");
  ASSERT_TRUE(dir.ok());
  BuildServingOptions build;
  build.num_shards = 16;
  build.block_bytes = 128;
  ASSERT_TRUE(BuildServingShards(stats, dir->path().string(), build).ok());
  auto service = StatsService::Open(dir->path().string());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_GT((*service)->store()->num_shards(), 1u);

  for (const auto& [prefix, completions] : expected) {
    // k = 1 keeps only the best; k past the list size returns all of it.
    for (const size_t k : {size_t{1}, completions.size(),
                           completions.size() + 2}) {
      auto got = (*service)->TopKCompletions(prefix, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<Completion> want(
          completions.begin(),
          completions.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(k, completions.size())));
      ASSERT_EQ(*got, want) << SequenceToDebugString(prefix) << " k=" << k;
    }
  }
}

TEST(ShardRouterTest, CorruptManifestIsNamedNeverMisread) {
  const NgramStatistics stats = RandomStats(3);
  auto dir = TempDir::Create("corrupt-manifest");
  ASSERT_TRUE(dir.ok());
  BuildServingOptions build;
  build.num_shards = 3;
  ASSERT_TRUE(BuildServingShards(stats, dir->path().string(), build).ok());

  const std::string manifest_path = dir->File(kManifestFileName);
  // Flip one byte in the middle of the manifest payload.
  std::string bytes;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto store = ShardedStatsStore::Open(dir->path().string());
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  EXPECT_NE(store.status().ToString().find(kManifestFileName),
            std::string::npos)
      << store.status().ToString();
}

TEST(ShardRouterTest, ImpossibleManifestCountsAreCorruption) {
  // CRC-valid manifests whose counts no payload could hold: a shard count
  // or a block count of 2^60 over a few bytes, and a max order past 32
  // bits. Each is Corruption naming the manifest, checked before anything
  // is reserved or narrowed.
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  const auto header = [](uint64_t max_order, uint64_t num_shards) {
    std::string payload;
    PutVarint64(&payload, 10);  // total_records
    PutVarint64(&payload, 4);   // total_unigrams
    PutVarint64(&payload, max_order);
    PutVarint64(&payload, 16384);  // block_bytes
    PutVarint64(&payload, num_shards);
    return payload;
  };
  const std::string name = "shard-00000.run";
  std::string huge_blocks = header(3, 1);
  PutVarint64(&huge_blocks, name.size());  // file_name
  huge_blocks += name;
  PutVarint64(&huge_blocks, 0);      // file_size
  PutVarint64(&huge_blocks, 0);      // num_records
  PutVarint64(&huge_blocks, 0);      // min_key (empty)
  PutVarint64(&huge_blocks, 0);      // max_key (empty)
  PutVarint64(&huge_blocks, kHuge);  // num_blocks
  const std::string padding = "\x01\x01\x01";
  // The max-order payload is otherwise well formed (zero shards, no
  // trailing bytes), so only the order check can reject it.
  const std::string payloads[] = {header(3, kHuge) + padding,
                                  huge_blocks + padding,
                                  header(uint64_t{1} << 33, 0)};
  for (const std::string& payload : payloads) {
    std::string file = "NGSM" + payload;
    PutFixed32(&file, Crc32(0, payload.data(), payload.size()));
    auto dir = TempDir::Create("impossible-manifest");
    ASSERT_TRUE(dir.ok());
    {
      std::ofstream out(dir->File(kManifestFileName), std::ios::binary);
      out.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    auto store = ShardedStatsStore::Open(dir->path().string());
    ASSERT_FALSE(store.ok());
    EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
    EXPECT_NE(store.status().ToString().find(kManifestFileName),
              std::string::npos)
        << store.status().ToString();
  }
}

TEST(ShardRouterTest, BitFlippedSegmentIsNamedNeverMisread) {
  const NgramStatistics stats = RandomStats(9);
  auto dir = TempDir::Create("corrupt-segment");
  ASSERT_TRUE(dir.ok());
  BuildServingOptions build;
  build.num_shards = 3;
  build.block_bytes = 256;
  ASSERT_TRUE(BuildServingShards(stats, dir->path().string(), build).ok());

  // Flip one bit in the middle of the middle shard, inside block data.
  const std::string victim = dir->File("shard-00001.run");
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 8u);
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Cache disabled so every query re-decodes from the flipped mapping.
  ServingOptions serving;
  serving.cache_bytes = 0;
  auto store = ShardedStatsStore::Open(dir->path().string(), serving);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  size_t corruption_count = 0;
  for (const auto& [seq, cf] : stats.entries) {
    std::string key;
    SequenceCodec::Encode(seq, &key);
    uint64_t count = 0;
    Status st = (*store)->Count(Slice(key), &count);
    if (st.ok()) {
      // The dichotomy: an OK answer must be the right answer.
      ASSERT_EQ(count, cf) << SequenceToDebugString(seq);
    } else {
      ASSERT_TRUE(st.IsCorruption()) << st.ToString();
      ASSERT_NE(st.ToString().find("shard-00001.run"), std::string::npos)
          << st.ToString();
      ++corruption_count;
    }
  }
  EXPECT_GT(corruption_count, 0u);
}

}  // namespace
}  // namespace ngram::serve
