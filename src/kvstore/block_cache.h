// LRU block cache fronting the serving layer's shard files
// (serve/sharded_store.h), in the spirit of the caching layer the paper
// layers over Berkeley DB ("Most main memory is then used for caching").
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "util/macros.h"
#include "util/mutex.h"

namespace ngram::kv {

/// Allocates a process-unique cache file id. Every file that caches blocks
/// under a (possibly shared) BlockCache draws its id here, so stores
/// sharing one cache can never collide on a BlockKey.
uint64_t AllocateCacheFileId();

/// Key of a cached block: (file id, block index).
struct BlockKey {
  uint64_t file_id;
  uint64_t block_index;
  bool operator==(const BlockKey& o) const {
    return file_id == o.file_id && block_index == o.block_index;
  }
};

struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    return std::hash<uint64_t>()(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                 k.block_index);
  }
};

/// Point-in-time view of the cache's operational counters, exposed through
/// StatsService::CacheStats so serving benchmarks can report hit ratio
/// alongside latency percentiles.
struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  size_t charged_bytes = 0;
  size_t capacity_bytes = 0;

  double hit_ratio() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// \brief Sharded-free LRU cache of fixed-size file blocks.
///
/// Thread-safe. Eviction is strict LRU by byte capacity. Blocks are
/// immutable once inserted (segments are append-only and blocks are only
/// cached once full or sealed). Counters are atomics so concurrent
/// readers (the serving layer polls CacheStats while query threads churn
/// the cache) observe them without taking the LRU mutex.
class BlockCache {
 public:
  /// `capacity_bytes` of zero disables caching entirely.
  explicit BlockCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  NGRAM_DISALLOW_COPY_AND_ASSIGN(BlockCache);

  /// Returns the cached block or nullptr on miss.
  std::shared_ptr<const std::string> Lookup(const BlockKey& key)
      NGRAM_EXCLUDES(mu_);

  /// Inserts a block (no-op when capacity is zero). Replaces an existing
  /// entry for the same key.
  void Insert(const BlockKey& key, std::shared_ptr<const std::string> block)
      NGRAM_EXCLUDES(mu_);

  /// Drops every block belonging to `file_id` (file deleted / truncated).
  void EraseFile(uint64_t file_id) NGRAM_EXCLUDES(mu_);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t inserts() const { return inserts_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t charged_bytes() const {
    return charged_bytes_.load(std::memory_order_relaxed);
  }
  size_t capacity_bytes() const { return capacity_bytes_; }

  /// One consistent-enough sample of every counter (individually atomic;
  /// not a cross-counter snapshot — fine for reporting).
  BlockCacheStats Snapshot() const {
    BlockCacheStats stats;
    stats.hits = hits();
    stats.misses = misses();
    stats.inserts = inserts();
    stats.evictions = evictions();
    stats.charged_bytes = charged_bytes();
    stats.capacity_bytes = capacity_bytes_;
    return stats;
  }

 private:
  struct Entry {
    BlockKey key;
    std::shared_ptr<const std::string> block;
  };
  using LruList = std::list<Entry>;

  void EvictIfNeeded() NGRAM_REQUIRES(mu_);

  const size_t capacity_bytes_;
  Mutex mu_;
  LruList lru_ NGRAM_GUARDED_BY(mu_);  // Front = most recently used.
  std::unordered_map<BlockKey, LruList::iterator, BlockKeyHash> index_
      NGRAM_GUARDED_BY(mu_);
  std::atomic<size_t> charged_bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ngram::kv
