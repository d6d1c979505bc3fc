// Read-only sharded store over serving segments — the query-side view of
// the statistics a batch run computed.
//
// A store is an immutable snapshot: Open() reads the CRC-verified
// MANIFEST, mmaps every shard segment, and from then on nothing mutates —
// point lookups and range scans touch only const state, so any number of
// threads query one store with no locking. The single synchronization
// point on the read path is the (optional) BlockCache's LRU mutex; with
// caching disabled even that disappears and every query decodes its block
// straight from the mapping.
//
// Read path of Count(key):
//   route:  binary-search the shard table by min_key        (no I/O)
//   block:  binary-search the shard's block index           (no I/O)
//   fetch:  BlockCache hit, or decode the ~16 KiB block from the mmap —
//           CRC-verified, so a flipped bit anywhere in the segment
//           surfaces as Corruption naming the file, never a wrong count —
//           with the block's restart index cached alongside the frames
//   seek:   binary-search the restart anchors (the block format's full-key
//           entries), then scan at most one restart interval of records
//           (bytewise-sorted, early exit)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/block_cache.h"
#include "mapreduce/io_env.h"
#include "serve/manifest.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::serve {

/// Tuning knobs for opening a store.
struct ServingOptions {
  /// Shared block cache; a private cache of `cache_bytes` is created when
  /// null. Sharing one cache across stores is safe — cache file ids are
  /// process-unique.
  std::shared_ptr<kv::BlockCache> cache;
  /// Capacity of the private cache when `cache` is null; 0 disables
  /// caching (every query decodes its block from the mapping).
  size_t cache_bytes = 64 * 1024 * 1024;
  /// I/O environment for manifest reads and segment mappings.
  mr::IoEnv* env = nullptr;
};

/// \brief Immutable, mmap-backed, sharded (n-gram -> count) store.
///
/// Keys are varbyte-encoded term sequences compared bytewise (see
/// manifest.h). All const methods are safe to call concurrently.
class ShardedStatsStore {
 public:
  /// Opens the serving directory `dir`. The returned store is fully
  /// self-contained (manifest parsed, segments mapped) and immutable.
  static Result<std::shared_ptr<const ShardedStatsStore>> Open(
      const std::string& dir, ServingOptions options = {});

  NGRAM_DISALLOW_COPY_AND_ASSIGN(ShardedStatsStore);

  /// Frequency of the encoded n-gram `key`; sets `*count` to 0 when the
  /// key is absent (absence is not an error — tau cut n-grams off).
  Status Count(Slice key, uint64_t* count) const;

  /// Invokes `fn(key, count)` for every record in the bytewise key range
  /// [lower, upper), in ascending key order, crossing shard boundaries as
  /// needed. An empty `upper` means "to the end of the store" (prefix
  /// scans whose exclusive upper bound has no byte representation — an
  /// all-0xFF prefix — pass this). `fn` returning false stops the scan
  /// early (still OK).
  Status ScanRange(Slice lower, Slice upper,
                   const std::function<bool(Slice, uint64_t)>& fn) const;

  /// Index of the shard whose key range would hold `key` (the router).
  /// Exposed for the router property tests; -1 when the store is empty.
  int ShardOf(Slice key) const;

  const Manifest& manifest() const { return manifest_; }
  size_t num_shards() const { return shards_.size(); }
  uint64_t total_records() const { return manifest_.total_records; }
  const std::string& dir() const { return dir_; }

  /// Counters of the block cache backing this store.
  kv::BlockCacheStats CacheStats() const { return cache_->Snapshot(); }
  const std::shared_ptr<kv::BlockCache>& cache() const { return cache_; }

 private:
  struct Shard {
    std::string path;
    uint64_t cache_file_id = 0;
    std::unique_ptr<mr::MmapFile> mapping;
    const ShardEntry* entry = nullptr;  // Into manifest_.shards.
  };

  ShardedStatsStore() = default;

  /// Fetches (through the cache) or decodes block `block_index` of shard
  /// `shard` as raw frames with the block's restart index appended as a
  /// fixed32 trailer (mr::DecodeBlockAtIndexed's layout, parsed back with
  /// mr::ParseBlockView).
  Status GetBlock(const Shard& shard, size_t block_index,
                  std::shared_ptr<const std::string>* framed) const;

  /// Index of the last block of `entry` whose first_key <= key, or -1
  /// when key precedes the first block.
  static int BlockOf(const ShardEntry& entry, Slice key);

  std::string dir_;
  Manifest manifest_;
  std::vector<Shard> shards_;
  std::shared_ptr<kv::BlockCache> cache_;
};

}  // namespace ngram::serve
