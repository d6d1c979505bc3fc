// A small log-structured disk key-value store: append-only segments, an
// in-memory key index, and an LRU block cache for reads.
//
// This is the repo's stand-in for the paper's use of Berkeley DB JE
// (Section V, "Key-Value Store"): reducer state that outgrows its memory
// budget migrates here and is read back through the cache.
//
// Integrity: every segment record carries a CRC-32 trailer (the same
// checksum the run-file blocks use, util/crc32.h) covering its header,
// key, and value. The CRC is verified when segments are replayed at
// Open() and again on every Get(), so a flipped byte anywhere in a
// segment surfaces as Corruption instead of silently changing reducer
// state.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kvstore/block_cache.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::kv {

/// Tuning knobs for KVStore.
struct KVStoreOptions {
  /// Block size used for cached reads.
  size_t block_size = 64 * 1024;
  /// Segment roll-over threshold.
  uint64_t max_segment_bytes = 256ULL * 1024 * 1024;
  /// Shared cache; a private 8 MiB cache is created when null.
  std::shared_ptr<BlockCache> cache;
  /// Default capacity of the private cache when `cache` is null.
  size_t default_cache_bytes = 8 * 1024 * 1024;
};

/// Operational counters, exposed for tests and ablation benchmarks.
struct KVStoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// \brief Disk-resident string->string store.
///
/// Keys live in an in-memory index (Bitcask-style); values live in
/// append-only segment files. Not thread-safe; each reducer owns its own
/// store instance, matching how the paper shards reducer state.
class KVStore {
 public:
  /// Opens (or creates) a store rooted at directory `dir`. Existing
  /// segments are scanned to rebuild the index, so a store can be reopened.
  static Result<std::unique_ptr<KVStore>> Open(const std::string& dir,
                                               KVStoreOptions options = {});

  /// Opens an empty store at `dir`, deleting whatever `dir` held first:
  /// scratch stores (spilled reducer state) must never replay segments an
  /// earlier run left under the same name.
  static Result<std::unique_ptr<KVStore>> OpenEmpty(
      const std::string& dir, KVStoreOptions options = {});

  /// Deletes store directory `dir` and everything in it, best effort.
  /// Close any store open on it first.
  static void Destroy(const std::string& dir);

  ~KVStore();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(KVStore);

  /// Inserts or overwrites `key`.
  Status Put(Slice key, Slice value);

  /// Fetches `key` into `*value`. Returns NotFound if absent.
  Status Get(Slice key, std::string* value);

  /// Returns true iff `key` is present (no value materialization).
  bool Contains(Slice key) const;

  /// Removes `key` (logs a tombstone). Removing an absent key is OK.
  Status Delete(Slice key);

  /// Invokes `fn(key, value)` for every live entry, in unspecified order.
  /// Stops early and propagates if `fn` returns a non-OK status.
  Status Scan(const std::function<Status(Slice, Slice)>& fn);

  uint64_t size() const { return index_.size(); }
  const KVStoreStats& stats() const { return stats_; }

 private:
  struct Location {
    uint32_t segment_id;
    uint64_t offset;       // Offset of the whole record within the segment.
    uint32_t record_size;  // Header + key + value + CRC trailer.
    uint32_t value_size;
  };
  struct Segment;

  KVStore(std::string dir, KVStoreOptions options);

  Status OpenSegments();
  Status RollSegmentIfNeeded();
  Status AppendRecord(uint8_t type, Slice key, Slice value,
                      Location* value_loc);
  Status ReadAt(Segment& seg, uint64_t offset, size_t n, std::string* out);

  const std::string dir_;
  KVStoreOptions options_;
  std::shared_ptr<BlockCache> cache_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<std::string, Location> index_;
  KVStoreStats stats_;
};

}  // namespace ngram::kv
