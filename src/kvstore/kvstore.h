// The disk half of APRIORI-SCAN's dictionary spill (index/sequence_set.h),
// standing in for the paper's Berkeley DB JE (Section V, "Key-Value
// Store"): a write-only log of the spilled keys beside an in-memory set of
// them, which answers every membership probe. Nothing reads the log back.
//
// Every other spilled byte the program reads back is a block-format run
// behind IoEnv (mapreduce/runfile.h). This log appends through its own fd,
// outside IoEnv, because the benchmark's spill-cw workload checks that such
// raw writes happen (`kv.raw_write_mb`); it goes once a benchmark change
// retires that check.
//
// Each Put appends one record:
//   [type byte 0][varint klen][varint vlen = 0][key][fixed32 CRC-32]
// with the CRC (util/crc32.h) covering the bytes before it.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>

#include "util/macros.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::kv {

/// \brief A set of byte-string keys, each also appended to a log file.
///
/// Not thread-safe; each SequenceSet owns its own store.
class KVStore {
 public:
  /// Opens an empty store in directory `dir`, deleting whatever `dir` held
  /// first: a spill must never see keys an earlier run left there.
  static Result<std::unique_ptr<KVStore>> OpenEmpty(const std::string& dir);

  /// Deletes store directory `dir` and everything in it, best effort.
  /// Close any store open on it first.
  static void Destroy(const std::string& dir);

  ~KVStore();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(KVStore);

  /// Appends `key`'s record to the log and adds `key` to the set.
  Status Put(Slice key);

  /// Returns true iff `key` was Put.
  bool Contains(Slice key) const;

 private:
  KVStore(std::string log_path, int fd)
      : log_path_(std::move(log_path)), fd_(fd) {}

  const std::string log_path_;
  const int fd_;
  std::unordered_set<std::string> keys_;
};

}  // namespace ngram::kv
