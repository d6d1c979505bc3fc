// Framed shuffle records and readers over them.
//
// In-memory format of one record: [klen varint][vlen varint][key][value].
// In-memory runs, decoded run-file blocks and job-boundary tables share
// this framing; run files store records as front-coded blocks
// (runfile.h), which FileRecordReader decodes back into it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "encoding/varint.h"
#include "mapreduce/io_env.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::mr {

/// Appends one framed record to `out`. Returns the framed size in bytes.
inline size_t AppendRecord(std::string* out, Slice key, Slice value) {
  const size_t before = out->size();
  PutVarint64(out, key.size());
  PutVarint64(out, value.size());
  out->append(key.data(), key.size());
  out->append(value.data(), value.size());
  return out->size() - before;
}

/// Abstract sequential reader over framed records.
///
/// Lookback contract: the key()/value() slices of the current record stay
/// valid across ONE subsequent Next() call (they may only be invalidated by
/// the second call). The k-way merge relies on this to compare adjacent
/// records of the merged stream — and hence detect reduce-group boundaries
/// — without ever copying a key.
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Advances to the next record. Returns true and sets key()/value() on
  /// success, false at end. Corrupt input aborts via status().
  virtual bool Next() = 0;

  Slice key() const { return key_; }
  Slice value() const { return value_; }
  const Status& status() const { return status_; }

  /// True when sort_prefix() holds RawComparator::SortPrefix of key()
  /// under the job's sort comparator — sources that already computed it
  /// (zero-copy bucket runs cache it per record) hand it to the merge,
  /// which otherwise recomputes it per record.
  bool has_sort_prefix() const { return has_sort_prefix_; }
  uint64_t sort_prefix() const { return sort_prefix_; }

 protected:
  Slice key_;
  Slice value_;
  Status status_;
  bool has_sort_prefix_ = false;
  uint64_t sort_prefix_ = 0;
};

/// Zero-copy reader over records resident in memory. Slices point into the
/// backing buffer and stay valid for the reader's whole lifetime, which
/// trivially satisfies the lookback contract.
class MemoryRecordReader final : public RecordReader {
 public:
  explicit MemoryRecordReader(Slice data) : data_(data) {}

  bool Next() override {
    if (data_.empty()) {
      return false;
    }
    uint64_t klen = 0, vlen = 0;
    // Checked term by term: a summed klen + vlen can wrap past the bound.
    if (!GetVarint64(&data_, &klen) || !GetVarint64(&data_, &vlen) ||
        klen > data_.size() || vlen > data_.size() - klen) {
      status_ = Status::Corruption("malformed in-memory record");
      return false;
    }
    key_ = Slice(data_.data(), klen);
    value_ = Slice(data_.data() + klen, vlen);
    data_.RemovePrefix(klen + vlen);
    return true;
  }

 private:
  Slice data_;
};

/// \brief Buffered reader over a byte extent of a block-format run file
/// (runfile.h).
///
/// Each block is read, its CRC-32 trailer verified (integrity checking is
/// inherent to reading — a flipped bit anywhere surfaces as Corruption
/// naming the block's file offset), and its front-coded entries decoded
/// into one of two alternating scratch buffers. Records are then surfaced
/// zero-copy out of the decoded buffer; because the *previous* block's
/// buffer is only recycled when the block after next is decoded, the
/// one-record lookback contract holds across block boundaries too.
class FileRecordReader final : public RecordReader {
 public:
  static constexpr size_t kDefaultBufferBytes = 256 * 1024;

  /// Reads `length` bytes starting at `offset` of `path`. `buffer_size`
  /// is the read-buffer hint handed to the env. I/O goes through `env`
  /// (nullptr means IoEnv::Default()).
  FileRecordReader(const std::string& path, uint64_t offset, uint64_t length,
                   size_t buffer_size = kDefaultBufferBytes,
                   IoEnv* env = nullptr);
  ~FileRecordReader() override;

  NGRAM_DISALLOW_COPY_AND_ASSIGN(FileRecordReader);

  bool Next() override;

 private:
  /// Records `st` with this run file as its Status::path(), which recovery
  /// blames whatever the message says. Returns false.
  bool Fail(const Status& st);
  /// Reads exactly `n` bytes of the extent into `dst`, distinguishing
  /// EOF-truncation (Corruption) from read failure (IOError).
  bool ReadExact(char* dst, size_t n);
  /// Reads, CRC-checks, and decodes the next block into the scratch
  /// buffer the previous block did NOT use. False at extent end or error.
  bool LoadNextBlock();

  const std::string path_;  // Named by every error this reader records.
  std::unique_ptr<ReadableFile> file_;
  uint64_t remaining_file_bytes_;
  uint64_t next_block_offset_;   // Absolute file offset of the next block.
  std::string block_scratch_;    // One on-disk block payload.
  std::string decoded_[2];       // Re-framed records; alternate per block.
  int active_decoded_ = 0;
  Slice decoded_cur_;            // Unread framed bytes of the active buffer.
};

/// Destination for framed records (used by combiners and run writers).
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual Status Append(Slice key, Slice value) = 0;
};

/// \brief Zero-copy streaming view of one key group's records.
///
/// The group is consumed lazily: NextValue() advances to the next record of
/// the group (the first call lands on the group's leading record) and
/// returns false once the group ends. key()/value() surface the current
/// record's serialized bytes without copying or decoding; value() is valid
/// until the next NextValue() call. Consumers that only need the group
/// cardinality use Count(), which never touches the value bytes.
///
/// Implementations exist over the reduce-side merge stream
/// (GroupValueIterator) and over a sorted map-side bucket (the combiner
/// path in SortBuffer).
class RawValueIterator {
 public:
  virtual ~RawValueIterator() = default;

  /// Advances to the next record of the group. Returns false when the
  /// group is exhausted (further calls keep returning false).
  virtual bool NextValue() = 0;

  /// Serialized key of the current record: the group's leading key before
  /// the first NextValue(), afterwards the key of the record most recently
  /// consumed. Keys of one group compare equal under the grouping
  /// comparator but are byte-identical only when that comparator implies
  /// byte equality (true for every canonical key encoding in this repo;
  /// not for secondary-sort setups, where the typed adapter captures the
  /// leading key instead).
  virtual Slice key() const = 0;

  /// Serialized value of the current record. Meaningful only after a
  /// NextValue() call that returned true.
  virtual Slice value() const = 0;

  /// Consumes and counts every remaining value without reading the bytes
  /// (SUFFIX-sigma's |l|). Returns the total consumed so far.
  uint64_t Count() {
    while (NextValue()) {
    }
    return consumed_;
  }

  /// Records of this group consumed so far.
  uint64_t consumed() const { return consumed_; }

 protected:
  uint64_t consumed_ = 0;
};

}  // namespace ngram::mr
