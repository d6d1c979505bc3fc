// Map-side sort buffer: accumulates emitted records, sorts them by key
// under the job's raw comparator, optionally runs the combiner, and spills
// sorted runs to disk when a byte budget is exceeded — the same mechanics
// as Hadoop's MapOutputBuffer.
//
// Layout: records land directly in their destination partition's bucket
// (an arena of framed records + a vector of 12-byte refs), so sorting is
// per-bucket and comparisons never branch on the partition, and a run's
// partition-major order falls out of bucket iteration instead of a sort
// key. Spills stream through a fixed-size SpillWriter buffer; a run is
// never materialized in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "encoding/varint.h"
#include "mapreduce/comparator.h"
#include "mapreduce/counters.h"
#include "mapreduce/record.h"
#include "mapreduce/spill_writer.h"
#include "util/macros.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::mr {

/// Byte extent of one partition inside a run.
struct RunSegment {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t num_records = 0;
};

/// Reference to one record inside its bucket's arena: 12 bytes. The record
/// is framed at `offset` as [varint klen][varint vlen][key][value]
/// (AppendRecord's layout), so one offset locates key and value. Offsets
/// strictly increase in insertion order within a bucket, so `offset` also
/// breaks ties: (prefix, Compare, offset) is a strict total order and every
/// correct sort yields the permutation a stable sort would. The cached
/// sort-key prefix drives the radix passes and resolves most comparisons
/// without touching the arena. The struct is packed: copy refs by value and
/// never bind a reference to a member.
struct __attribute__((packed)) SortedRecordRef {
  uint64_t sort_prefix;  // RawComparator::SortPrefix of the key.
  uint32_t offset;       // Of the framed record, into the bucket's arena.
};
static_assert(sizeof(SortedRecordRef) == 12, "refs are 12 bytes");

/// Decodes the record framed at `offset` of a bucket arena. The arena holds
/// only frames SortBuffer wrote itself, so the lengths are not
/// bounds-checked; a one-byte length (under 128) takes the fast path.
inline void ArenaRecordAt(const char* arena, uint32_t offset, Slice* key,
                          Slice* value) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(arena) + offset;
  auto length = [&p]() {
    uint64_t v = *p++;
    if (v >= 0x80) {
      v &= 0x7f;
      for (int shift = 7;; shift += 7) {
        const uint64_t byte = *p++;
        v |= (byte & 0x7f) << shift;
        if (byte < 0x80) {
          break;
        }
      }
    }
    return static_cast<size_t>(v);
  };
  const size_t klen = length();
  const size_t vlen = length();
  *key = Slice(p, klen);
  *value = Slice(p + klen, vlen);
}

/// One sorted run: per-partition contiguous record groups — in a
/// block-format run file (runfile.h; segment extents cover whole blocks),
/// in framed memory (combined final flushes), or zero-copy as the sorted
/// bucket arenas themselves (uncombined final flushes: the merge reads
/// records in place through the refs; no framed copy is ever made).
struct SpillRun {
  /// Zero-copy form: one entry per partition.
  struct MemoryBucket {
    std::string arena;
    std::vector<SortedRecordRef> refs;  // Sorted record order.
  };

  std::string file_path;        // Empty when in-memory.
  std::string memory_data;      // Framed in-memory form.
  std::vector<MemoryBucket> buckets;  // Zero-copy in-memory form.
  std::vector<RunSegment> segments;  // Indexed by partition.

  bool in_memory() const { return file_path.empty(); }
  bool zero_copy() const { return !buckets.empty(); }
};

/// Unlinks the spill files (if any) behind `runs` through `env` (nullptr
/// means IoEnv::Default()), ignoring missing ones; in-memory runs are
/// untouched and the vector itself is left alone. Shuffle runs are
/// job-private, so the driver removes them for discarded task attempts
/// and when the job finishes — a user-provided work_dir is never left
/// with orphaned run files.
void RemoveRunFiles(const std::vector<SpillRun>& runs, IoEnv* env = nullptr);

/// Raw (serialized) view of a combiner: receives one key group — the
/// leading key plus a lazily-advancing zero-copy value iterator — and
/// appends combined records to the sink. `key` points into the bucket
/// arena and stays valid for the whole call; values the combiner does not
/// consume are skipped. Implemented by the typed glue in job.h.
using RawCombineFn = std::function<Status(
    Slice key, RawValueIterator* values, RecordSink* sink)>;

/// \brief Collects map output for one task and produces sorted runs.
///
/// Add() appends records into their partition's bucket; when the
/// accumulated bytes exceed `budget_bytes` the buckets are sorted and
/// streamed to a spill file in `work_dir`. Finish() flushes the remainder
/// (kept in memory if nothing was ever spilled) and returns all runs.
class SortBuffer {
 public:
  struct Options {
    uint32_t num_partitions = 1;
    size_t budget_bytes = 64 * 1024 * 1024;
    const RawComparator* comparator = BytewiseComparator::Instance();
    RawCombineFn combiner;        // Optional.
    std::string work_dir;         // Required if spills can happen.
    std::string spill_name_prefix = "spill";
    /// Force the final flush to disk even when nothing ever spilled
    /// (normally it stays in memory, zero-copy). The fetch shuffle needs
    /// every run file-backed so the MapOutputServer can serve its
    /// extents; the record *stream* is unchanged, so job output is
    /// identical — only spill-accounting counters move.
    bool persist_final_flush = false;
    /// Hard cap on one partition's arena: RecordRef offsets are 32-bit,
    /// so this can never exceed 4 GiB (values above are clamped). Only
    /// tests lower it.
    size_t arena_limit_bytes = 0xffffffffu;
    /// I/O environment for spill files; nullptr means IoEnv::Default().
    IoEnv* env = nullptr;
  };

  SortBuffer(Options options, TaskCounters* counters);
  /// Unlinks any spill files still held (i.e. Finish() was never reached:
  /// the task attempt failed mid-map and is being discarded).
  ~SortBuffer();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(SortBuffer);

  /// Appends one record destined for `partition`. Records larger than the
  /// budget are admitted and spill immediately; a record whose framing
  /// cannot fit the 32-bit arena offset space at all is rejected with
  /// InvalidArgument instead of silently wrapping offsets.
  Status Add(uint32_t partition, Slice key, Slice value);

  /// Bytes one record charges against `budget_bytes`: its framing in the
  /// bucket arena plus its SortedRecordRef.
  static size_t RecordCharge(size_t key_size, size_t value_size) {
    return FramedSize(key_size, value_size) + sizeof(SortedRecordRef);
  }

  /// Sorts/flushes the tail and moves all runs to `*runs`.
  Status Finish(std::vector<SpillRun>* runs);

  uint64_t spill_count() const { return spill_count_; }
  uint32_t num_partitions() const { return options_.num_partitions; }

  /// Ranges of fewer records skip the radix passes and take an insertion
  /// sort under the full order.
  static constexpr size_t kRadixSortMinRecords = 64;

 private:
  using RecordRef = SortedRecordRef;

  /// Arena bytes of one framed record: [klen][vlen][key][value].
  static size_t FramedSize(size_t key_size, size_t value_size) {
    return VarintLength(key_size) + VarintLength(value_size) + key_size +
           value_size;
  }

  /// Per-partition record storage; sorted independently of other buckets.
  /// (Same shape as SpillRun::MemoryBucket — an uncombined final flush
  /// moves these wholesale into the run.)
  struct Bucket {
    std::string arena;
    std::vector<RecordRef> refs;
  };

  /// Zero-copy group iterator over a sorted bucket (the combiner's view).
  class GroupIterator;

  Status SpillSorted(bool final_flush);
  void SortBuckets();
  /// Emits one sorted bucket (optionally through the combiner) into `sink`,
  /// which is either the in-memory run sink or the run writer.
  Status EmitBucket(const Bucket& bucket, RecordSink* sink);
  Status WriteRunToMemory(SpillRun* run);
  Status WriteRunToFile(SpillRun* run);

  const Options options_;
  TaskCounters* counters_;
  std::vector<Bucket> buckets_;
  size_t bytes_used_ = 0;  // Arenas + refs, across all buckets.
  /// Out-of-place radix scratch: SortBuckets sizes it to the largest
  /// bucket and every sort of this task reuses it. Like the spill write
  /// buffer, it is not charged to `budget_bytes`.
  std::vector<RecordRef> sort_scratch_;
  std::vector<SpillRun> runs_;
  uint64_t spill_count_ = 0;
  uint64_t spill_file_seq_ = 0;
  /// One write buffer per task, lent to every RunWriter this buffer
  /// creates — spill-heavy tasks no longer allocate per spill. Grows (up
  /// to SpillWriter::kDefaultBufferBytes) if a later spill wants a larger
  /// buffer.
  std::unique_ptr<char[]> spill_write_buffer_;
  size_t spill_write_buffer_bytes_ = 0;
};

}  // namespace ngram::mr
