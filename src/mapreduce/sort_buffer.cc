#include "mapreduce/sort_buffer.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "mapreduce/runfile.h"
#include "util/logging.h"

namespace ngram::mr {

namespace {

/// Sink that appends framed records to a string and tracks record count.
class StringRunSink final : public RecordSink {
 public:
  explicit StringRunSink(std::string* out) : out_(out) {}
  Status Append(Slice key, Slice value) override {
    AppendRecord(out_, key, value);
    ++num_records_;
    return Status::OK();
  }
  uint64_t num_records() const { return num_records_; }

 private:
  std::string* out_;
  uint64_t num_records_ = 0;
};

/// A bucket's full sort order: cached prefix, then the comparator on the
/// arena bytes, then arena offset (insertion order). Offsets are unique
/// within a bucket, so this is a strict total order — every correct sort
/// of a bucket yields the same permutation.
class RefLess {
 public:
  RefLess(const char* arena, const RawComparator* cmp)
      : arena_(arena), cmp_(cmp) {}

  bool operator()(SortedRecordRef a, SortedRecordRef b) const {
    if (a.sort_prefix != b.sort_prefix) {
      return a.sort_prefix < b.sort_prefix;
    }
    Slice key_a, key_b, value;
    ArenaRecordAt(arena_, a.offset, &key_a, &value);
    ArenaRecordAt(arena_, b.offset, &key_b, &value);
    const int c = cmp_->Compare(key_a, key_b);
    if (c != 0) {
      return c < 0;
    }
    return a.offset < b.offset;
  }

 private:
  const char* arena_;
  const RawComparator* cmp_;
};

/// Stable out-of-place MSD radix sort under RefLess, one byte of the cached
/// prefix per pass. Each range is partitioned on the highest byte in which
/// two of its prefixes differ, so bytes the whole range shares cost no pass
/// and recursion is at most 8 deep. Every pass is stable and a bucket
/// starts in offset order, so each range is still in offset order when it
/// is finished: a range of byte-equal duplicates is already sorted.
class PrefixRadixSort {
 public:
  /// `scratch` has room for the largest range sorted; every pass reuses it
  /// from the start, because a pass is copied back before it recurses.
  PrefixRadixSort(const char* arena, const RawComparator* cmp,
                  SortedRecordRef* scratch)
      : less_(arena, cmp), scratch_(scratch) {}

  void Sort(SortedRecordRef* first, SortedRecordRef* last) const {
    const size_t n = static_cast<size_t>(last - first);
    if (n < SortBuffer::kRadixSortMinRecords) {
      InsertionSort(first, last);
      return;
    }
    const uint64_t pivot = first->sort_prefix;
    uint64_t diff = 0;
    for (const SortedRecordRef* r = first + 1; r != last; ++r) {
      diff |= r->sort_prefix ^ pivot;
    }
    if (diff == 0) {
      // Duplicates pass the check; only distinct keys sharing the prefix
      // (SUFFIX-sigma's two-term reverse-lex prefix) need the comparator.
      if (!std::is_sorted(first, last, less_)) {
        std::sort(first, last, less_);
      }
      return;
    }
    // The highest byte in which two prefixes differ (diff != 0 here).
    const int shift = 56 - (__builtin_clzll(diff) & ~7);
    auto digit = [shift](SortedRecordRef r) {
      return static_cast<unsigned>(r.sort_prefix >> shift) & 0xffu;
    };
    uint32_t count[256] = {};
    for (const SortedRecordRef* r = first; r != last; ++r) {
      ++count[digit(*r)];
    }
    uint32_t next[256];  // Each digit's next free scratch slot.
    uint32_t sum = 0;
    for (unsigned d = 0; d < 256; ++d) {
      next[d] = sum;
      sum += count[d];
    }
    for (const SortedRecordRef* r = first; r != last; ++r) {
      scratch_[next[digit(*r)]++] = *r;
    }
    std::copy(scratch_, scratch_ + n, first);
    for (unsigned d = 0; d < 256; ++d) {
      if (count[d] > 1) {
        Sort(first, first + count[d]);
      }
      first += count[d];
    }
  }

 private:
  /// n-1 compares on a range already in order, such as a run of
  /// duplicates.
  void InsertionSort(SortedRecordRef* first, SortedRecordRef* last) const {
    if (last - first < 2) {
      return;
    }
    for (SortedRecordRef* i = first + 1; i != last; ++i) {
      const SortedRecordRef r = *i;
      SortedRecordRef* j = i;
      for (; j != first && less_(r, j[-1]); --j) {
        *j = j[-1];
      }
      *j = r;
    }
  }

  const RefLess less_;
  SortedRecordRef* const scratch_;
};

}  // namespace

/// Zero-copy group iterator over one sorted bucket: advances while the
/// next ref's key compares equal to the last consumed one (cached sort
/// prefixes short-circuit the compare — the combiner groups under the sort
/// comparator, so a differing prefix proves a boundary). Arena memory is
/// stable for the whole bucket, so exposed slices never move.
class SortBuffer::GroupIterator final : public RawValueIterator {
 public:
  GroupIterator(const Bucket& bucket, size_t begin, const RawComparator* cmp)
      : arena_(bucket.arena.data()),
        refs_(bucket.refs),
        cmp_(cmp),
        next_(begin),
        prefix_(refs_[begin].sort_prefix) {
    ArenaRecordAt(arena_, refs_[begin].offset, &key_, &value_);
  }

  bool NextValue() override {
    if (next_ >= refs_.size()) {
      return false;
    }
    if (consumed_ > 0) {
      const RecordRef cur = refs_[next_];
      if (cur.sort_prefix != prefix_) {
        return false;  // Boundary: `next_` starts the following group.
      }
      Slice key, value;
      ArenaRecordAt(arena_, cur.offset, &key, &value);
      if (cmp_->Compare(key, key_) != 0) {
        return false;
      }
      key_ = key;
      value_ = value;
    }
    ++next_;
    ++consumed_;
    return true;
  }

  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  /// First ref index past this group (valid once fully consumed).
  size_t end_index() const { return next_; }

 private:
  const char* arena_;
  const std::vector<RecordRef>& refs_;
  const RawComparator* cmp_;
  size_t next_;            // Next ref to consume.
  const uint64_t prefix_;  // Cached prefix every record of the group shares.
  Slice key_;              // Last consumed record (the leading one before
  Slice value_;            // the first call).
};

void RemoveRunFiles(const std::vector<SpillRun>& runs, IoEnv* env) {
  IoEnv* const e = ResolveEnv(env);
  for (const SpillRun& run : runs) {
    if (!run.file_path.empty()) {
      e->Unlink(run.file_path).IgnoreError();
    }
  }
}

SortBuffer::SortBuffer(Options options, TaskCounters* counters)
    : options_(std::move(options)), counters_(counters) {
  buckets_.resize(options_.num_partitions);
}

SortBuffer::~SortBuffer() {
  // A successful Finish() moved the runs out; anything left here belongs
  // to an abandoned attempt.
  RemoveRunFiles(runs_, options_.env);
}

Status SortBuffer::Add(uint32_t partition, Slice key, Slice value) {
  if (partition >= options_.num_partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  const size_t framed_bytes = FramedSize(key.size(), value.size());
  const size_t arena_cap =
      std::min<size_t>(options_.arena_limit_bytes,
                       std::numeric_limits<uint32_t>::max());
  if (framed_bytes > arena_cap - buckets_[partition].arena.size()) {
    // RecordRef offsets are 32-bit; never let an arena outgrow them.
    // Spilling frees the arena; only a record that can never fit is an
    // error.
    if (framed_bytes > arena_cap) {
      return Status::InvalidArgument(
          "record framed in " + std::to_string(framed_bytes) +
          " bytes cannot fit the sort buffer arena offset space (" +
          std::to_string(arena_cap) + " bytes)");
    }
    NGRAM_RETURN_NOT_OK(SpillSorted(/*final_flush=*/false));
  }
  Bucket& bucket = buckets_[partition];
  const size_t offset = bucket.arena.size();
  bucket.arena.resize(offset + framed_bytes);
  char* cursor = bucket.arena.data() + offset;
  cursor = EncodeVarint64To(cursor, key.size());
  cursor = EncodeVarint64To(cursor, value.size());
  cursor = std::copy_n(key.data(), key.size(), cursor);
  std::copy_n(value.data(), value.size(), cursor);
  bucket.refs.push_back(RecordRef{options_.comparator->SortPrefix(key),
                                  static_cast<uint32_t>(offset)});
  bytes_used_ += framed_bytes + sizeof(RecordRef);

  if (bytes_used_ >= options_.budget_bytes) {
    NGRAM_RETURN_NOT_OK(SpillSorted(/*final_flush=*/false));
  }
  return Status::OK();
}

void SortBuffer::SortBuckets() {
  size_t largest = 0;
  for (const Bucket& bucket : buckets_) {
    largest = std::max(largest, bucket.refs.size());
  }
  if (sort_scratch_.size() < largest) {
    sort_scratch_.resize(largest);
  }
  for (Bucket& bucket : buckets_) {
    RecordRef* first = bucket.refs.data();
    PrefixRadixSort(bucket.arena.data(), options_.comparator,
                    sort_scratch_.data())
        .Sort(first, first + bucket.refs.size());
  }
}

Status SortBuffer::EmitBucket(const Bucket& bucket, RecordSink* sink) {
  const char* arena = bucket.arena.data();
  const std::vector<RecordRef>& refs = bucket.refs;
  if (!options_.combiner) {
    Slice key, value;
    for (const RecordRef r : refs) {
      ArenaRecordAt(arena, r.offset, &key, &value);
      NGRAM_RETURN_NOT_OK(sink->Append(key, value));
    }
    return Status::OK();
  }
  // Stream each comparator-equal group through the combiner; values are
  // never materialized into a side vector.
  Status st;
  uint64_t combine_input_records = 0;
  size_t i = 0;
  while (st.ok() && i < refs.size()) {
    GroupIterator group(bucket, i, options_.comparator);
    st = options_.combiner(group.key(), &group, sink);
    if (st.ok()) {
      group.Count();  // Skip whatever the combiner left unconsumed.
      combine_input_records += group.consumed();
      i = group.end_index();
    }
  }
  counters_->Increment(kCombineInputRecords, combine_input_records);
  return st;
}

Status SortBuffer::WriteRunToMemory(SpillRun* run) {
  run->segments.assign(options_.num_partitions, RunSegment{});
  if (!options_.combiner) {
    // Zero-copy: hand the sorted bucket arenas to the run as-is. The
    // merge reads records in place through the refs — no framed copy of
    // the map output is ever materialized.
    run->buckets.resize(options_.num_partitions);
    for (uint32_t p = 0; p < options_.num_partitions; ++p) {
      run->segments[p].num_records = buckets_[p].refs.size();
      run->buckets[p].arena = std::move(buckets_[p].arena);
      run->buckets[p].refs = std::move(buckets_[p].refs);
    }
    return Status::OK();
  }
  std::string& data = run->memory_data;
  for (uint32_t p = 0; p < options_.num_partitions; ++p) {
    RunSegment& seg = run->segments[p];
    seg.offset = data.size();
    StringRunSink sink(&data);
    NGRAM_RETURN_NOT_OK(EmitBucket(buckets_[p], &sink));
    seg.length = data.size() - seg.offset;
    seg.num_records = sink.num_records();
    counters_->Increment(kCombineOutputRecords, sink.num_records());
  }
  return Status::OK();
}

Status SortBuffer::WriteRunToFile(SpillRun* run) {
  run->segments.assign(options_.num_partitions, RunSegment{});
  char name[64];
  snprintf(name, sizeof(name), "/%s-%06llu.run",
           options_.spill_name_prefix.c_str(),
           static_cast<unsigned long long>(spill_file_seq_++));
  run->file_path = options_.work_dir + name;

  RunWriterOptions writer_options;
  // bytes_used_ already counts every record's framing plus a 12-byte ref;
  // the run's front-coded blocks are about the framed size, so small
  // spills get a small buffer (a larger run just flushes it early).
  // The buffer itself is task-owned and reused across this task's spills,
  // growing (never past the default writer buffer) if a later spill wants
  // more.
  const size_t want_bytes = std::max<size_t>(
      1, std::min(SpillWriter::kDefaultBufferBytes, bytes_used_));
  if (want_bytes > spill_write_buffer_bytes_) {
    spill_write_buffer_ = std::make_unique<char[]>(want_bytes);
    spill_write_buffer_bytes_ = want_bytes;
  }
  writer_options.buffer_bytes = spill_write_buffer_bytes_;
  writer_options.external_buffer = spill_write_buffer_.get();
  writer_options.env = options_.env;
  RunWriter writer(run->file_path, writer_options);
  NGRAM_RETURN_NOT_OK(writer.Open());

  uint64_t total_records = 0;
  for (uint32_t p = 0; p < options_.num_partitions; ++p) {
    RunSegment& seg = run->segments[p];
    seg.offset = writer.bytes_written();
    const uint64_t records_before = writer.records_written();
    Status st = EmitBucket(buckets_[p], &writer);
    if (st.ok()) {
      st = writer.FinishSegment();  // Segment extents cover whole blocks.
    }
    if (!st.ok()) {
      writer.Abandon();  // Unlinks the partially written spill file.
      return st;
    }
    seg.length = writer.bytes_written() - seg.offset;
    seg.num_records = writer.records_written() - records_before;
    total_records += seg.num_records;
    if (options_.combiner) {
      counters_->Increment(kCombineOutputRecords, seg.num_records);
    }
  }
  NGRAM_RETURN_NOT_OK(writer.Close());  // Close() unlinks on failure.
  counters_->Increment(kSpilledRecords, total_records);
  counters_->Increment(kSpillFiles, 1);
  counters_->Increment(kRunBytesRaw, writer.raw_bytes());
  counters_->Increment(kRunBytesWritten, writer.bytes_written());
  return Status::OK();
}

Status SortBuffer::SpillSorted(bool final_flush) {
  if (bytes_used_ == 0) {
    return Status::OK();
  }
  SortBuckets();
  // Keep the final flush in memory only if nothing was spilled before —
  // otherwise all runs go to disk so memory stays bounded. The fetch
  // shuffle opts out: served runs must be file-backed.
  const bool to_memory =
      final_flush && runs_.empty() && !options_.persist_final_flush;
  if (!to_memory && options_.work_dir.empty()) {
    return Status::InvalidArgument(
        "SortBuffer budget exceeded but no work_dir configured");
  }
  SpillRun run;
  NGRAM_RETURN_NOT_OK(to_memory ? WriteRunToMemory(&run)
                                : WriteRunToFile(&run));
  runs_.push_back(std::move(run));
  if (!to_memory) {
    ++spill_count_;
  }
  for (Bucket& bucket : buckets_) {
    bucket.arena.clear();
    bucket.refs.clear();
  }
  bytes_used_ = 0;
  return Status::OK();
}

Status SortBuffer::Finish(std::vector<SpillRun>* runs) {
  NGRAM_RETURN_NOT_OK(SpillSorted(/*final_flush=*/true));
  *runs = std::move(runs_);
  runs_.clear();
  return Status::OK();
}

}  // namespace ngram::mr
