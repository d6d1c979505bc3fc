#include "mapreduce/merge.h"

#include <algorithm>
#include <cstdio>

#include "mapreduce/context.h"
#include "mapreduce/runfile.h"

namespace ngram::mr {

namespace {

/// Reader over a zero-copy in-memory run partition: records surface
/// straight out of the sorted bucket arena through its refs, each decoded
/// in place from its frame — no copy. The arena is stable for the run's
/// lifetime, so the lookback contract holds trivially.
class BucketRunReader final : public RecordReader {
 public:
  explicit BucketRunReader(const SpillRun::MemoryBucket* bucket)
      : bucket_(bucket) {}

  bool Next() override {
    if (i_ >= bucket_->refs.size()) {
      return false;
    }
    const SortedRecordRef r = bucket_->refs[i_++];
    ArenaRecordAt(bucket_->arena.data(), r.offset, &key_, &value_);
    has_sort_prefix_ = true;
    sort_prefix_ = r.sort_prefix;
    return true;
  }

 private:
  const SpillRun::MemoryBucket* bucket_;
  size_t i_ = 0;
};

/// Drains `merger` into `sink`. Without a combiner, records are copied
/// verbatim (order already merged-stable). With one, each sort-equal key
/// group streams through it — the merge-pass equivalent of the spill-time
/// combiner, now aggregating *across* runs. The leading key is copied
/// once per group: unlike the bucket-arena combiner path, merge sources
/// only keep a key alive across one advance (the lookback contract),
/// which is shorter than a whole group.
Status DrainMerger(KWayMerger* merger, const RawCombineFn& combiner,
                   const RawComparator* comparator, RecordSink* sink,
                   TaskCounters* counters) {
  Status st;
  if (!combiner) {
    while (merger->Next()) {
      NGRAM_RETURN_NOT_OK(sink->Append(merger->key(), merger->value()));
    }
    return merger->status();
  }
  std::string key_scratch;  // Reused across this stream's groups.
  uint64_t combine_input_records = 0;
  bool have_record = merger->Next();
  while (st.ok() && have_record) {
    GroupValueIterator group(merger, comparator,
                             /*grouping_is_sort_order=*/true);
    key_scratch.assign(merger->key().data(), merger->key().size());
    st = combiner(Slice(key_scratch), &group, sink);
    if (st.ok()) {
      group.SkipRemaining();
    }
    combine_input_records += group.consumed();
    have_record = group.next_group_ready();
  }
  counters->Increment(kCombineInputRecords, combine_input_records);
  if (st.ok()) {
    st = merger->status();
  }
  return st;
}

RunWriterOptions MergeWriterOptions(const ExternalMergeOptions& options) {
  RunWriterOptions writer_options;
  writer_options.env = options.env;
  return writer_options;
}

/// Books one completed merge pass: the operation itself, the re-spilled
/// bytes it wrote (both also under the per-phase breakout), and the
/// at-rest vs raw-framing byte split of its output.
void ChargeMergePass(const ExternalMergeOptions& options,
                     const RunWriter& writer) {
  options.counters->Increment(kMergePasses, 1);
  options.counters->Increment(kIntermediateMergeBytes,
                              writer.bytes_written());
  if (options.early) {
    options.counters->Increment(kEarlyMergePasses, 1);
    options.counters->Increment(kEarlyMergeBytes, writer.bytes_written());
  } else {
    options.counters->Increment(
        options.map_side ? kMapMergePasses : kReduceMergePasses, 1);
    options.counters->Increment(
        options.map_side ? kMapIntermediateMergeBytes
                         : kReduceIntermediateMergeBytes,
        writer.bytes_written());
  }
  options.counters->Increment(kRunBytesRaw, writer.raw_bytes());
  options.counters->Increment(kRunBytesWritten, writer.bytes_written());
}

std::string MergeOutputPath(const ExternalMergeOptions& options,
                            uint64_t seq) {
  char name[64];
  snprintf(name, sizeof(name), "/%s-merge-%06llu.run",
           options.name_prefix.c_str(),
           static_cast<unsigned long long>(seq));
  return options.work_dir + name;
}

/// Merges whole runs (every partition) of `group` into one
/// partition-segmented run file — the unit of work of the map-side final
/// merge. At most |group| <= merge_factor sources are open at a time (one
/// partition's readers, reopened per partition), plus the output file.
Status MergeRunGroup(const ExternalMergeOptions& options,
                     uint32_t num_partitions,
                     const std::vector<const SpillRun*>& group,
                     uint64_t seq, SpillRun* out) {
  out->segments.assign(num_partitions, RunSegment{});
  out->file_path = MergeOutputPath(options, seq);

  RunWriter writer(out->file_path, MergeWriterOptions(options));
  NGRAM_RETURN_NOT_OK(writer.Open());

  for (uint32_t p = 0; p < num_partitions; ++p) {
    std::vector<std::unique_ptr<RecordReader>> sources;
    sources.reserve(group.size());
    for (const SpillRun* run : group) {
      auto reader = OpenRunPartition(*run, p, options.env);
      if (reader != nullptr) {
        sources.push_back(std::move(reader));
      }
    }
    KWayMerger merger(std::move(sources), options.comparator);
    RunSegment& seg = out->segments[p];
    seg.offset = writer.bytes_written();
    const uint64_t records_before = writer.records_written();
    Status st = DrainMerger(&merger, options.combiner, options.comparator,
                            &writer, options.counters);
    if (st.ok()) {
      st = writer.FinishSegment();  // Segments cover whole blocks.
    }
    if (!st.ok()) {
      writer.Abandon();  // Unlinks the partial merge output.
      return st;
    }
    seg.length = writer.bytes_written() - seg.offset;
    seg.num_records = writer.records_written() - records_before;
    if (options.combiner) {
      options.counters->Increment(kCombineOutputRecords, seg.num_records);
    }
  }
  NGRAM_RETURN_NOT_OK(writer.Close());  // Close() unlinks on failure.
  ChargeMergePass(options, writer);
  return Status::OK();
}

/// One reduce-merge input that has not been opened yet: either partition
/// `partition` of a map run (opened through OpenRunPartition, costing an
/// fd only for file-backed runs) or a whole intermediate single-partition
/// run file from an earlier pass. Deferred opening is what bounds a
/// reduce task's fds to one merge group at a time.
struct PendingSource {
  const SpillRun* run = nullptr;  // Null for intermediates.
  std::string path;               // Intermediate file.
  uint64_t length = 0;
};

/// True when opening this source costs an fd and a read buffer — the two
/// resources merge_factor exists to bound. In-memory runs (zero-copy
/// bucket arenas, framed memory) cost neither and ride along free.
bool CostsFd(const PendingSource& source) {
  return source.run == nullptr || !source.run->in_memory();
}

size_t CountFdSources(const std::vector<PendingSource>& pending) {
  size_t n = 0;
  for (const PendingSource& source : pending) {
    n += CostsFd(source) ? 1 : 0;
  }
  return n;
}

/// At-rest bytes a merge window member contributes — the cost driver of
/// the smallest-runs-first window choice.
uint64_t SourceBytes(const PendingSource& source, uint32_t partition) {
  return source.run != nullptr ? source.run->segments[partition].length
                               : source.length;
}

/// Merges already-open `sources` into one single-partition intermediate
/// run file at `merged->path`, filling in its extent.
Status MergeToIntermediate(const ExternalMergeOptions& options,
                           std::vector<std::unique_ptr<RecordReader>> sources,
                           PendingSource* merged) {
  RunWriter writer(merged->path, MergeWriterOptions(options));
  NGRAM_RETURN_NOT_OK(writer.Open());
  KWayMerger merger(std::move(sources), options.comparator);
  Status st = DrainMerger(&merger, /*combiner=*/nullptr, options.comparator,
                          &writer, options.counters);
  if (!st.ok()) {
    writer.Abandon();
    return st;
  }
  NGRAM_RETURN_NOT_OK(writer.Close());
  merged->length = writer.bytes_written();
  ChargeMergePass(options, writer);
  return Status::OK();
}

std::unique_ptr<RecordReader> OpenPendingSource(
    const ExternalMergeOptions& options, const PendingSource& source,
    uint32_t partition) {
  if (source.run != nullptr) {
    return OpenRunPartition(*source.run, partition, options.env);
  }
  return std::make_unique<FileRecordReader>(
      source.path, 0, source.length, FileRecordReader::kDefaultBufferBytes,
      options.env);
}

}  // namespace

std::unique_ptr<RecordReader> OpenRunPartition(const SpillRun& run,
                                               uint32_t partition,
                                               IoEnv* env) {
  const RunSegment& seg = run.segments[partition];
  if (seg.num_records == 0) {
    return nullptr;
  }
  if (run.zero_copy()) {
    return std::make_unique<BucketRunReader>(&run.buckets[partition]);
  }
  if (run.in_memory()) {
    return std::make_unique<MemoryRecordReader>(
        Slice(run.memory_data.data() + seg.offset, seg.length));
  }
  return std::make_unique<FileRecordReader>(
      run.file_path, seg.offset, seg.length,
      FileRecordReader::kDefaultBufferBytes, env);
}

KWayMerger::KWayMerger(std::vector<std::unique_ptr<RecordReader>> sources,
                       const RawComparator* comparator)
    : sources_(std::move(sources)),
      comparator_(comparator),
      num_sources_(sources_.size()),
      keys_(sources_.size()),
      prefixes_(sources_.size(), 0),
      exhausted_(sources_.size(), 0),
      losers_(sources_.size(), kNone) {}

bool KWayMerger::Less(size_t a, size_t b) const {
  if (a == kNone || exhausted_[a]) {
    return false;
  }
  if (b == kNone || exhausted_[b]) {
    return true;
  }
  if (prefixes_[a] != prefixes_[b]) {
    return prefixes_[a] < prefixes_[b];
  }
  const int c = comparator_->Compare(keys_[a], keys_[b]);
  if (c != 0) {
    return c < 0;
  }
  return a < b;  // Stable tie-break by source index.
}

void KWayMerger::AdvanceSource(size_t s) {
  RecordReader* src = sources_[s].get();
  if (src == nullptr) {
    exhausted_[s] = 1;
    return;
  }
  if (src->Next()) {
    keys_[s] = src->key();
    prefixes_[s] = src->has_sort_prefix() ? src->sort_prefix()
                                          : comparator_->SortPrefix(keys_[s]);
  } else {
    if (!src->status().ok() && status_.ok()) {
      status_ = src->status();
    }
    exhausted_[s] = 1;
    keys_[s] = Slice();
  }
}

size_t KWayMerger::BuildTree(size_t t) {
  if (t >= num_sources_) {
    return t - num_sources_;  // Leaf: node k+s holds source s.
  }
  const size_t left = BuildTree(2 * t);
  const size_t right = BuildTree(2 * t + 1);
  if (Less(right, left)) {
    losers_[t] = left;
    return right;
  }
  losers_[t] = right;
  return left;
}

void KWayMerger::Replay(size_t s) {
  size_t winner = s;
  for (size_t t = (s + num_sources_) / 2; t > 0; t /= 2) {
    if (Less(losers_[t], winner)) {
      std::swap(losers_[t], winner);
    }
  }
  winner_ = winner;
}

bool KWayMerger::Next() {
  if (!status_.ok()) {
    return false;
  }
  if (!started_) {
    started_ = true;
    for (size_t s = 0; s < num_sources_; ++s) {
      AdvanceSource(s);
    }
    if (!status_.ok()) {
      return false;
    }
    if (num_sources_ == 0) {
      return false;
    }
    winner_ = num_sources_ == 1 ? 0 : BuildTree(1);
  } else if (winner_ != kNone) {
    // Pull the next record of the source we last surfaced, then replay its
    // path to the root; every other node of the tree is unaffected.
    AdvanceSource(winner_);
    if (!status_.ok()) {
      return false;
    }
    if (num_sources_ > 1) {
      Replay(winner_);
    }
  }
  if (winner_ == kNone || exhausted_[winner_]) {
    winner_ = kNone;
    return false;
  }
  current_key_ = keys_[winner_];
  current_value_ = sources_[winner_]->value();
  current_prefix_ = prefixes_[winner_];
  return true;
}

Status MergeMapRuns(const ExternalMergeOptions& options,
                    uint32_t num_partitions, std::vector<SpillRun>* runs) {
  const size_t factor = std::max<uint32_t>(2, options.merge_factor);
  uint64_t seq = 0;
  std::vector<SpillRun> current = std::move(*runs);
  runs->clear();
  // Merge consecutive groups of at most `factor` runs per pass until one
  // run remains. Consecutive grouping keeps the run-order tie-break — and
  // with it byte-identical output — intact across passes.
  while (current.size() > 1) {
    std::vector<SpillRun> next;
    next.reserve((current.size() + factor - 1) / factor);
    for (size_t i = 0; i < current.size(); i += factor) {
      const size_t group_end = std::min(current.size(), i + factor);
      if (group_end - i == 1) {
        next.push_back(std::move(current[i]));
        continue;
      }
      std::vector<const SpillRun*> group;
      group.reserve(group_end - i);
      for (size_t g = i; g < group_end; ++g) {
        group.push_back(&current[g]);
      }
      SpillRun merged;
      Status st = MergeRunGroup(options, num_partitions, group, seq++,
                                &merged);
      if (!st.ok()) {
        // Hand every file still on disk back to the caller for cleanup:
        // outputs produced so far plus the unconsumed inputs (the failed
        // group's output was already unlinked by MergeRunGroup).
        *runs = std::move(next);
        for (size_t g = i; g < current.size(); ++g) {
          runs->push_back(std::move(current[g]));
        }
        return st;
      }
      for (size_t g = i; g < group_end; ++g) {
        if (!current[g].file_path.empty()) {
          ResolveEnv(options.env)
              ->Unlink(current[g].file_path)
              .IgnoreError();
        }
      }
      next.push_back(std::move(merged));
    }
    current = std::move(next);
  }
  *runs = std::move(current);
  return Status::OK();
}

Status PrepareReduceMerge(const ExternalMergeOptions& options,
                          const std::vector<const SpillRun*>& runs,
                          uint32_t partition, ReduceMergeResult* result) {
  std::vector<PendingSource> pending;
  pending.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i]->segments[partition].num_records == 0) {
      continue;  // Keeps relative order of the non-empty sources.
    }
    PendingSource source;
    source.run = runs[i];
    pending.push_back(std::move(source));
  }

  const size_t factor = options.merge_factor == 0
                            ? 0
                            : std::max<uint32_t>(2, options.merge_factor);
  uint64_t seq = 0;
  // Merge one consecutive window at a time until no more than `factor`
  // fd-costing sources remain. Window endpoints are fd-costing sources;
  // in-memory members ride along inside whichever window spans their
  // position (keeping windows consecutive is what preserves the
  // source-order tie-break), and a no-spill job — zero fd-costing
  // sources — never re-spills here at all. Two Hadoop-style planning
  // rules pick the window:
  //   - Remainder-first sizing: with n fd sources left, the next window
  //     holds ((n - factor - 1) mod (factor - 1)) + 2 of them. The first
  //     merge absorbs the remainder, leaving n' with n' - factor
  //     divisible by factor - 1, so every later window is exactly full
  //     and no pass wastes fan-in (the formula then yields `factor`).
  //   - Smallest runs first: among the consecutive windows of that size,
  //     merge the one covering the fewest at-rest bytes — early passes
  //     stay cheap and big runs are re-spilled as few times as possible.
  //     Byte ties break on the lowest start index, so the plan is a pure
  //     function of the source list (determinism).
  if (factor != 0) {
    size_t fd_count = CountFdSources(pending);
    while (fd_count > factor) {
      const size_t want = (fd_count - factor - 1) % (factor - 1) + 2;
      // Positions of the fd-costing sources and prefix byte sums over
      // the full pending list (windows pay for their in-memory riders
      // too — those bytes get written out with the merge).
      std::vector<size_t> fd_pos;
      fd_pos.reserve(fd_count);
      std::vector<uint64_t> prefix(pending.size() + 1, 0);
      for (size_t i = 0; i < pending.size(); ++i) {
        if (CostsFd(pending[i])) {
          fd_pos.push_back(i);
        }
        prefix[i + 1] = prefix[i] + SourceBytes(pending[i], partition);
      }
      size_t best = 0;
      uint64_t best_bytes = UINT64_MAX;
      for (size_t k = 0; k + want <= fd_pos.size(); ++k) {
        const uint64_t bytes =
            prefix[fd_pos[k + want - 1] + 1] - prefix[fd_pos[k]];
        if (bytes < best_bytes) {
          best_bytes = bytes;
          best = k;
        }
      }
      const size_t lo = fd_pos[best];
      const size_t hi = fd_pos[best + want - 1];
      std::vector<std::unique_ptr<RecordReader>> sources;
      sources.reserve(hi - lo + 1);
      for (size_t g = lo; g <= hi; ++g) {
        auto reader = OpenPendingSource(options, pending[g], partition);
        if (reader != nullptr) {
          sources.push_back(std::move(reader));
        }
      }
      PendingSource merged;
      merged.path = MergeOutputPath(options, seq++);
      // Every created intermediate is registered for caller cleanup
      // before it is written, so no failure path can leak it.
      result->intermediate_files.push_back(merged.path);
      NGRAM_RETURN_NOT_OK(
          MergeToIntermediate(options, std::move(sources), &merged));
      // Intermediates consumed by this window are done for good; unlink
      // now so disk usage stays one pass deep (their paths remain in the
      // cleanup list — a second unlink is a harmless no-op).
      for (size_t g = lo; g <= hi; ++g) {
        if (pending[g].run == nullptr) {
          ResolveEnv(options.env)->Unlink(pending[g].path).IgnoreError();
        }
      }
      // The intermediate takes the window's position, so relative source
      // order — and with it the tie-break — is untouched.
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(lo),
                    pending.begin() + static_cast<ptrdiff_t>(hi + 1));
      pending.insert(pending.begin() + static_cast<ptrdiff_t>(lo),
                     std::move(merged));
      fd_count -= want - 1;
    }
  }

  result->sources.reserve(pending.size());
  for (const PendingSource& source : pending) {
    auto reader = OpenPendingSource(options, source, partition);
    if (reader != nullptr) {
      result->sources.push_back(std::move(reader));
    }
  }
  return Status::OK();
}

Status MergePartitionToRun(const ExternalMergeOptions& options,
                           const std::vector<const SpillRun*>& runs,
                           uint32_t partition, uint32_t num_partitions,
                           const std::string& out_path, SpillRun* out) {
  std::vector<std::unique_ptr<RecordReader>> sources;
  sources.reserve(runs.size());
  for (const SpillRun* run : runs) {
    auto reader = OpenRunPartition(*run, partition, options.env);
    if (reader != nullptr) {
      sources.push_back(std::move(reader));
    }
  }
  RunWriter writer(out_path, MergeWriterOptions(options));
  NGRAM_RETURN_NOT_OK(writer.Open());
  KWayMerger merger(std::move(sources), options.comparator);
  Status st = DrainMerger(&merger, /*combiner=*/nullptr, options.comparator,
                          &writer, options.counters);
  if (!st.ok()) {
    writer.Abandon();  // Unlinks the partial eager output.
    return st;
  }
  NGRAM_RETURN_NOT_OK(writer.Close());  // Close() unlinks on failure.
  out->file_path = out_path;
  out->memory_data.clear();
  out->buckets.clear();
  out->segments.assign(num_partitions, RunSegment{});
  RunSegment& seg = out->segments[partition];
  seg.offset = 0;
  seg.length = writer.bytes_written();
  seg.num_records = writer.records_written();
  ChargeMergePass(options, writer);
  return Status::OK();
}

void RemoveFiles(const std::vector<std::string>& paths, IoEnv* env) {
  IoEnv* const e = ResolveEnv(env);
  for (const std::string& path : paths) {
    if (!path.empty()) {
      e->Unlink(path).IgnoreError();
    }
  }
}

}  // namespace ngram::mr
