// Job counters mirroring Hadoop's, including the two the paper reports:
// MAP_OUTPUT_BYTES and MAP_OUTPUT_RECORDS (Section VII-A, measures (b), (c)).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace ngram::mr {

/// Well-known counter names (kept string-typed so user jobs can add theirs).
inline constexpr const char* kMapInputRecords = "MAP_INPUT_RECORDS";
/// Serialized bytes fed to mappers — for chained jobs this is the size of
/// the previous round's output, i.e. the job-boundary traffic.
inline constexpr const char* kMapInputBytes = "MAP_INPUT_BYTES";
inline constexpr const char* kMapOutputRecords = "MAP_OUTPUT_RECORDS";
inline constexpr const char* kMapOutputBytes = "MAP_OUTPUT_BYTES";
inline constexpr const char* kCombineInputRecords = "COMBINE_INPUT_RECORDS";
inline constexpr const char* kCombineOutputRecords = "COMBINE_OUTPUT_RECORDS";
inline constexpr const char* kReduceInputGroups = "REDUCE_INPUT_GROUPS";
inline constexpr const char* kReduceInputRecords = "REDUCE_INPUT_RECORDS";
inline constexpr const char* kReduceOutputRecords = "REDUCE_OUTPUT_RECORDS";
inline constexpr const char* kSpilledRecords = "SPILLED_RECORDS";
inline constexpr const char* kSpillFiles = "SPILL_FILES";
/// Bounded-fan-in merge operations that wrote an intermediate run to disk
/// (map-side final merges and reduce-side intermediate passes). Zero when
/// every task stayed within `merge_factor` sources.
inline constexpr const char* kMergePasses = "MERGE_PASSES";
/// Bytes written to intermediate merge outputs (re-spilled shuffle data;
/// the I/O price of bounding the fan-in).
inline constexpr const char* kIntermediateMergeBytes =
    "INTERMEDIATE_MERGE_BYTES";
/// Per-phase breakout of the two counters above: map-side final merges vs
/// reduce-side intermediate passes (kMergePasses/kIntermediateMergeBytes
/// stay the job-level totals).
inline constexpr const char* kMapMergePasses = "MAP_MERGE_PASSES";
inline constexpr const char* kMapIntermediateMergeBytes =
    "MAP_INTERMEDIATE_MERGE_BYTES";
inline constexpr const char* kReduceMergePasses = "REDUCE_MERGE_PASSES";
inline constexpr const char* kReduceIntermediateMergeBytes =
    "REDUCE_INTERMEDIATE_MERGE_BYTES";
/// Bytes every persisted run (spill, map-side final merge, reduce-side
/// intermediate pass) would occupy in raw [klen][vlen][key][value]
/// framing vs the bytes actually written at rest — the observable
/// compression ratio of the block run format (runfile.h).
inline constexpr const char* kRunBytesRaw = "RUN_BYTES_RAW";
inline constexpr const char* kRunBytesWritten = "RUN_BYTES_WRITTEN";
inline constexpr const char* kTaskRetries = "TASK_RETRIES";
/// Map tasks re-executed because a reduce attempt found one of their
/// persisted runs corrupt (the fetch-failure -> producer re-execution
/// protocol). Data counters of re-executed attempts are discarded, so
/// together with kCorruptRunsRecovered these are the only counters
/// allowed to differ from a failure-free run of the same job.
inline constexpr const char* kMapReexecutions = "MAP_REEXECUTIONS";
/// Corrupt persisted runs successfully replaced by a regenerated copy.
inline constexpr const char* kCorruptRunsRecovered = "CORRUPT_RUNS_RECOVERED";
/// Eager reduce-side merge passes the early shuffle service ran while map
/// tasks were still executing, and the bytes they wrote. Also counted in
/// the kMergePasses / kIntermediateMergeBytes totals (they are ordinary
/// intermediate passes, just pulled ahead of the map barrier). How many
/// passes run eagerly depends on map-task commit timing, so these — like
/// every merge-accounting counter once JobConfig::shuffle_slots > 0 — are
/// scheduling-dependent; the *data* counters stay deterministic.
inline constexpr const char* kEarlyMergePasses = "EARLY_MERGE_PASSES";
inline constexpr const char* kEarlyMergeBytes = "EARLY_MERGE_BYTES";
/// Milliseconds reduce tasks spent preparing their merge sources after
/// the map barrier fell (intermediate passes still owed post-barrier,
/// summed over successful reduce attempts) — the latency the early
/// shuffle service exists to shrink.
inline constexpr const char* kBarrierWaitMs = "BARRIER_WAIT_MS";
/// Fetch shuffle (JobConfig::fetch_shuffle): payload bytes pulled over
/// the transport — every shuffled byte crosses the wire in fetch mode,
/// so this tracks the job's shuffle traffic as a remote cluster would
/// bill it. Deterministic for a fault-free run (unlike the two below).
inline constexpr const char* kShuffleFetchBytes = "SHUFFLE_FETCH_BYTES";
/// Fetch/publish requests that were retried over a fresh connection
/// (transient transport faults absorbed without failing the attempt).
inline constexpr const char* kFetchRetries = "FETCH_RETRIES";
/// Milliseconds map attempts spent mirroring their output through the
/// shuffle server (publish + fetch + clone-file commit, summed over
/// successful attempts) — the latency price of placement independence.
inline constexpr const char* kFetchWaitMs = "FETCH_WAIT_MS";
/// Maximum records any single reduce task consumed (partition skew).
inline constexpr const char* kReduceInputRecordsMax =
    "REDUCE_INPUT_RECORDS_MAX";
/// Peak number of simultaneously tracked n-grams in a reducer's
/// bookkeeping structure (max over reduce tasks) — the paper's Section IV
/// memory-footprint argument.
inline constexpr const char* kBookkeepingPeakEntries =
    "BOOKKEEPING_PEAK_ENTRIES";

/// \brief Thread-safe named 64-bit counters.
///
/// Tasks running on different slots increment concurrently; Snapshot() is
/// taken after phase barriers for reporting.
class Counters {
 public:
  void Increment(const std::string& name, uint64_t delta = 1)
      NGRAM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    values_[name] += delta;
  }

  uint64_t Get(const std::string& name) const NGRAM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  /// Raises `name` to `value` if it is currently lower (used for
  /// max-semantics counters like per-reducer skew and peak memory).
  void UpdateMax(const std::string& name, uint64_t value)
      NGRAM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    uint64_t& slot = values_[name];
    if (value > slot) {
      slot = value;
    }
  }

  std::map<std::string, uint64_t> Snapshot() const NGRAM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return values_;
  }

  /// Adds every counter of `other` into this. Snapshots `other` before
  /// taking this->mu_, so two counters merging into each other
  /// concurrently cannot deadlock on lock order.
  void MergeFrom(const Counters& other) NGRAM_EXCLUDES(mu_) {
    const auto snap = other.Snapshot();
    MutexLock lock(&mu_);
    for (const auto& [name, value] : snap) {
      values_[name] += value;
    }
  }

 private:
  mutable Mutex mu_;
  std::map<std::string, uint64_t> values_ NGRAM_GUARDED_BY(mu_);
};

/// \brief A task-local, lock-free counter block flushed into the shared
/// Counters at task end — avoids contention on the hot Emit path.
class TaskCounters {
 public:
  explicit TaskCounters(Counters* shared) : shared_(shared) {}
  ~TaskCounters() { Flush(); }

  /// Hot path: counter names are almost always the interned constants
  /// above, so a pointer-identity scan over a handful of entries beats
  /// any map — and does no per-call allocation, unlike a std::string key.
  /// Only when no entry has the same address does a second scan compare
  /// the text, so equal names at different addresses still share one
  /// entry.
  ///
  /// `name` must outlive this TaskCounters (it is stored, not copied,
  /// until Flush()): pass string literals or the interned constants, not
  /// a temporary's c_str().
  void Increment(const char* name, uint64_t delta = 1) {
    for (Entry& e : local_) {
      if (e.name == name) {
        e.value += delta;
        return;
      }
    }
    for (Entry& e : local_) {
      if (strcmp(e.name, name) == 0) {
        e.value += delta;
        return;
      }
    }
    local_.push_back(Entry{name, delta});
  }

  /// Forwards a max-semantics update straight to the shared counters.
  void UpdateSharedMax(const char* name, uint64_t value) {
    shared_->UpdateMax(name, value);
  }

  void Flush() {
    for (const Entry& e : local_) {
      if (e.value > 0) {
        shared_->Increment(e.name, e.value);
      }
    }
    local_.clear();
  }

  /// Drops pending increments without publishing them — used for failed
  /// task attempts, whose counters Hadoop likewise discards.
  void DiscardPending() { local_.clear(); }

  /// Distinct counter names holding pending increments.
  size_t num_pending() const { return local_.size(); }

 private:
  struct Entry {
    const char* name;
    uint64_t value;
  };

  Counters* shared_;
  std::vector<Entry> local_;
};

}  // namespace ngram::mr
