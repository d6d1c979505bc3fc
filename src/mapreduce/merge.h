// External merging over sorted run segments, preserving the map task
// emission order for equal keys (stable by source index) so reducer input
// is deterministic.
//
// Two layers live here:
//
//   - KWayMerger, the in-memory k-way merge: a loser tree (tournament
//     tree) where advancing the winner costs exactly ceil(log2 k)
//     comparisons — half of a binary heap's sift-down + sift-up — and
//     every comparison reads the cached encoded-key slice of a source
//     instead of a virtual key() call.
//   - The bounded-fan-in external merge (MergeMapRuns /
//     PrepareReduceMerge): no single KWayMerger is ever built over more
//     than `merge_factor` sources (Hadoop's `io.sort.factor`). Excess
//     runs are merged in *consecutive-index* groups through intermediate
//     on-disk passes, so open fds and read buffers stay O(merge_factor)
//     per task instead of O(total runs) — and the source-order tie-break
//     (hence byte-identical output) survives multi-pass merging.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mapreduce/comparator.h"
#include "mapreduce/counters.h"
#include "mapreduce/io_env.h"
#include "mapreduce/record.h"
#include "mapreduce/sort_buffer.h"
#include "util/macros.h"
#include "util/status.h"

namespace ngram::mr {

/// \brief Merges N sorted record streams under a RawComparator.
///
/// Usage: while (merger.Next()) { use merger.key()/merger.value(); }.
///
/// Slice validity inherits the RecordReader lookback contract: the
/// key()/value() bytes of the current record stay valid across ONE
/// subsequent Next() call (each Next() advances exactly one source, and
/// that source keeps its previous record alive across one advance). The
/// grouped reduce pipeline leans on this to compare adjacent records of
/// the merged stream without copying keys.
class KWayMerger {
 public:
  KWayMerger(std::vector<std::unique_ptr<RecordReader>> sources,
             const RawComparator* comparator);
  NGRAM_DISALLOW_COPY_AND_ASSIGN(KWayMerger);

  /// Advances to the next record in merged order.
  bool Next();

  Slice key() const { return current_key_; }
  Slice value() const { return current_value_; }
  /// Cached RawComparator::SortPrefix of key(): differing prefixes prove
  /// the keys differ under the *sort* comparator without a byte compare.
  uint64_t key_prefix() const { return current_prefix_; }
  const Status& status() const { return status_; }

 private:
  static constexpr size_t kNone = SIZE_MAX;

  /// Strict weak order over sources by cached key; exhausted sources rank
  /// last, ties break on source index for stability.
  bool Less(size_t a, size_t b) const;
  /// Pulls the next record of source `s`, refreshing its cached key.
  void AdvanceSource(size_t s);
  /// Builds the loser tree rooted at internal node `t`; returns the winner.
  size_t BuildTree(size_t t);
  /// Replays source `s` from its leaf to the root after it changed.
  void Replay(size_t s);

  std::vector<std::unique_ptr<RecordReader>> sources_;
  const RawComparator* comparator_;
  size_t num_sources_;                 // Tree leaf count.
  std::vector<Slice> keys_;            // Cached current key per source.
  std::vector<uint64_t> prefixes_;     // Cached sort-key prefix per source.
  std::vector<uint8_t> exhausted_;     // Per source.
  std::vector<size_t> losers_;         // Internal nodes 1..k-1.
  size_t winner_ = kNone;
  Slice current_key_;
  Slice current_value_;
  uint64_t current_prefix_ = 0;
  bool started_ = false;
  Status status_;
};

/// Builds a RecordReader for partition `partition` of `run` (memory or
/// file). Returns nullptr for empty segments. File-backed runs are read
/// through `env` (nullptr means IoEnv::Default()).
std::unique_ptr<RecordReader> OpenRunPartition(const SpillRun& run,
                                               uint32_t partition,
                                               IoEnv* env = nullptr);

/// Knobs shared by the map-side final merge and the reduce-side
/// multi-pass merge. Lifetimes: `combiner` and `counters` must outlive
/// the call they are passed to.
struct ExternalMergeOptions {
  const RawComparator* comparator = BytewiseComparator::Instance();
  /// Maximum fan-in per merge pass; values < 2 are treated as 2 (the
  /// caller gates on JobConfig::merge_factor == 0 for "unbounded").
  uint32_t merge_factor = 16;
  /// Directory for intermediate merge outputs (same as the spill dir).
  std::string work_dir;
  /// Attempt-scoped file-name prefix, e.g. "map-3-a0" / "reduce-2-a1" —
  /// retried attempts never collide with a discarded attempt's files.
  std::string name_prefix;
  /// True for the map-side final merge: pass/byte counters are charged to
  /// the MAP_* phase breakouts instead of REDUCE_*.
  bool map_side = false;
  /// True for eager pre-barrier passes run by the early shuffle service:
  /// pass/byte counters are charged to the EARLY_* breakout instead of
  /// the MAP_*/REDUCE_* ones (totals are charged either way).
  bool early = false;
  /// Map-side only: re-run the combiner across runs while merging.
  RawCombineFn combiner;
  /// Charged with kMergePasses / kIntermediateMergeBytes (and combine
  /// counters on the map side). Required.
  TaskCounters* counters = nullptr;
  /// I/O environment for every run read and intermediate write; nullptr
  /// means IoEnv::Default().
  IoEnv* env = nullptr;
};

/// \brief Map-side final merge (Hadoop's per-task spill merge).
///
/// Merges a finished map task's runs — all partitions — into ONE
/// partition-segmented run file, with at most `merge_factor` runs open in
/// any pass (excess runs go through intermediate whole-run passes first,
/// over consecutive run indices). The combiner, if configured, is re-run
/// across runs in every pass. Consumed input files are unlinked; on
/// success `*runs` holds exactly the merged run. On failure partially
/// written outputs are unlinked and `*runs` keeps the not-yet-consumed
/// inputs (the caller discards them with RemoveRunFiles).
Status MergeMapRuns(const ExternalMergeOptions& options,
                    uint32_t num_partitions, std::vector<SpillRun>* runs);

/// \brief Bounded-fan-in source preparation for one reduce task.
///
/// Result of PrepareReduceMerge: at most `merge_factor` open sources for
/// the final (reducer-feeding) merge, plus the intermediate files backing
/// them. The caller unlinks `intermediate_files` once the reduce attempt
/// is done with the sources (success or failure).
struct ReduceMergeResult {
  std::vector<std::unique_ptr<RecordReader>> sources;
  std::vector<std::string> intermediate_files;
};

/// Opens partition `partition` of `runs` for merging, running
/// intermediate single-partition merge passes until no more than
/// `merge_factor` *fd-costing* (file-backed) sources remain. Every pass
/// merges one consecutive window of sources — consecutive indices are
/// what preserve the source-order tie-break — and the plan is
/// Hadoop-style: the first window is remainder-sized so every later
/// window holds exactly `merge_factor` file-backed members (no pass
/// wastes fan-in), and among the candidate windows of the required size
/// the one covering the fewest bytes merges first (smallest runs first,
/// so early passes are cheap and bytes are re-spilled as few times as
/// possible; byte ties break on the lowest start index, keeping the plan
/// a pure function of the source list). In-memory runs cost no fd or
/// read buffer: they never count against the bound, ride along inside
/// whichever window spans their position, and a no-spill job is never
/// re-spilled here at all. With `merge_factor` == 0 every non-empty
/// segment is opened at once (unbounded). Every file-backed source —
/// map run or intermediate — verifies its block CRCs as it is read.
Status PrepareReduceMerge(const ExternalMergeOptions& options,
                          const std::vector<const SpillRun*>& runs,
                          uint32_t partition, ReduceMergeResult* result);

/// \brief One eager (early-shuffle) merge pass: merges partition
/// `partition` of `runs` — in source order, so the source-index tie-break
/// is exactly the one the reduce-side plan would apply to the same window
/// — into a single run file at `out_path`.
///
/// On success `*out` is a synthetic partition-segmented SpillRun whose
/// only non-empty segment is `partition` (sized `num_partitions` so it
/// can stand in for map runs in a reduce-side source list). On failure
/// the partial output is unlinked and `*out` is unspecified. At most
/// |runs| sources plus the output are open at once — callers bound
/// |runs|'s fd cost by `merge_factor` themselves.
Status MergePartitionToRun(const ExternalMergeOptions& options,
                           const std::vector<const SpillRun*>& runs,
                           uint32_t partition, uint32_t num_partitions,
                           const std::string& out_path, SpillRun* out);

/// Unlinks the files behind `paths` through `env` (nullptr means
/// IoEnv::Default()), ignoring missing ones.
void RemoveFiles(const std::vector<std::string>& paths, IoEnv* env = nullptr);

}  // namespace ngram::mr
