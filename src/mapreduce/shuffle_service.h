// The early shuffle service: overlap reduce-side merging with map
// execution (Hadoop's copy/merge shuffle phase, YTsaurus's pipelined
// sorted merge — see docs/architecture.md section 4c).
//
// The job driver commits each finished map task's runs into the
// MapOutputRegistry; with JobConfig::shuffle_slots > 0 a pool of
// background merger workers watches those commits and eagerly runs
// reduce-side intermediate merge passes over them while other map tasks
// are still executing. When the map barrier falls, each reduce task's
// source list substitutes the pre-merged intermediates for the task
// ranges they cover, so the post-barrier PrepareReduceMerge has little or
// nothing left to do and the final pass opens at most merge_factor
// pre-merged sources instead of O(maps x spills) runs.
//
// Determinism: the final reduce merge is a stable k-way merge whose ties
// break on source index, with sources ordered by (map task id, run
// index). Such a merge is associative over *consecutive* windows: merging
// any window of adjacent-in-task-id sources into one intermediate that
// then occupies the window's position yields the exact byte stream of the
// all-at-once merge — the intermediate's records are already in the order
// the tie-break would have produced, and records outside the window
// compare against it exactly as they would against its members. Eager
// workers therefore only ever merge windows that are consecutive in map
// task id (never commit order), which makes job output byte-identical
// with the service on or off, for every merge factor and slot count. What
// the service does NOT preserve is merge *accounting*: how many passes
// run eagerly depends on commit timing, so MERGE_PASSES and friends
// become scheduling-dependent once shuffle_slots > 0.
//
// Fault interplay (PR 6's corruption recovery): eager merging is
// best-effort. A failed eager pass (I/O fault, corrupt source) unlinks
// its partial output, marks the window failed, and the reduce phase falls
// back to the committed runs — an eager failure never fails the job, and
// a corrupt run still surfaces through the reducer's own read, triggering
// producer re-execution as before. A re-execution retires the producing
// task's generation; every eager output built over it is invalidated
// (reduce attempts validate outputs against their generation snapshot, so
// a stale output is never substituted) and its file is retired until job
// end — like retired run generations, it is not unlinked immediately
// because a stale reduce attempt may still be reading it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/comparator.h"
#include "mapreduce/counters.h"
#include "mapreduce/io_env.h"
#include "mapreduce/merge.h"
#include "mapreduce/sort_buffer.h"
#include "mapreduce/spill_writer.h"
#include "util/macros.h"
#include "util/mutex.h"

namespace ngram::mr {

/// \brief Committed map output, with the bookkeeping corruption recovery
/// and the early shuffle service need.
///
/// Each task's run vector is a shared_ptr *generation*. A reduce attempt
/// (or eager merge worker) snapshots the shared_ptrs it plans over, so
/// re-executing a map task — which installs a fresh generation — never
/// frees run objects a stale reader is still using; replaced generations
/// are retired: their objects stay alive and their files on disk until
/// job end, when the driver's cleanup guard removes everything.
struct MapOutputRegistry {
  Mutex mu;
  /// Signaled whenever a generation settles (regeneration finished,
  /// successful or not): reduce attempts wait for a settled registry
  /// before planning, and recoveries wait out a racing regeneration.
  CondVar cv{&mu};
  std::vector<std::shared_ptr<std::vector<SpillRun>>> runs
      NGRAM_GUARDED_BY(mu);
  /// Bumped per re-execution.
  std::vector<uint32_t> generation NGRAM_GUARDED_BY(mu);
  /// Completed executions of the task.
  std::vector<uint32_t> executions NGRAM_GUARDED_BY(mu);
  /// A recovery is in flight.
  std::vector<uint8_t> regenerating NGRAM_GUARDED_BY(mu);
  std::vector<std::shared_ptr<std::vector<SpillRun>>> retired
      NGRAM_GUARDED_BY(mu);

  void Resize(uint32_t num_tasks) NGRAM_EXCLUDES(mu) {
    MutexLock lock(&mu);
    runs.resize(num_tasks);
    generation.assign(num_tasks, 0);
    executions.assign(num_tasks, 0);
    regenerating.assign(num_tasks, 0);
  }
};

/// \brief One eagerly pre-merged intermediate: partition `partition` of
/// every run of map tasks [first_task, last_task], merged in (task, run)
/// order into a single-segment run file.
///
/// Usable by a reduce attempt only while every covered task still carries
/// the generation recorded here — `generations[t - first_task]` is what
/// task t's generation was when the merge read its runs.
struct EarlyMergeOutput {
  uint32_t partition = 0;
  uint32_t first_task = 0;
  uint32_t last_task = 0;
  std::vector<uint32_t> generations;
  /// Synthetic run: only segments[partition] is non-empty.
  SpillRun run;
  /// Set when a covered task's generation was retired (producer
  /// re-execution): no new attempt may substitute this output. The file
  /// stays on disk until the service is destroyed — a stale attempt that
  /// planned over it may still be reading.
  bool invalidated = false;
};

/// \brief Background eager-merge workers for one job (see file comment).
///
/// Driver protocol:
///   1. Construct with the job's registry and counters; workers start
///      immediately (none when `shuffle_slots` == 0 or merge_factor == 0).
///   2. NotifyMapTaskCommitted(t) after each successful map-task commit.
///   3. Finish() at the map barrier: stops scheduling new eager merges,
///      drains in-flight ones, joins the workers. After Finish() the
///      output set only shrinks (invalidation).
///   4. OutputsFor(partition, generations) per reduce attempt;
///      InvalidateTask(t) after a producer re-execution.
/// The destructor runs Finish() if the driver did not, then unlinks every
/// eager output file — the work_dir-clean guarantee. It must run before
/// the driver's run-file cleanup (declare the service after the cleanup
/// guard) so no worker can be reading a run file while it is unlinked.
class EarlyShuffleService {
 public:
  struct Options {
    uint32_t shuffle_slots = 0;
    uint32_t num_map_tasks = 0;
    uint32_t num_partitions = 1;
    /// 0 (unbounded final fan-in) disables the service.
    uint32_t merge_factor = 16;
    const RawComparator* comparator = BytewiseComparator::Instance();
    std::string work_dir;
    size_t spill_buffer_bytes = SpillWriter::kDefaultBufferBytes;
    IoEnv* env = nullptr;
  };

  EarlyShuffleService(const Options& options, MapOutputRegistry* registry,
                      Counters* counters);
  ~EarlyShuffleService();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(EarlyShuffleService);

  /// True when workers were actually started.
  bool enabled() const { return enabled_; }

  /// Map task `task` committed its (generation-0) runs; wakes workers.
  void NotifyMapTaskCommitted(uint32_t task) NGRAM_EXCLUDES(mu_);

  /// The map barrier: stop scheduling, drain in-flight merges, join the
  /// workers. Idempotent.
  void Finish() NGRAM_EXCLUDES(mu_);

  /// Task `task`'s generation was retired by a producer re-execution:
  /// invalidates every output built over it (files stay on disk until
  /// destruction — see EarlyMergeOutput::invalidated).
  void InvalidateTask(uint32_t task) NGRAM_EXCLUDES(mu_);

  /// A reduce attempt failed with `message` (an error-context string that
  /// names the offending file). If it names an eager output, invalidates
  /// that output — the intermediate went bad on disk after its merge — so
  /// re-planning falls back to the committed runs instead of re-reading
  /// the doomed file. Returns true when an output matched. Invalidation
  /// only ever shrinks the output set, so recovery retries triggered by
  /// this are bounded by the number of outputs.
  bool InvalidateOutputNamedIn(const std::string& message)
      NGRAM_EXCLUDES(mu_);

  /// The outputs a reduce attempt with generation snapshot `generations`
  /// may substitute for partition `partition`: valid (not invalidated,
  /// all covered generations matching), ordered by first_task,
  /// non-overlapping. Call after Finish().
  std::vector<std::shared_ptr<const EarlyMergeOutput>> OutputsFor(
      uint32_t partition, const std::vector<uint32_t>& generations) const
      NGRAM_EXCLUDES(mu_);

  /// Eager merge passes completed successfully (tests/benchmarks).
  uint64_t completed_merges() const NGRAM_EXCLUDES(mu_);

 private:
  /// Per-(partition, task) scheduling state. kPending: task not committed
  /// yet. kReady: committed, not covered by any window. kMerging: a
  /// worker owns a window spanning it. kCovered: merged into an output.
  /// kFailed: its window's eager merge failed — never retried eagerly,
  /// the reduce phase uses the committed runs.
  enum class TaskState : uint8_t {
    kPending,
    kReady,
    kMerging,
    kCovered,
    kFailed,
  };

  struct Window {
    uint32_t partition = 0;
    uint32_t first_task = 0;
    uint32_t last_task = 0;
    std::string out_path;
  };

  struct PartitionState {
    std::vector<TaskState> state;
    /// fd-costing sources task t contributes to this partition (file-
    /// backed runs with records in it); 0 for memory-only/empty tasks.
    std::vector<uint32_t> fd_sources;
    std::vector<std::shared_ptr<EarlyMergeOutput>> outputs;
  };

  void WorkerLoop() NGRAM_EXCLUDES(mu_);
  /// Picks and claims the next eager-merge window, or returns false.
  bool FindWindow(Window* window) NGRAM_REQUIRES(mu_);
  /// Runs one claimed window's merge and records the result.
  void MergeWindow(const Window& window, TaskCounters* tc)
      NGRAM_EXCLUDES(mu_);

  const Options options_;
  const size_t factor_;  // Normalized merge factor (>= 2).
  MapOutputRegistry* const registry_;
  Counters* const counters_;
  bool enabled_ = false;  // Written only in the constructor.

  mutable Mutex mu_;
  CondVar work_cv_{&mu_};
  bool stopping_ NGRAM_GUARDED_BY(mu_) = false;
  /// Output file name sequence.
  uint64_t seq_ NGRAM_GUARDED_BY(mu_) = 0;
  uint64_t completed_merges_ NGRAM_GUARDED_BY(mu_) = 0;
  /// Round-robin scan start.
  uint32_t next_partition_ NGRAM_GUARDED_BY(mu_) = 0;
  std::vector<PartitionState> parts_ NGRAM_GUARDED_BY(mu_);
  /// Every output path ever claimed, unlinked at destruction (failed
  /// merges already unlinked theirs — a second unlink is a no-op).
  std::vector<std::string> output_files_ NGRAM_GUARDED_BY(mu_);

  /// Started in the constructor, joined by Finish(); only the
  /// constructor, Finish(), and the destructor (via Finish()) touch it.
  std::vector<std::thread> workers_;
};

}  // namespace ngram::mr
