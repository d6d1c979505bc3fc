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
// producer re-execution as before. A re-execution bumps the producing
// task's generation, and reduce attempts only substitute outputs whose
// recorded generations match their snapshot; a stale output's file stays
// until the service is destroyed, because a stale reduce attempt may
// still be reading it.
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
#include "util/macros.h"
#include "util/mutex.h"

namespace ngram::mr {

/// \brief Committed map output, one entry per map task, and the generation
/// protocol recovery and early shuffle share. One per job; private lock.
///
/// Each task's runs are a shared_ptr *generation*: readers hold the ones
/// they plan over, so re-executing a task never frees run objects a stale
/// reader still uses. Every generation installed is kept, files too,
/// until RemoveFiles() at job end. In fetch mode an entry holds the clones
/// the reduce side reads (the map task unlinks its origins itself).
class MapOutputRegistry {
 public:
  using Runs = std::shared_ptr<const std::vector<SpillRun>>;

  /// Every task's generation at one instant, indexed by map task id.
  struct Snapshot {
    std::vector<Runs> runs;
    std::vector<uint32_t> generations;

    /// The task owning run file `path` (exact match), else -1.
    int TaskOf(const std::string& path) const;
  };

  enum class Recovery : uint8_t {
    kAlreadyReplaced,  // Replaced since the caller's snapshot: re-plan.
    kBudgetExhausted,  // No executions left: the corruption is fatal.
    kRun,              // Re-execute the task, then call EndRecovery().
  };

  explicit MapOutputRegistry(uint32_t num_tasks);
  NGRAM_DISALLOW_COPY_AND_ASSIGN(MapOutputRegistry);

  /// Records task `task`'s first execution: `runs` is what the reduce
  /// side reads. A failed execution commits an empty vector.
  void Commit(uint32_t task, std::vector<SpillRun> runs)
      NGRAM_EXCLUDES(mu_);

  /// The current generations, once no regeneration is in flight (a plan
  /// made mid-regeneration could mix in files about to be retired).
  Snapshot SettledSnapshot() NGRAM_EXCLUDES(mu_);

  /// Starts re-executing task `task`, found corrupt in generation
  /// `seen_generation`, after waiting out one already in flight. A task
  /// gets `max_attempts` executions; on kRun `*attempt_base` (executions x
  /// max_attempts) is the first attempt id, so its run names are new.
  Recovery BeginRecovery(uint32_t task, uint32_t seen_generation,
                         uint32_t max_attempts, uint32_t* attempt_base)
      NGRAM_EXCLUDES(mu_);

  /// Ends a kRun re-execution. With `replaced`, `runs` (as for Commit)
  /// become the next generation; a failed re-execution has no output.
  /// Either way it counts against the budget and waiters wake.
  void EndRecovery(uint32_t task, bool replaced, std::vector<SpillRun> runs)
      NGRAM_EXCLUDES(mu_);

  /// Unlinks every run file the registry ever held. Job end only: no
  /// server, eager worker or task may still read them.
  void RemoveFiles(IoEnv* env) NGRAM_EXCLUDES(mu_);

 private:
  /// Keeps `runs` until RemoveFiles() and returns them.
  Runs Keep(std::vector<SpillRun> runs) NGRAM_REQUIRES(mu_);

  Mutex mu_;
  /// Signaled whenever a regeneration ends, successful or not.
  CondVar settled_cv_{&mu_};
  std::vector<Runs> runs_ NGRAM_GUARDED_BY(mu_);
  std::vector<uint32_t> generation_ NGRAM_GUARDED_BY(mu_);
  std::vector<uint32_t> executions_ NGRAM_GUARDED_BY(mu_);
  std::vector<uint8_t> regenerating_ NGRAM_GUARDED_BY(mu_);
  uint32_t num_regenerating_ NGRAM_GUARDED_BY(mu_) = 0;
  /// Every generation installed.
  std::vector<Runs> kept_ NGRAM_GUARDED_BY(mu_);
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
  /// Set when a reduce attempt found this output's file corrupt: no new
  /// attempt may substitute it. The file stays on disk until the service
  /// is destroyed — a stale attempt that planned over it may still be
  /// reading.
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
///      InvalidateOutput(path) when a reduce attempt found that eager
///      output corrupt.
/// The destructor runs Finish() if the driver did not, then unlinks every
/// eager output file — the work_dir-clean guarantee. It must run before
/// MapOutputRegistry::RemoveFiles() so no worker can be reading a run
/// file while it is unlinked.
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
    IoEnv* env = nullptr;
  };

  EarlyShuffleService(const Options& options, MapOutputRegistry* registry,
                      Counters* counters);
  ~EarlyShuffleService();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(EarlyShuffleService);

  /// Map task `task` committed its (generation-0) runs; wakes workers.
  void NotifyMapTaskCommitted(uint32_t task) NGRAM_EXCLUDES(mu_);

  /// The map barrier: stop scheduling, drain in-flight merges, join the
  /// workers. Idempotent.
  void Finish() NGRAM_EXCLUDES(mu_);

  /// A reduce attempt failed reading file `path` (Status::path()). If it
  /// is a live eager output — it went bad on disk after its merge —
  /// invalidates it, so re-planning falls back to the committed runs, and
  /// returns true. Invalidation only shrinks the output set, so retries
  /// triggered by this are bounded by the number of outputs.
  bool InvalidateOutput(const std::string& path) NGRAM_EXCLUDES(mu_);

  /// The outputs a reduce attempt with generation snapshot `generations`
  /// may substitute for partition `partition`: valid (not invalidated,
  /// all covered generations matching), ordered by first_task,
  /// non-overlapping. Call after Finish().
  std::vector<std::shared_ptr<const EarlyMergeOutput>> OutputsFor(
      uint32_t partition, const std::vector<uint32_t>& generations) const
      NGRAM_EXCLUDES(mu_);

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
