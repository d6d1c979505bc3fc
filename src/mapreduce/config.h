// Job configuration: the runtime knobs a Hadoop job would set via its
// Configuration / Job object (reducer count, slots, sort buffer size,
// custom partitioner and comparator classes).
//
// Every knob is documented with its pipeline context in
// docs/architecture.md ("JobConfig knobs").
#pragma once

#include <cstdint>
#include <string>

#include "mapreduce/comparator.h"
#include "mapreduce/io_env.h"
#include "mapreduce/partitioner.h"

namespace ngram::net {
class Transport;
}  // namespace ngram::net

namespace ngram::mr {

struct JobConfig {
  /// Job name, used in logs and metrics.
  std::string name = "job";

  /// Number of reduce tasks (R). Partitioners map keys into [0, R).
  uint32_t num_reducers = 4;

  /// Concurrency limits: how many map / reduce tasks may run at once.
  /// These model the paper's "map/reduce slots" (Section VII-A, VII-H).
  uint32_t map_slots = 4;
  uint32_t reduce_slots = 4;

  /// Number of map tasks (input splits). 0 derives 2 tasks per map slot.
  uint32_t num_map_tasks = 0;

  /// Map-side sort buffer budget; exceeding it spills a sorted run to disk.
  size_t sort_buffer_bytes = 64ULL << 20;

  /// Maximum merge fan-in (Hadoop's `io.sort.factor`). Bounds how many
  /// runs are opened simultaneously anywhere in the pipeline:
  ///   - a map task that finishes with more than `merge_factor` runs
  ///     merges them (bounded-fan-in, re-running the combiner) into one
  ///     partition-segmented run file before the reduce phase;
  ///   - a reduce task merges its sources in consecutive groups of at
  ///     most `merge_factor`, streaming intermediate single-partition
  ///     runs to disk until one final pass of <= `merge_factor` sources
  ///     feeds the reducer.
  /// Group boundaries always cover consecutive source indices, so the
  /// source-order tie-break — and therefore byte-identical deterministic
  /// output — survives multi-pass merging. 0 disables the bound
  /// (unbounded fan-in: every run is opened at once, the pre-bounded
  /// behavior; spill-heavy jobs can exhaust fds). Values < 2 that are
  /// not 0 are treated as 2 (a 1-way "merge" would never converge).
  uint32_t merge_factor = 16;

  /// Early-shuffle worker threads (0 disables, the default). While map
  /// tasks are still running, up to `shuffle_slots` background workers
  /// eagerly run reduce-side intermediate merge passes over the runs of
  /// already-committed map tasks — consecutive in map-task-id order, at
  /// most `merge_factor` file-backed sources per pass — so that when the
  /// map barrier falls each reduce task finds most of its multi-pass
  /// merging already done and its final pass opens pre-merged
  /// intermediates instead of O(maps x spills) runs. Eager merging is
  /// best-effort: a failed eager pass just falls back to the committed
  /// runs, and a producer re-execution invalidates every eager
  /// intermediate built over the retired generation. Output stays
  /// byte-identical with the knob on or off (see docs/architecture.md
  /// section 4c for the determinism argument); merge-accounting counters
  /// become scheduling-dependent. Ignored when merge_factor == 0 —
  /// unbounded fan-in has no intermediate passes to pull forward.
  uint32_t shuffle_slots = 0;

  /// Total order for the shuffle sort (Hadoop: setSortComparatorClass).
  const RawComparator* sort_comparator = BytewiseComparator::Instance();

  /// Grouping comparator for reduce-side grouping (null: use sort
  /// comparator; Hadoop: setGroupingComparatorClass).
  const RawComparator* grouping_comparator = nullptr;

  /// Key->reducer assignment (Hadoop: setPartitionerClass).
  const Partitioner* partitioner = HashPartitioner::Instance();

  /// Directory for spill files. Empty: a private temp dir per job.
  std::string work_dir;

  /// Fixed per-job overhead in milliseconds added to the measured
  /// wallclock, modelling Hadoop's job launch/teardown cost ("administrative
  /// fix cost", Section III). Zero disables. This is what makes multi-job
  /// methods pay per-iteration overhead at simulator scale, as they do on a
  /// real cluster.
  double job_overhead_ms = 0.0;

  /// Task fault tolerance, modelling Hadoop's re-execution of failed task
  /// attempts. A task (map or reduce) is retried with fresh state until it
  /// succeeds or `max_task_attempts` is exhausted; counters from failed
  /// attempts are discarded, so results and metrics are exactly those of a
  /// failure-free run. The same bound caps how many times one map task may
  /// be *re-executed* after a reducer finds its persisted run corrupt
  /// (fetch-failure recovery) — with the default of 1, corruption
  /// discovered downstream is unrecoverable and fails the job.
  uint32_t max_task_attempts = 1;

  /// I/O environment every run file and intermediate merge output of
  /// this job goes through. nullptr (production) means IoEnv::Default(),
  /// the stdio passthrough; tests pass a FaultEnv to inject
  /// read/write/sync/rename faults (io_env.h). Not owned.
  IoEnv* io_env = nullptr;

  /// Fetch shuffle (docs/architecture.md section 10). Off (default):
  /// reduce tasks read the map tasks' own runs — the single-process fast
  /// path. On: every committed map task's output is *published* to a
  /// MapOutputServer and *fetched* back over a byte stream into local
  /// clone run files, which the job's one MapOutputRegistry holds and the
  /// reduce side plans over — the Hadoop/YTsaurus placement model, where
  /// every shuffled byte crosses a transport. A task's origin runs are
  /// unlinked as soon as its clones commit. Clones are byte-identical
  /// to their sources with identical segment extents, so job output and
  /// data counters are byte-identical on or off for every merge factor
  /// and slot count; spill/fetch accounting counters differ (final
  /// flushes are forced to disk so they can be served). A fetch that
  /// fails persistently fails its *map* attempt; a clone found corrupt at
  /// reduce time triggers producer re-execution (max_task_attempts
  /// bounds both), consuming no reduce attempt.
  bool fetch_shuffle = false;

  /// Non-empty: dial an external `ngram_tool serve-shuffle` server at
  /// this Unix-socket path instead of starting a loopback server (which
  /// runs over in-process pipes) — the two-process mode. Run files are
  /// shared through the filesystem (same host), bytes move over the
  /// socket.
  std::string shuffle_server_address;

  /// Test seam: run the fetch shuffle over this transport instead of
  /// constructing one (chaos tests pass a FaultTransport over an
  /// InProcTransport). Not owned. Ignored when fetch_shuffle is off.
  net::Transport* shuffle_transport_override = nullptr;

  const RawComparator* EffectiveGrouping() const {
    return grouping_comparator != nullptr ? grouping_comparator
                                          : sort_comparator;
  }
};

}  // namespace ngram::mr
