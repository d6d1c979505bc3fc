// The job driver behind every RunJob<M, R> (job.h), compiled once. Typed
// code reaches it only as the two task bodies, called once per attempt.
#include "mapreduce/job.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/shuffle_service.h"
#include "net/inproc_transport.h"
#include "net/map_output_server.h"
#include "net/shuffle_fetcher.h"
#include "net/socket_transport.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/stopwatch.h"
#include "util/temp_dir.h"
#include "util/thread_pool.h"

namespace ngram::mr {
namespace {

/// num_map_tasks (0: two per map slot), capped at one per row, at least 1.
uint32_t DeriveNumMapTasks(const JobConfig& config, uint64_t input_rows) {
  const uint64_t n = config.num_map_tasks != 0 ? config.num_map_tasks
                                               : config.map_slots * 2;
  return static_cast<uint32_t>(std::max<uint64_t>(1, std::min(n, input_rows)));
}

/// One running job. The destructor tears it down in the one safe order.
class JobDriver {
 public:
  JobDriver(const JobConfig& config, const RecordTable& input,
            const internal::MapTaskFn& map_task,
            const internal::ReduceTaskFn& reduce_task,
            const RawCombineFn& combiner)
      : config_(config),
        input_(input),
        map_task_(map_task),
        reduce_task_(reduce_task),
        combiner_(combiner),
        io_env_(ResolveEnv(config.io_env)),
        num_map_tasks_(DeriveNumMapTasks(config, input.num_records())),
        num_reducers_(config.num_reducers == 0 ? 1 : config.num_reducers),
        max_attempts_(std::max(1u, config.max_task_attempts)),
        outputs_(num_map_tasks_) {}
  NGRAM_DISALLOW_COPY_AND_ASSIGN(JobDriver);

  // Run files are job-private, so any left at the end (success or error)
  // go. Order matters: eager workers join and unlink their outputs, and
  // the loopback server stops reading, before any run file is unlinked;
  // a private temp dir goes last.
  ~JobDriver() {
    shuffle_.reset();
    fetcher_.reset();
    fetch_server_.reset();
    owned_transport_.reset();
    outputs_.RemoveFiles(io_env_);
  }

  /// Runs the job into `*output`; fills `*metrics` but for its wallclock.
  Status Run(RecordTable* output, JobMetrics* metrics) {
    work_dir_ = config_.work_dir;
    if (work_dir_.empty()) {
      NGRAM_ASSIGN_OR_RETURN(TempDir dir, TempDir::Create("ngram-mr"));
      work_dir_ = auto_dir_.emplace(std::move(dir)).path().string();
    }

    // Byte-balanced splits: with variable-size records (posting lists,
    // chained reducer output) equal row counts can be very unequal work.
    Stopwatch map_clock;
    splits_ = input_.SplitByBytes(num_map_tasks_);
    if (config_.fetch_shuffle) {
      NGRAM_RETURN_NOT_OK(StartFetchShuffle());
    }
    if (config_.shuffle_slots > 0 && config_.merge_factor != 0) {
      EarlyShuffleService::Options options;
      options.shuffle_slots = config_.shuffle_slots;
      options.num_map_tasks = num_map_tasks_;
      options.num_partitions = num_reducers_;
      options.merge_factor = config_.merge_factor;
      options.comparator = config_.sort_comparator;
      options.work_dir = work_dir_;
      options.env = io_env_;
      shuffle_ = std::make_unique<EarlyShuffleService>(options, &outputs_,
                                                       &counters_);
    }
    Status st = RunTasks(
        num_map_tasks_, config_.map_slots, "map task", [this](uint32_t t) {
          std::vector<SpillRun> runs;
          Status s = RunMapTask(t, /*attempt_base=*/0, &counters_, &runs);
          outputs_.Commit(t, std::move(runs));
          if (s.ok() && shuffle_ != nullptr) {
            shuffle_->NotifyMapTaskCommitted(t);
          }
          return s;
        });
    if (shuffle_ != nullptr) {
      shuffle_->Finish();  // The barrier: settles the eager outputs.
    }
    NGRAM_RETURN_NOT_OK(st);
    metrics->map_phase_ms = map_clock.ElapsedMillis();

    Stopwatch reduce_clock;
    std::vector<RecordTable> reducer_outputs(num_reducers_);
    NGRAM_RETURN_NOT_OK(RunTasks(
        num_reducers_, config_.reduce_slots, "reduce task",
        [&](uint32_t r) { return RunReduceTask(r, &reducer_outputs[r]); }));
    metrics->reduce_phase_ms = reduce_clock.ElapsedMillis();

    // Whole reducer partitions move in reducer order: no per-row copy.
    output->Clear();
    for (RecordTable& part : reducer_outputs) {
      output->AppendTable(std::move(part));
    }
    metrics->counters = counters_.Snapshot();
    return Status::OK();
  }

 private:
  /// Runs `task(i)` for every i < n on `slots` threads; returns the
  /// lowest-numbered failure, naming the task.
  Status RunTasks(uint32_t n, uint32_t slots, const char* what,
                  const std::function<Status(uint32_t)>& task) {
    std::vector<Status> status(n);
    {
      ThreadPool pool(slots);
      for (uint32_t i = 0; i < n; ++i) {
        pool.Submit([&status, &task, i] { status[i] = task(i); });
      }
      pool.Wait();
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (!status[i].ok()) {
        return status[i].WithContext(config_.name + " " + what + " " +
                                     std::to_string(i));
      }
    }
    return Status::OK();
  }

  /// Fetch shuffle (docs/architecture.md section 10).
  Status StartFetchShuffle() {
    std::string server_address = config_.shuffle_server_address;
    const bool external_server = !server_address.empty();
    net::Transport* transport = config_.shuffle_transport_override;
    if (transport == nullptr) {
      // An external server (`ngram_tool serve-shuffle`) is a Unix socket;
      // a loopback one runs over in-process pipes.
      if (external_server) {
        owned_transport_ = std::make_unique<net::SocketTransport>();
      } else {
        owned_transport_ = std::make_unique<net::InProcTransport>();
      }
      transport = owned_transport_.get();
    }
    if (!external_server) {  // Loopback: the job serves its own runs.
      server_address = "loopback";
      net::MapOutputServer::Options server_options;
      server_options.transport = transport;
      server_options.address = server_address;
      server_options.env = io_env_;
      fetch_server_ = std::make_unique<net::MapOutputServer>(server_options);
      Status st = fetch_server_->Start();
      if (!st.ok()) {
        return st.WithContext(config_.name +
                              " starting loopback shuffle server");
      }
    }
    net::ShuffleFetcher::Options fetcher_options;
    fetcher_options.transport = transport;
    fetcher_options.server_address = server_address;
    fetcher_options.work_dir = work_dir_;
    fetcher_options.env = io_env_;
    fetcher_ = std::make_unique<net::ShuffleFetcher>(fetcher_options);
    return Status::OK();
  }

  ExternalMergeOptions MergeOptions(std::string name_prefix,
                                    TaskCounters* tc) const {
    ExternalMergeOptions options;
    options.comparator = config_.sort_comparator;
    options.merge_factor = config_.merge_factor;
    options.work_dir = work_dir_;
    options.name_prefix = std::move(name_prefix);
    options.counters = tc;
    options.env = io_env_;
    return options;
  }

  /// Runs one execution of map task `t`, retries included, with attempt
  /// ids from `attempt_base` on (a re-execution's are new), counting into
  /// `sink`. On success `*runs` is what the reduce side reads; on failure
  /// it is empty and every attempt's files are gone.
  Status RunMapTask(uint32_t t, uint32_t attempt_base, Counters* sink,
                    std::vector<SpillRun>* runs) {
    // Fetch mode only serves what the task writes; its clones go to runs.
    std::vector<SpillRun> origins;
    std::vector<SpillRun>* const written =
        fetcher_ != nullptr ? &origins : runs;
    Status st;
    for (uint32_t attempt = 0; attempt < max_attempts_; ++attempt) {
      const uint32_t attempt_id = attempt_base + attempt;
      // Each attempt starts from scratch, under run names of its own.
      runs->clear();
      origins.clear();
      TaskCounters tc(sink);
      const std::string name_prefix =
          "map-" + std::to_string(t) + "-a" + std::to_string(attempt_id);
      SortBuffer::Options opts;
      opts.num_partitions = num_reducers_;
      opts.budget_bytes = config_.sort_buffer_bytes;
      opts.comparator = config_.sort_comparator;
      opts.combiner = combiner_;
      opts.work_dir = work_dir_;
      opts.spill_name_prefix = name_prefix;
      // Served runs must be file-backed (the record stream is the same).
      opts.persist_final_flush = fetcher_ != nullptr;
      opts.env = io_env_;
      SortBuffer buffer(opts, &tc);
      std::unique_ptr<RecordReader> reader = input_.NewReader(splits_[t]);
      st = map_task_(reader.get(), &buffer, &tc, t);
      // The whole view is read (a failed attempt's counters are dropped).
      tc.Increment(kMapInputBytes, splits_[t].bytes);
      if (st.ok()) {
        st = buffer.Finish(written);
      }
      // Map-side final merge (Hadoop's per-task spill merge): a task with
      // more runs than the merge bound leaves one, combined across runs.
      if (st.ok() && config_.merge_factor != 0 &&
          written->size() > config_.merge_factor) {
        ExternalMergeOptions merge_options = MergeOptions(name_prefix, &tc);
        merge_options.map_side = true;
        merge_options.combiner = combiner_;
        st = MergeMapRuns(merge_options, num_reducers_, written);
      }
      // A fetch failure fails the *map* attempt (Hadoop's blame). Mirror
      // cleans its clones; the execution count is the published generation.
      if (st.ok() && fetcher_ != nullptr) {
        st = fetcher_->Mirror(t, attempt_base / max_attempts_, attempt_id,
                              origins, runs, &tc);
        if (st.ok()) {
          // Nothing reads an origin once its clones are committed: a
          // re-execution writes and publishes fresh ones.
          RemoveRunFiles(origins, io_env_);
        }
      }
      if (st.ok()) {
        break;
      }
      tc.DiscardPending();
      RemoveRunFiles(*written, io_env_);
      written->clear();
      if (attempt + 1 < max_attempts_) {
        counters_.Increment(kTaskRetries);
        NGRAM_LOG_WARN << config_.name << " map task " << t << " attempt "
                       << attempt_id << " failed: " << st.ToString()
                       << "; retrying";
      }
    }
    return st;
  }

  /// Fetch-failure recovery (Hadoop's protocol for a reducer that cannot
  /// read a map output): re-executes map task `t`, found corrupt in
  /// generation `seen_generation`. True when its runs were replaced, here
  /// or by another reducer, so the caller re-plans; false when fatal.
  bool RecoverProducer(uint32_t t, uint32_t seen_generation) {
    uint32_t attempt_base = 0;
    const MapOutputRegistry::Recovery decision = outputs_.BeginRecovery(
        t, seen_generation, max_attempts_, &attempt_base);
    if (decision != MapOutputRegistry::Recovery::kRun) {
      return decision == MapOutputRegistry::Recovery::kAlreadyReplaced;
    }
    Counters scratch;  // The first execution already counted this data.
    std::vector<SpillRun> runs;
    const Status st = RunMapTask(t, attempt_base, &scratch, &runs);
    const bool replaced = st.ok();
    if (replaced) {
      counters_.Increment(kMapReexecutions);
      counters_.Increment(kCorruptRunsRecovered);
    } else {
      NGRAM_LOG_WARN << config_.name << " map task " << t
                     << " re-execution failed: " << st.ToString();
    }
    // A replacement bumps the generation, so no later plan substitutes an
    // eager intermediate built over the retired one (OutputsFor checks).
    outputs_.EndRecovery(t, replaced, std::move(runs));
    return replaced;
  }

  /// Runs reduce task `r`'s attempts into `*output` until one succeeds
  /// or its budget is spent.
  Status RunReduceTask(uint32_t r, RecordTable* output) {
    Status st;
    uint32_t failures = 0;     // Failed attempts (recoveries excluded).
    uint32_t recoveries = 0;   // Producer re-plans this task triggered.
    uint32_t attempt_seq = 0;  // Unique attempt id, re-plans included.
    while (true) {
      // The snapshot keeps the runs planned over alive even if their
      // producer is re-executed under this attempt.
      const MapOutputRegistry::Snapshot snapshot =
          outputs_.SettledSnapshot();
      // Sources in map-task-id order (the determinism contract); a valid
      // eager intermediate stands in for its task range at the range's
      // position, which keeps the source-order tie-break.
      std::vector<std::shared_ptr<const EarlyMergeOutput>> eager;
      if (shuffle_ != nullptr) {
        eager = shuffle_->OutputsFor(r, snapshot.generations);
      }
      std::vector<const SpillRun*> attempt_runs;
      size_t next_eager = 0;
      for (uint32_t t = 0; t < num_map_tasks_; ++t) {
        if (next_eager < eager.size() && eager[next_eager]->first_task == t) {
          attempt_runs.push_back(&eager[next_eager]->run);
          t = eager[next_eager]->last_task;
          ++next_eager;
          continue;
        }
        for (const SpillRun& run : *snapshot.runs[t]) {
          attempt_runs.push_back(&run);
        }
      }

      output->Clear();
      TaskCounters tc(&counters_);
      ReduceMergeResult merge_inputs;
      Stopwatch barrier_clock;
      st = PrepareReduceMerge(
          MergeOptions("reduce-" + std::to_string(r) + "-a" +
                           std::to_string(attempt_seq),
                       &tc),
          attempt_runs, r, &merge_inputs);
      // Post-barrier merge latency: what shuffle_slots exists to shrink.
      tc.Increment(kBarrierWaitMs,
                   static_cast<uint64_t>(barrier_clock.ElapsedMillis()));
      if (st.ok()) {
        KWayMerger merger(std::move(merge_inputs.sources),
                          config_.sort_comparator);
        st = reduce_task_(&merger, output, &tc, r);
      }
      // Intermediate merge outputs are attempt-private scratch.
      RemoveFiles(merge_inputs.intermediate_files, io_env_);
      ++attempt_seq;
      if (st.ok()) {
        return st;
      }
      tc.DiscardPending();
      output->Clear();
      // Corruption is blamed on the file it was read from, by exact path.
      // A recovery is the producer's failure and costs this task no
      // attempt, but is bounded on its own (the producer's execution
      // budget, max_attempts recoveries per reduce task).
      if (st.IsCorruption() && recoveries < max_attempts_) {
        // An eager intermediate that went bad on disk after its merge:
        // drop it and re-plan from the committed runs. Bounded without an
        // attempt budget — invalidation only shrinks the output set.
        if (shuffle_ != nullptr && shuffle_->InvalidateOutput(st.path())) {
          NGRAM_LOG_WARN << config_.name << " reduce task " << r
                         << ": dropped corrupt eager intermediate ("
                         << st.ToString()
                         << "); re-planning from the committed runs";
          continue;
        }
        // No owner means attempt-private scratch, which a retry rewrites.
        const int victim = snapshot.TaskOf(st.path());
        if (victim >= 0 && RecoverProducer(static_cast<uint32_t>(victim),
                                           snapshot.generations[victim])) {
          ++recoveries;
          NGRAM_LOG_WARN << config_.name << " reduce task " << r
                         << ": replaced corrupt run of map task " << victim
                         << " (" << st.ToString() << "); re-planning";
          continue;
        }
      }
      if (++failures >= max_attempts_) {
        return st;
      }
      counters_.Increment(kTaskRetries);
      NGRAM_LOG_WARN << config_.name << " reduce task " << r << " attempt "
                     << attempt_seq - 1 << " failed: " << st.ToString()
                     << "; retrying";
    }
  }

  const JobConfig& config_;
  const RecordTable& input_;
  const internal::MapTaskFn& map_task_;
  const internal::ReduceTaskFn& reduce_task_;
  const RawCombineFn& combiner_;
  IoEnv* const io_env_;
  const uint32_t num_map_tasks_;
  const uint32_t num_reducers_;
  const uint32_t max_attempts_;

  Counters counters_;
  std::optional<TempDir> auto_dir_;  // When config.work_dir is empty.
  std::string work_dir_;
  std::vector<RecordTable::View> splits_;
  MapOutputRegistry outputs_;
  std::unique_ptr<net::Transport> owned_transport_;
  std::unique_ptr<net::MapOutputServer> fetch_server_;
  std::unique_ptr<net::ShuffleFetcher> fetcher_;
  std::unique_ptr<EarlyShuffleService> shuffle_;
};

}  // namespace

Result<JobMetrics> internal::RunJobDriver(const JobConfig& config,
                                          const RecordTable& input,
                                          const MapTaskFn& map_task,
                                          const ReduceTaskFn& reduce_task,
                                          RecordTable* output,
                                          const RawCombineFn& combiner) {
  Stopwatch job_clock;
  JobMetrics metrics;
  metrics.job_name = config.name;
  JobDriver job(config, input, map_task, reduce_task, combiner);
  NGRAM_RETURN_NOT_OK(job.Run(output, &metrics));
  // Taken before the driver's teardown, which is not part of the job.
  metrics.wallclock_ms = job_clock.ElapsedMillis() + config.job_overhead_ms;
  NGRAM_LOG_INFO << "job '" << config.name << "' done in "
                 << metrics.wallclock_ms << " ms: "
                 << metrics.Counter(kMapOutputRecords) << " map records, "
                 << metrics.Counter(kMapOutputBytes) << " map bytes, "
                 << output->num_records() << " output rows";
  return metrics;
}

}  // namespace ngram::mr
