#include "mapreduce/shuffle_service.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace ngram::mr {

MapOutputRegistry::MapOutputRegistry(uint32_t num_tasks) {
  MutexLock lock(&mu_);
  runs_.resize(num_tasks);
  generation_.assign(num_tasks, 0);
  executions_.assign(num_tasks, 0);
  regenerating_.assign(num_tasks, 0);
}

int MapOutputRegistry::Snapshot::TaskOf(const std::string& path) const {
  if (path.empty()) {
    return -1;  // In-memory runs have empty paths too.
  }
  for (size_t t = 0; t < runs.size(); ++t) {
    for (const SpillRun& run : *runs[t]) {
      if (run.file_path == path) {
        return static_cast<int>(t);
      }
    }
  }
  return -1;
}

MapOutputRegistry::Runs MapOutputRegistry::Keep(std::vector<SpillRun> runs) {
  kept_.push_back(
      std::make_shared<const std::vector<SpillRun>>(std::move(runs)));
  return kept_.back();
}

void MapOutputRegistry::Commit(uint32_t task, std::vector<SpillRun> runs) {
  MutexLock lock(&mu_);
  runs_[task] = Keep(std::move(runs));
  executions_[task] = 1;
}

MapOutputRegistry::Snapshot MapOutputRegistry::SettledSnapshot() {
  MutexLock lock(&mu_);
  while (num_regenerating_ != 0) {
    settled_cv_.Wait();
  }
  return Snapshot{runs_, generation_};
}

MapOutputRegistry::Recovery MapOutputRegistry::BeginRecovery(
    uint32_t task, uint32_t seen_generation, uint32_t max_attempts,
    uint32_t* attempt_base) {
  MutexLock lock(&mu_);
  while (regenerating_[task] != 0) {
    settled_cv_.Wait();
  }
  if (generation_[task] != seen_generation) {
    return Recovery::kAlreadyReplaced;
  }
  if (executions_[task] >= max_attempts) {
    return Recovery::kBudgetExhausted;
  }
  regenerating_[task] = 1;
  ++num_regenerating_;
  *attempt_base = executions_[task] * max_attempts;
  return Recovery::kRun;
}

void MapOutputRegistry::EndRecovery(uint32_t task, bool replaced,
                                    std::vector<SpillRun> runs) {
  {
    MutexLock lock(&mu_);
    regenerating_[task] = 0;
    --num_regenerating_;
    ++executions_[task];
    if (replaced) {
      // The corrupt generation stays kept: stale reduce attempts may
      // still hold pointers into it.
      runs_[task] = Keep(std::move(runs));
      ++generation_[task];
    }
  }
  settled_cv_.SignalAll();
}

void MapOutputRegistry::RemoveFiles(IoEnv* env) {
  MutexLock lock(&mu_);
  for (const Runs& runs : kept_) {
    RemoveRunFiles(*runs, env);
  }
}

EarlyShuffleService::EarlyShuffleService(const Options& options,
                                         MapOutputRegistry* registry,
                                         Counters* counters)
    : options_(options),
      factor_(std::max<uint32_t>(2, options.merge_factor)),
      registry_(registry),
      counters_(counters) {
  if (options_.shuffle_slots == 0 || options_.merge_factor == 0 ||
      options_.num_map_tasks == 0 || options_.num_partitions == 0) {
    return;
  }
  enabled_ = true;
  {
    // Workers start below; initialize the guarded state under the lock so
    // the analysis (and the memory model) see a clean handoff.
    MutexLock lock(&mu_);
    parts_.resize(options_.num_partitions);
    for (PartitionState& part : parts_) {
      part.state.assign(options_.num_map_tasks, TaskState::kPending);
      part.fd_sources.assign(options_.num_map_tasks, 0);
    }
  }
  workers_.reserve(options_.shuffle_slots);
  for (uint32_t i = 0; i < options_.shuffle_slots; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

EarlyShuffleService::~EarlyShuffleService() {
  Finish();
  std::vector<std::string> doomed;
  {
    MutexLock lock(&mu_);
    doomed.swap(output_files_);
  }
  RemoveFiles(doomed, options_.env);
}

void EarlyShuffleService::NotifyMapTaskCommitted(uint32_t task) {
  if (!enabled_) {
    return;
  }
  // Snapshot the committed task's per-partition fd footprint once, so
  // window scanning never has to touch the registry.
  std::vector<uint32_t> fds(options_.num_partitions, 0);
  const MapOutputRegistry::Snapshot snapshot = registry_->SettledSnapshot();
  for (const SpillRun& run : *snapshot.runs[task]) {
    if (run.in_memory()) {
      continue;
    }
    for (uint32_t p = 0; p < options_.num_partitions; ++p) {
      if (run.segments[p].num_records > 0) {
        ++fds[p];
      }
    }
  }
  {
    MutexLock lock(&mu_);
    for (uint32_t p = 0; p < options_.num_partitions; ++p) {
      parts_[p].fd_sources[task] = fds[p];
      parts_[p].state[task] = TaskState::kReady;
    }
  }
  work_cv_.SignalAll();
}

void EarlyShuffleService::Finish() {
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

bool EarlyShuffleService::InvalidateOutput(const std::string& path) {
  if (!enabled_) {
    return false;
  }
  MutexLock lock(&mu_);
  for (PartitionState& part : parts_) {
    for (const std::shared_ptr<EarlyMergeOutput>& out : part.outputs) {
      if (!out->invalidated && out->run.file_path == path) {
        out->invalidated = true;
        return true;  // Output paths are unique.
      }
    }
  }
  return false;
}

std::vector<std::shared_ptr<const EarlyMergeOutput>>
EarlyShuffleService::OutputsFor(
    uint32_t partition, const std::vector<uint32_t>& generations) const {
  std::vector<std::shared_ptr<const EarlyMergeOutput>> result;
  if (!enabled_) {
    return result;
  }
  MutexLock lock(&mu_);
  for (const std::shared_ptr<EarlyMergeOutput>& out :
       parts_[partition].outputs) {
    if (out->invalidated) {
      continue;
    }
    bool valid = true;
    for (uint32_t t = out->first_task; t <= out->last_task; ++t) {
      if (generations[t] != out->generations[t - out->first_task]) {
        valid = false;
        break;
      }
    }
    if (valid) {
      result.push_back(out);
    }
  }
  // Windows never overlap within a partition, so first_task orders them.
  std::sort(result.begin(), result.end(),
            [](const std::shared_ptr<const EarlyMergeOutput>& a,
               const std::shared_ptr<const EarlyMergeOutput>& b) {
              return a->first_task < b->first_task;
            });
  return result;
}

void EarlyShuffleService::WorkerLoop() {
  TaskCounters tc(counters_);  // Flushed by the destructor at exit.
  mu_.Lock();
  while (true) {
    Window window;
    if (!stopping_ && FindWindow(&window)) {
      mu_.Unlock();
      MergeWindow(window, &tc);
      mu_.Lock();
      // A finished window can wedge a neighboring sub-full window into
      // eligibility, so wake the others.
      work_cv_.SignalAll();
      continue;
    }
    if (stopping_) {
      mu_.Unlock();
      return;
    }
    work_cv_.Wait();
  }
}

bool EarlyShuffleService::FindWindow(Window* window) {
  const uint32_t num_tasks = options_.num_map_tasks;
  for (uint32_t i = 0; i < parts_.size(); ++i) {
    const uint32_t p =
        (next_partition_ + i) % static_cast<uint32_t>(parts_.size());
    PartitionState& part = parts_[p];
    uint32_t t = 0;
    while (t < num_tasks) {
      // A window starts at a ready task that contributes at least one fd.
      if (part.state[t] != TaskState::kReady || part.fd_sources[t] == 0) {
        ++t;
        continue;
      }
      // Extend right over ready tasks until the window is full, the next
      // ready task would overflow it, or a non-ready task blocks it.
      size_t fds = 0;
      uint32_t end = t;
      uint32_t u = t;
      bool overflow = false;
      while (u < num_tasks && part.state[u] == TaskState::kReady) {
        if (fds + part.fd_sources[u] > factor_) {
          overflow = true;
          break;
        }
        fds += part.fd_sources[u];
        if (part.fd_sources[u] > 0) {
          end = u;  // Trailing memory-only tasks stay out of the window.
        }
        ++u;
        if (fds == factor_) {
          break;
        }
      }
      // Full windows always merge. A sub-full window merges only when it
      // can never grow: the next ready task would overflow it, or both
      // neighbors are settled (array edge / covered / merging / failed —
      // a kPending neighbor may still commit and extend the window, so
      // the scan waits for it instead of fragmenting the plan).
      bool eligible = fds == factor_ || (fds >= 2 && overflow);
      if (!eligible && fds >= 2) {
        const bool right_settled =
            u >= num_tasks || part.state[u] != TaskState::kPending;
        const bool left_settled =
            t == 0 || part.state[t - 1] != TaskState::kPending;
        eligible = right_settled && left_settled;
      }
      if (!eligible) {
        t = u > t ? u : t + 1;  // Skip the scanned ready segment.
        continue;
      }
      for (uint32_t v = t; v <= end; ++v) {
        part.state[v] = TaskState::kMerging;
      }
      window->partition = p;
      window->first_task = t;
      window->last_task = end;
      char name[64];
      snprintf(name, sizeof(name), "/early-%u-%06llu.run", p,
               static_cast<unsigned long long>(seq_++));
      window->out_path = options_.work_dir + name;
      // Registered before anything is written: no failure path leaks it.
      output_files_.push_back(window->out_path);
      next_partition_ = (p + 1) % static_cast<uint32_t>(parts_.size());
      return true;
    }
  }
  return false;
}

void EarlyShuffleService::MergeWindow(const Window& window,
                                      TaskCounters* tc) {
  // Snapshot the window's run generations; the shared_ptrs keep every
  // run object alive for the duration of the merge even if the task were
  // retired mid-flight (it cannot be during the map phase, but the
  // snapshot discipline matches the reduce side's).
  const MapOutputRegistry::Snapshot snapshot = registry_->SettledSnapshot();
  auto output = std::make_shared<EarlyMergeOutput>();
  output->partition = window.partition;
  output->first_task = window.first_task;
  output->last_task = window.last_task;
  std::vector<const SpillRun*> run_ptrs;
  for (uint32_t t = window.first_task; t <= window.last_task; ++t) {
    output->generations.push_back(snapshot.generations[t]);
    for (const SpillRun& run : *snapshot.runs[t]) {
      run_ptrs.push_back(&run);
    }
  }

  ExternalMergeOptions merge_options;
  merge_options.comparator = options_.comparator;
  merge_options.merge_factor = static_cast<uint32_t>(factor_);
  merge_options.work_dir = options_.work_dir;
  merge_options.early = true;
  merge_options.counters = tc;
  merge_options.env = options_.env;
  Status st =
      MergePartitionToRun(merge_options, run_ptrs, window.partition,
                          options_.num_partitions, window.out_path,
                          &output->run);

  MutexLock lock(&mu_);
  PartitionState& part = parts_[window.partition];
  const TaskState verdict =
      st.ok() ? TaskState::kCovered : TaskState::kFailed;
  for (uint32_t t = window.first_task; t <= window.last_task; ++t) {
    part.state[t] = verdict;
  }
  if (st.ok()) {
    part.outputs.push_back(std::move(output));
  } else {
    // Best-effort: the window is never retried eagerly; the reduce phase
    // merges the committed runs itself (and surfaces real corruption
    // through its own read, where the recovery protocol handles it).
    NGRAM_LOG_WARN << "early shuffle: eager merge of map tasks ["
                   << window.first_task << ", " << window.last_task
                   << "] partition " << window.partition
                   << " failed: " << st.ToString()
                   << "; falling back to the committed runs";
  }
}

}  // namespace ngram::mr
