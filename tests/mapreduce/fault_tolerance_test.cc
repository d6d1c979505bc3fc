// Task-retry tests: the runtime re-executes failed task attempts with
// fresh state (Hadoop's core fault-tolerance feature, which the paper
// names as a main reason to target MapReduce at all). Results and counters
// must be byte-identical to a failure-free run.
//
// Faults are raised by the user code itself (flaky Setup/Cleanup keyed on
// the context's task id) — the I/O-level fault path has its own coverage
// in chaos_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>

#include "mapreduce/job.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

class WordMapper final
    : public Mapper<uint64_t, std::string, std::string, uint64_t> {
 public:
  Status Map(const uint64_t& id, const std::string& word,
             Context* ctx) override {
    return ctx->Emit(word, 1);
  }
};

class SumReducer final
    : public Reducer<std::string, uint64_t, std::string, uint64_t> {
 public:
  Status Reduce(const std::string& key, Values* values,
                Context* ctx) override {
    uint64_t total = 0, v = 0;
    while (values->Next(&v)) {
      total += v;
    }
    return ctx->Emit(key, total);
  }
};

/// Shared failure schedule: how many times each task id has asked to fail
/// so far. FailNow(id, n) is true for the first n queries of that id —
/// i.e. the task's first n attempts fail, later ones succeed.
struct FailSchedule {
  std::mutex mu;
  std::map<uint32_t, int> asked;
  std::atomic<int> failures{0};

  bool FailNow(uint32_t id, int first_n) {
    std::lock_guard<std::mutex> lock(mu);
    if (asked[id]++ < first_n) {
      failures.fetch_add(1);
      return true;
    }
    return false;
  }
};

/// WordMapper whose Setup fails the task's first `fail_first` attempts
/// (`always_fail_task` fails every attempt of that one task instead).
class FlakyWordMapper final
    : public Mapper<uint64_t, std::string, std::string, uint64_t> {
 public:
  FlakyWordMapper(FailSchedule* schedule, int fail_first,
                  int always_fail_task = -1)
      : schedule_(schedule),
        fail_first_(fail_first),
        always_fail_task_(always_fail_task) {}

  Status Setup(Context* ctx) override {
    if (static_cast<int>(ctx->task_id()) == always_fail_task_) {
      return Status::Internal("injected map task failure");
    }
    if (schedule_ != nullptr && schedule_->FailNow(ctx->task_id(),
                                                   fail_first_)) {
      return Status::Internal("injected map task failure");
    }
    return Status::OK();
  }

  Status Map(const uint64_t& id, const std::string& word,
             Context* ctx) override {
    return ctx->Emit(word, 1);
  }

 private:
  FailSchedule* schedule_;
  int fail_first_;
  int always_fail_task_;
};

/// SumReducer whose Cleanup fails the task's first `fail_first` attempts
/// — after the reduce work ran, the strongest point to lose an attempt.
class FlakySumReducer final
    : public Reducer<std::string, uint64_t, std::string, uint64_t> {
 public:
  FlakySumReducer(FailSchedule* schedule, int fail_first)
      : schedule_(schedule), fail_first_(fail_first) {}

  Status Reduce(const std::string& key, Values* values,
                Context* ctx) override {
    uint64_t total = 0, v = 0;
    while (values->Next(&v)) {
      total += v;
    }
    return ctx->Emit(key, total);
  }

  Status Cleanup(Context* ctx) override {
    if (schedule_ != nullptr &&
        schedule_->FailNow(ctx->reducer_id(), fail_first_)) {
      return Status::Internal("injected reduce task failure");
    }
    return Status::OK();
  }

 private:
  FailSchedule* schedule_;
  int fail_first_;
};

MemoryTable<uint64_t, std::string> Input() {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 40; ++i) {
    input.Add(i, "word" + std::to_string(i % 7));
  }
  return input;
}

Result<JobMetrics> RunCountJob(const JobConfig& config,
                       std::map<std::string, uint64_t>* counts) {
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<WordMapper, SumReducer>(
      config, Input(), [] { return std::make_unique<WordMapper>(); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  counts->clear();
  for (const auto& [k, v] : output.rows) {
    (*counts)[k] = v;
  }
  return metrics;
}

/// The flaky variant: every map task fails its first `map_fails`
/// attempts, every reduce task its first `reduce_fails`.
Result<JobMetrics> RunFlakyCountJob(const JobConfig& config,
                                    std::map<std::string, uint64_t>* counts,
                                    int map_fails, int reduce_fails,
                                    int always_fail_map_task = -1) {
  auto map_schedule = std::make_shared<FailSchedule>();
  auto reduce_schedule = std::make_shared<FailSchedule>();
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<FlakyWordMapper, FlakySumReducer>(
      config, Input(),
      [=] {
        return std::make_unique<FlakyWordMapper>(
            map_schedule.get(), map_fails, always_fail_map_task);
      },
      [=] {
        return std::make_unique<FlakySumReducer>(reduce_schedule.get(),
                                                 reduce_fails);
      },
      &output);
  counts->clear();
  for (const auto& [k, v] : output.rows) {
    (*counts)[k] = v;
  }
  return metrics;
}

TEST(FaultToleranceTest, FirstAttemptFailuresAreRetriedTransparently) {
  JobConfig baseline_config;
  baseline_config.num_map_tasks = 4;
  std::map<std::string, uint64_t> baseline;
  auto baseline_metrics = RunCountJob(baseline_config, &baseline);
  ASSERT_TRUE(baseline_metrics.ok());

  JobConfig config = baseline_config;
  config.max_task_attempts = 3;
  std::map<std::string, uint64_t> counts;
  // Every map and reduce task fails exactly once.
  auto metrics = RunFlakyCountJob(config, &counts, /*map_fails=*/1,
                                  /*reduce_fails=*/1);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(counts, baseline);
  // 4 map tasks + default reducers each retried once.
  EXPECT_GT(metrics->Counter(kTaskRetries), 0u);
  // Counters from failed attempts are discarded: map-side numbers match
  // the clean run exactly.
  EXPECT_EQ(metrics->Counter(kMapOutputRecords),
            baseline_metrics->Counter(kMapOutputRecords));
  EXPECT_EQ(metrics->Counter(kMapInputRecords),
            baseline_metrics->Counter(kMapInputRecords));
  EXPECT_EQ(metrics->Counter(kReduceInputRecords),
            baseline_metrics->Counter(kReduceInputRecords));
}

TEST(FaultToleranceTest, ExhaustedAttemptsFailTheJob) {
  JobConfig config;
  config.max_task_attempts = 2;
  std::map<std::string, uint64_t> counts;
  // Map task 0 fails every attempt.
  auto metrics = RunFlakyCountJob(config, &counts, /*map_fails=*/0,
                                  /*reduce_fails=*/0,
                                  /*always_fail_map_task=*/0);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
}

TEST(FaultToleranceTest, ReduceRetriesRebuildOutput) {
  JobConfig baseline_config;
  std::map<std::string, uint64_t> baseline;
  ASSERT_TRUE(RunCountJob(baseline_config, &baseline).ok());

  JobConfig config = baseline_config;
  config.max_task_attempts = 4;
  std::map<std::string, uint64_t> counts;
  // Each reduce task fails twice before succeeding.
  auto metrics = RunFlakyCountJob(config, &counts, /*map_fails=*/0,
                                  /*reduce_fails=*/2);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(counts, baseline);
  EXPECT_GT(metrics->Counter(kTaskRetries), 0u);
}

TEST(FaultToleranceTest, RealTaskErrorsAreAlsoRetried) {
  // A mapper that fails its first invocation per task (flaky I/O, say).
  class FlakyMapper final
      : public Mapper<uint64_t, std::string, std::string, uint64_t> {
   public:
    explicit FlakyMapper(std::atomic<int>* attempts) : attempts_(attempts) {}
    Status Setup(Context* ctx) override {
      if (attempts_->fetch_add(1) == 0) {
        return Status::IOError("flaky setup");
      }
      return Status::OK();
    }
    Status Map(const uint64_t& id, const std::string& word,
               Context* ctx) override {
      return ctx->Emit(word, 1);
    }

   private:
    std::atomic<int>* attempts_;
  };

  JobConfig config;
  config.num_map_tasks = 1;
  config.max_task_attempts = 2;
  auto attempts = std::make_shared<std::atomic<int>>(0);
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<FlakyMapper, SumReducer>(
      config, Input(),
      [attempts] { return std::make_unique<FlakyMapper>(attempts.get()); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->Counter(kTaskRetries), 1u);
  EXPECT_EQ(output.rows.size(), 7u);
}

size_t FilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(FaultToleranceTest, RetriedSpillingTasksLeaveWorkDirClean) {
  // Every map task fails its first attempt *after* spilling run files
  // into a user-provided work_dir (flaky Cleanup: the spills already
  // happened). Attempt-scoped run names keep retries from colliding with
  // the discarded attempt's files, and discarded runs are unlinked — the
  // job must succeed and leave the directory empty.
  class SpillThenFailMapper final
      : public Mapper<uint64_t, std::string, std::string, uint64_t> {
   public:
    explicit SpillThenFailMapper(FailSchedule* schedule)
        : schedule_(schedule) {}
    Status Map(const uint64_t& id, const std::string& word,
               Context* ctx) override {
      return ctx->Emit(word, 1);
    }
    Status Cleanup(Context* ctx) override {
      if (schedule_->FailNow(ctx->task_id(), 1)) {
        return Status::Internal("injected post-spill failure");
      }
      return Status::OK();
    }

   private:
    FailSchedule* schedule_;
  };

  auto dir = TempDir::Create("retry-clean");
  ASSERT_TRUE(dir.ok());
  JobConfig config;
  config.work_dir = dir->path().string();
  config.sort_buffer_bytes = 128;  // Spill on nearly every record.
  config.num_map_tasks = 4;
  config.max_task_attempts = 3;

  std::map<std::string, uint64_t> baseline;
  JobConfig clean_config = config;
  clean_config.max_task_attempts = 1;
  ASSERT_TRUE(RunCountJob(clean_config, &baseline).ok());

  auto schedule = std::make_shared<FailSchedule>();
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<SpillThenFailMapper, SumReducer>(
      config, Input(),
      [schedule] {
        return std::make_unique<SpillThenFailMapper>(schedule.get());
      },
      [] { return std::make_unique<SumReducer>(); }, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  std::map<std::string, uint64_t> counts;
  for (const auto& [k, v] : output.rows) {
    counts[k] = v;
  }
  EXPECT_EQ(counts, baseline);
  EXPECT_GT(metrics->Counter(kSpillFiles), 0u);
  EXPECT_EQ(FilesIn(config.work_dir), 0u);
}

TEST(FaultToleranceTest, MidMapFailureLeavesWorkDirClean) {
  // The mapper dies after emitting (and spilling) but before the task
  // commits its runs — the SortBuffer still holds them, and discarding
  // the attempt must unlink them.
  class CleanupFailingMapper final
      : public Mapper<uint64_t, std::string, std::string, uint64_t> {
   public:
    explicit CleanupFailingMapper(std::atomic<int>* attempts)
        : attempts_(attempts) {}
    Status Map(const uint64_t& id, const std::string& word,
               Context* ctx) override {
      return ctx->Emit(word, 1);
    }
    Status Cleanup(Context* ctx) override {
      if (attempts_->fetch_add(1) == 0) {
        return Status::IOError("flaky cleanup");
      }
      return Status::OK();
    }

   private:
    std::atomic<int>* attempts_;
  };

  auto dir = TempDir::Create("midmap-clean");
  ASSERT_TRUE(dir.ok());
  JobConfig config;
  config.work_dir = dir->path().string();
  config.sort_buffer_bytes = 128;
  config.num_map_tasks = 1;
  config.max_task_attempts = 2;
  auto attempts = std::make_shared<std::atomic<int>>(0);
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<CleanupFailingMapper, SumReducer>(
      config, Input(),
      [attempts] {
        return std::make_unique<CleanupFailingMapper>(attempts.get());
      },
      [] { return std::make_unique<SumReducer>(); }, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->Counter(kTaskRetries), 1u);
  EXPECT_EQ(FilesIn(config.work_dir), 0u);
}

TEST(FaultToleranceTest, FailedJobLeavesWorkDirClean) {
  // Exhausted attempts fail the whole job; runs of the tasks that did
  // succeed must not be orphaned in a user-provided work_dir either.
  auto dir = TempDir::Create("failed-clean");
  ASSERT_TRUE(dir.ok());
  JobConfig config;
  config.work_dir = dir->path().string();
  config.sort_buffer_bytes = 128;
  config.num_map_tasks = 4;
  config.map_slots = 1;  // Task 0..2 commit their runs before 3 fails.
  config.max_task_attempts = 2;
  std::map<std::string, uint64_t> counts;
  auto metrics = RunFlakyCountJob(config, &counts, /*map_fails=*/0,
                                  /*reduce_fails=*/0,
                                  /*always_fail_map_task=*/3);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(FilesIn(config.work_dir), 0u);
}

TEST(FaultToleranceTest, SkewCounterReportsHeaviestReducer) {
  // All records share one key -> one reducer takes everything.
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 25; ++i) {
    input.Add(i, "same");
  }
  JobConfig config;
  config.num_reducers = 4;
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<WordMapper, SumReducer>(
      config, input, [] { return std::make_unique<WordMapper>(); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->Counter(kReduceInputRecordsMax), 25u);
}

}  // namespace
}  // namespace ngram::mr
