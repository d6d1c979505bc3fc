// Early shuffle (JobConfig::shuffle_slots): eager pre-barrier merging
// must be byte-invisible — identical job output and data counters with
// overlap on or off, for every merge factor and slot count — and the
// reduce-side merge planner must size its first intermediate pass
// remainder-first over the smallest consecutive window (Hadoop-style, so
// later passes are full and cheap bytes are re-spilled first).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mapreduce/job.h"
#include "mapreduce/merge.h"
#include "mapreduce/runfile.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

/// Emits `fan_out` records per row with keys shared across rows and tasks
/// (key space of 23) and values unique per (row, j): any reordering of
/// equal keys anywhere in the merge shows up in the output bytes.
class FanOutMapper final
    : public Mapper<uint64_t, std::string, std::string, std::string> {
 public:
  explicit FanOutMapper(uint32_t fan_out) : fan_out_(fan_out) {}

  Status Map(const uint64_t& id, const std::string& row,
             Context* ctx) override {
    for (uint32_t j = 0; j < fan_out_; ++j) {
      NGRAM_RETURN_NOT_OK(
          ctx->Emit("key" + std::to_string((id * 31 + j) % 23),
                    row + ":" + std::to_string(j)));
    }
    return Status::OK();
  }

 private:
  const uint32_t fan_out_;
};

/// FanOutMapper whose Cleanup dawdles: map-task commits spread out over
/// wall time, giving the eager merge workers room to drain ready windows
/// before the barrier (the "map is the bottleneck" regime the early
/// shuffle targets).
class SlowCommitFanOutMapper final
    : public Mapper<uint64_t, std::string, std::string, std::string> {
 public:
  Status Map(const uint64_t& id, const std::string& row,
             Context* ctx) override {
    return inner_.Map(id, row, ctx);
  }

  Status Cleanup(Context*) override {
    // Commits spread over >= 40 ms of wall time (16 tasks on 2 slots)
    // while each eager window merges a few KiB — ample room for the
    // workers to complete passes before Finish() stops them.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Status::OK();
  }

 private:
  FanOutMapper inner_{6};
};

/// Re-emits every record verbatim: the job output is the exact merged
/// record stream.
class IdentityReducer final : public RawReducer<std::string, std::string> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    while (group->NextValue()) {
      NGRAM_RETURN_NOT_OK(ctx->EmitRaw(group->key(), group->value()));
    }
    return Status::OK();
  }
};

class FailingReducer final : public RawReducer<std::string, std::string> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    return Status::InvalidArgument("reducer refuses to reduce");
  }
};

MemoryTable<uint64_t, std::string> StressInput(uint64_t rows) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < rows; ++i) {
    input.Add(i, "row-" + std::to_string(i) + "-payloadpayloadpayload");
  }
  return input;
}

std::string TableBytes(const RecordTable& table) {
  std::string bytes;
  auto reader = table.NewReader();
  while (reader->Next()) {
    AppendRecord(&bytes, reader->key(), reader->value());
  }
  EXPECT_TRUE(reader->status().ok());
  return bytes;
}

Result<JobMetrics> RunStressJob(const JobConfig& config, uint64_t rows,
                                uint32_t fan_out, RecordTable* output) {
  return RunJob<FanOutMapper, IdentityReducer>(
      config, StressInput(rows),
      [fan_out] { return std::make_unique<FanOutMapper>(fan_out); },
      [] { return std::make_unique<IdentityReducer>(); }, output);
}

/// Counters that describe the *data* a job moved — independent of how the
/// merge passes were scheduled, so they must match exactly with the early
/// shuffle on or off. (Merge accounting and kBarrierWaitMs are
/// scheduling/timing-dependent by design once shuffle_slots > 0.)
const char* const kDataCounters[] = {
    kMapInputRecords,  kMapInputBytes,     kMapOutputRecords,
    kMapOutputBytes,   kReduceInputGroups, kReduceInputRecords,
    kReduceOutputRecords, kSpillFiles,     kSpilledRecords,
    kReduceInputRecordsMax,
};

TEST(EarlyShuffleTest, ByteIdenticalAcrossSlotCountsAndMergeFactors) {
  // Reference: overlap off, unbounded fan-in — the simplest plan. Every
  // (merge_factor, shuffle_slots) combination must reproduce its output
  // and data counters exactly; merge_factor 0 additionally proves the
  // knob is inert when the service is gated off.
  JobConfig reference_config;
  reference_config.sort_buffer_bytes = 1024;
  reference_config.num_map_tasks = 12;
  reference_config.map_slots = 3;
  reference_config.num_reducers = 3;
  reference_config.merge_factor = 0;
  RecordTable reference_output;
  auto reference = RunStressJob(reference_config, 240, 4, &reference_output);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_bytes = TableBytes(reference_output);
  ASSERT_GT(reference->Counter(kSpillFiles), 0u);

  for (uint32_t merge_factor : {2u, 16u, 0u}) {
    for (uint32_t shuffle_slots : {0u, 1u, 2u, 4u}) {
      JobConfig config = reference_config;
      config.merge_factor = merge_factor;
      config.shuffle_slots = shuffle_slots;
      RecordTable output;
      auto metrics = RunStressJob(config, 240, 4, &output);
      const std::string label =
          "merge_factor=" + std::to_string(merge_factor) +
          " shuffle_slots=" + std::to_string(shuffle_slots);
      ASSERT_TRUE(metrics.ok()) << label << ": "
                                << metrics.status().ToString();
      EXPECT_EQ(TableBytes(output), reference_bytes) << label;
      for (const char* counter : kDataCounters) {
        EXPECT_EQ(metrics->Counter(counter), reference->Counter(counter))
            << label << " counter=" << counter;
      }
    }
  }
}

TEST(EarlyShuffleTest, EagerPassesRunBeforeBarrierAndSplitTheTotals) {
  // Slow commits + fast eager merges: the workers should complete at
  // least one window before the barrier. EARLY_* is a breakout of the
  // job-level totals, alongside the map/reduce ones.
  JobConfig config;
  config.sort_buffer_bytes = 1024;
  config.num_map_tasks = 16;
  config.map_slots = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  config.shuffle_slots = 2;
  RecordTable output;
  auto metrics = RunJob<SlowCommitFanOutMapper, IdentityReducer>(
      config, StressInput(320),
      [] { return std::make_unique<SlowCommitFanOutMapper>(); },
      [] { return std::make_unique<IdentityReducer>(); }, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kEarlyMergePasses), 1u);
  EXPECT_GE(metrics->Counter(kEarlyMergeBytes), 1u);
  EXPECT_EQ(metrics->Counter(kMapMergePasses) +
                metrics->Counter(kReduceMergePasses) +
                metrics->Counter(kEarlyMergePasses),
            metrics->Counter(kMergePasses));
  EXPECT_EQ(metrics->Counter(kMapIntermediateMergeBytes) +
                metrics->Counter(kReduceIntermediateMergeBytes) +
                metrics->Counter(kEarlyMergeBytes),
            metrics->Counter(kIntermediateMergeBytes));

  // The pipeline view carries the early-shuffle fields and reports them.
  RunMetrics run_metrics;
  run_metrics.Add(*metrics);
  const PipelineMetrics pipeline = run_metrics.pipeline();
  ASSERT_EQ(pipeline.num_rounds(), 1);
  EXPECT_EQ(pipeline.rounds[0].early_merge_passes,
            metrics->Counter(kEarlyMergePasses));
  EXPECT_EQ(pipeline.rounds[0].early_merge_bytes,
            metrics->Counter(kEarlyMergeBytes));
  EXPECT_NE(pipeline.ToString().find("early-merged"), std::string::npos)
      << pipeline.ToString();

  // And the output still matches the overlap-off run.
  JobConfig plain = config;
  plain.shuffle_slots = 0;
  RecordTable plain_output;
  auto plain_metrics = RunJob<SlowCommitFanOutMapper, IdentityReducer>(
      plain, StressInput(320),
      [] { return std::make_unique<SlowCommitFanOutMapper>(); },
      [] { return std::make_unique<IdentityReducer>(); }, &plain_output);
  ASSERT_TRUE(plain_metrics.ok()) << plain_metrics.status().ToString();
  EXPECT_EQ(TableBytes(output), TableBytes(plain_output));
}

TEST(EarlyShuffleTest, WorkDirCleanAfterOverlapJobs) {
  // Successful overlap job: eager intermediates are service-owned scratch
  // and must be gone with the rest of the run files.
  {
    auto dir = TempDir::Create("early-clean");
    ASSERT_TRUE(dir.ok());
    JobConfig config;
    config.work_dir = dir->path().string();
    config.sort_buffer_bytes = 1024;
    config.num_map_tasks = 12;
    config.map_slots = 2;
    config.num_reducers = 2;
    config.merge_factor = 4;
    config.shuffle_slots = 2;
    RecordTable output;
    auto metrics = RunStressJob(config, 240, 6, &output);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_TRUE(std::filesystem::is_empty(dir->path()));
  }
  // Failed overlap job (reducer error, no retries): the eager outputs the
  // workers did complete must still be unlinked on the way out.
  {
    auto dir = TempDir::Create("early-clean-fail");
    ASSERT_TRUE(dir.ok());
    JobConfig config;
    config.work_dir = dir->path().string();
    config.sort_buffer_bytes = 1024;
    config.num_map_tasks = 12;
    config.map_slots = 2;
    config.num_reducers = 2;
    config.merge_factor = 4;
    config.shuffle_slots = 2;
    RecordTable output;
    auto metrics = RunJob<FanOutMapper, FailingReducer>(
        config, StressInput(240),
        [] { return std::make_unique<FanOutMapper>(6); },
        [] { return std::make_unique<FailingReducer>(); }, &output);
    ASSERT_FALSE(metrics.ok());
    EXPECT_TRUE(metrics.status().IsInvalidArgument())
        << metrics.status().ToString();
    EXPECT_TRUE(std::filesystem::is_empty(dir->path()));
  }
}

// ------------------------------------------------ merge-plan unit tests

/// Writes one single-partition block-format run of `records` to `path`.
SpillRun WriteRun(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& records) {
  RunWriter writer(path, RunWriterOptions{});
  EXPECT_TRUE(writer.Open().ok());
  for (const auto& [k, v] : records) {
    EXPECT_TRUE(writer.Append(k, v).ok());
  }
  EXPECT_TRUE(writer.FinishSegment().ok());
  EXPECT_TRUE(writer.Close().ok());
  SpillRun run;
  run.file_path = path;
  run.segments = {{0, writer.bytes_written(),
                   static_cast<uint64_t>(records.size())}};
  return run;
}

/// Drains `result`'s final-pass sources through the reducer-feeding
/// merger into raw frames (the exact record stream a reducer would see).
std::string DrainPlan(ReduceMergeResult* result) {
  KWayMerger merger(std::move(result->sources),
                    BytewiseComparator::Instance());
  std::string bytes;
  while (merger.Next()) {
    AppendRecord(&bytes, merger.key(), merger.value());
  }
  EXPECT_TRUE(merger.status().ok());
  return bytes;
}

struct PlanFixture {
  std::vector<SpillRun> runs;
  std::vector<const SpillRun*> pointers;
  Counters counters;
  TaskCounters tc{&counters};

  ExternalMergeOptions Options(const std::string& work_dir,
                               uint32_t merge_factor) {
    ExternalMergeOptions options;
    options.merge_factor = merge_factor;
    options.work_dir = work_dir;
    options.name_prefix = "plan-test";
    options.counters = &tc;
    return options;
  }

  void Finish() { tc.Flush(); }
};

/// `num_runs` runs with overlapping keys and (run, index)-tagged values;
/// runs in `tiny` get a single short record, the rest `bulk_records`
/// long ones.
void BuildRuns(PlanFixture* fix, const std::string& dir, size_t num_runs,
               const std::vector<size_t>& tiny, size_t bulk_records) {
  for (size_t r = 0; r < num_runs; ++r) {
    std::vector<std::pair<std::string, std::string>> records;
    const bool is_tiny =
        std::find(tiny.begin(), tiny.end(), r) != tiny.end();
    const size_t n = is_tiny ? 1 : bulk_records;
    for (size_t i = 0; i < n; ++i) {
      records.emplace_back(
          "key" + std::to_string((r * 7 + i) % 11),
          "run" + std::to_string(r) + ":" + std::to_string(i) +
              (is_tiny ? "" : std::string(40, 'x')));
    }
    std::sort(records.begin(), records.end());
    fix->runs.push_back(
        WriteRun(dir + "/run-" + std::to_string(r) + ".run", records));
  }
  for (const SpillRun& run : fix->runs) {
    fix->pointers.push_back(&run);
  }
}

TEST(ReduceMergePlanTest, FirstPassMergesTheSmallestRemainderWindow) {
  // 18 fd sources at factor 16: one pass of (18 - 16 - 1) % 15 + 2 = 3
  // consecutive sources brings the count to 16. Among the sixteen
  // candidate windows of size 3, the one covering the three tiny runs
  // (indices 7..9) has by far the fewest at-rest bytes — the plan must
  // pick it, so the intermediate output is tiny too.
  auto dir = TempDir::Create("plan-smallest");
  ASSERT_TRUE(dir.ok());
  PlanFixture fix;
  BuildRuns(&fix, dir->path().string(), 18, {7, 8, 9}, 60);

  ReduceMergeResult result;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 16),
                                 fix.pointers, 0, &result)
                  .ok());
  EXPECT_EQ(result.sources.size(), 16u);
  ASSERT_EQ(result.intermediate_files.size(), 1u);
  const std::string merged = DrainPlan(&result);
  RemoveFiles(result.intermediate_files);
  fix.Finish();
  EXPECT_EQ(fix.counters.Get(kReduceMergePasses), 1u);
  // A window containing even one bulk run would re-spill > 2 KiB; the
  // tiny window re-spills three short records.
  const uint64_t bytes = fix.counters.Get(kReduceIntermediateMergeBytes);
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 500u);

  // And the bounded plan's record stream is byte-identical to the
  // unbounded single-pass merge of the same sources.
  ReduceMergeResult unbounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 0),
                                 fix.pointers, 0, &unbounded)
                  .ok());
  EXPECT_TRUE(unbounded.intermediate_files.empty());
  EXPECT_EQ(DrainPlan(&unbounded), merged);
}

TEST(ReduceMergePlanTest, RemainderFirstSizingKeepsLaterPassesFull) {
  // 20 equal fd sources at factor 16: remainder-first means ONE pass of
  // (20 - 16 - 1) % 15 + 2 = 5 sources (a naive full-width sweep would
  // merge 16 of the 20 — re-spilling three times the bytes). All runs are
  // the same size, so the byte charge bounds the window the plan chose.
  auto dir = TempDir::Create("plan-remainder");
  ASSERT_TRUE(dir.ok());
  PlanFixture fix;
  BuildRuns(&fix, dir->path().string(), 20, {}, 40);
  const uint64_t run_bytes = fix.runs[0].segments[0].length;

  ReduceMergeResult result;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 16),
                                 fix.pointers, 0, &result)
                  .ok());
  EXPECT_EQ(result.sources.size(), 16u);
  EXPECT_EQ(result.intermediate_files.size(), 1u);
  const std::string merged = DrainPlan(&result);
  RemoveFiles(result.intermediate_files);
  fix.Finish();
  EXPECT_EQ(fix.counters.Get(kReduceMergePasses), 1u);
  const uint64_t bytes = fix.counters.Get(kReduceIntermediateMergeBytes);
  // ~5 runs' worth re-encoded (front-coding makes the output a bit
  // smaller or larger than the inputs; bound it well clear of 16 runs).
  EXPECT_GT(bytes, 2 * run_bytes);
  EXPECT_LT(bytes, 8 * run_bytes);

  ReduceMergeResult unbounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 0),
                                 fix.pointers, 0, &unbounded)
                  .ok());
  EXPECT_EQ(DrainPlan(&unbounded), merged);
}

TEST(ReduceMergePlanTest, MultiPassPlansStayByteIdentical) {
  // Deep recursion: 20 sources at factor 2 forces a long chain of
  // two-way intermediate passes; the final stream must still match the
  // unbounded merge exactly (tie-break preserved through every level).
  auto dir = TempDir::Create("plan-deep");
  ASSERT_TRUE(dir.ok());
  PlanFixture fix;
  BuildRuns(&fix, dir->path().string(), 20, {3, 11}, 15);

  ReduceMergeResult bounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 2),
                                 fix.pointers, 0, &bounded)
                  .ok());
  EXPECT_LE(bounded.sources.size(), 2u);
  const std::string merged = DrainPlan(&bounded);
  RemoveFiles(bounded.intermediate_files);
  fix.Finish();
  EXPECT_EQ(fix.counters.Get(kReduceMergePasses), 18u);  // 20 -> 2, -1 each.

  ReduceMergeResult unbounded;
  ASSERT_TRUE(PrepareReduceMerge(fix.Options(dir->path().string(), 0),
                                 fix.pointers, 0, &unbounded)
                  .ok());
  EXPECT_EQ(DrainPlan(&unbounded), merged);
}

}  // namespace
}  // namespace ngram::mr
