// Bounded-fan-in external merge at scale: many-spill stress, byte-identical
// determinism across merge factors, fd-pressure under a lowered RLIMIT_NOFILE,
// and block-CRC verification of damaged runs on the reduce-side read path.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mapreduce/job.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

/// Emits `fan_out` records per input row with keys shared across rows and
/// tasks (key space of 23) and values unique per (row, j) — so any
/// reordering of equal keys anywhere in the merge shows up in the output
/// bytes.
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

/// Re-emits every record of every group verbatim: the job output is the
/// exact merged record stream, which makes byte comparison sensitive to
/// any ordering or content deviation.
class IdentityReducer final : public RawReducer<std::string, std::string> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    while (group->NextValue()) {
      NGRAM_RETURN_NOT_OK(ctx->EmitRaw(group->key(), group->value()));
    }
    return Status::OK();
  }
};

class CountingMapper final
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

MemoryTable<uint64_t, std::string> StressInput(uint64_t rows) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < rows; ++i) {
    input.Add(i, "row-" + std::to_string(i) + "-payloadpayloadpayload");
  }
  return input;
}

/// Serializes a RecordTable's framed records (the byte-identity probe).
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

TEST(MergeStressTest, ManySpillRunsMergeCorrectly) {
  JobConfig config;
  config.sort_buffer_bytes = 1024;  // ~10 records per run.
  config.num_map_tasks = 4;
  config.num_reducers = 3;
  config.merge_factor = 8;
  RecordTable output;
  auto metrics = RunStressJob(config, 300, 8, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kSpillFiles), 100u);
  EXPECT_GT(metrics->Counter(kMergePasses), 0u);
  EXPECT_GT(metrics->Counter(kIntermediateMergeBytes), 0u);
  EXPECT_EQ(output.num_records(), 300u * 8u);

  // Same job without any spilling at all must produce the same bytes.
  JobConfig roomy = config;
  roomy.sort_buffer_bytes = 64ULL << 20;
  RecordTable roomy_output;
  ASSERT_TRUE(RunStressJob(roomy, 300, 8, &roomy_output).ok());
  EXPECT_EQ(TableBytes(output), TableBytes(roomy_output));
}

TEST(MergeStressTest, ByteIdenticalAcrossMergeFactors) {
  // merge_factor 0 (unbounded) is the pre-bounded-merge baseline; every
  // bounded configuration must reproduce its output byte for byte, both
  // with map-side final merges (few tasks, many runs each) and with
  // reduce-side multi-pass merges (many tasks).
  for (uint32_t num_map_tasks : {3u, 24u}) {
    std::string reference;
    for (uint32_t merge_factor : {0u, 2u, 3u, 16u}) {
      JobConfig config;
      config.sort_buffer_bytes = 1024;
      config.num_map_tasks = num_map_tasks;
      config.num_reducers = 3;
      config.merge_factor = merge_factor;
      RecordTable output;
      auto metrics = RunStressJob(config, 120, 6, &output);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      // This workload's short keys share little prefix and its 1 KiB runs
      // pay block framing per handful of records, so at-rest bytes may
      // exceed the record framing slightly; bound that overhead. The
      // compression *win* on realistic sorted keys is asserted in
      // SortBufferTest.CompressedSpillsShrinkAndCountRunBytes and
      // EquivalenceTest.CompressedRunsShrinkSuffixSigmaSpills.
      EXPECT_GT(metrics->Counter(kRunBytesWritten), 0u);
      EXPECT_LT(metrics->Counter(kRunBytesWritten),
                metrics->Counter(kRunBytesRaw) * 115 / 100);
      const std::string bytes = TableBytes(output);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << "merge_factor=" << merge_factor
            << " num_map_tasks=" << num_map_tasks;
      }
    }
    ASSERT_FALSE(reference.empty());
  }
}

TEST(MergeStressTest, NoSpillJobNeverReSpills) {
  // merge_factor bounds fds and read buffers; in-memory zero-copy runs
  // cost neither. A job whose map tasks all stay within the sort buffer
  // must keep its fully in-memory reduce path even when the task count
  // exceeds merge_factor — no intermediate passes, no disk I/O.
  JobConfig config;
  config.num_map_tasks = 24;
  config.num_reducers = 2;
  config.merge_factor = 4;  // Far below the 24 in-memory sources.
  RecordTable output;
  auto metrics = RunStressJob(config, 120, 6, &output);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->Counter(kSpillFiles), 0u);
  EXPECT_EQ(metrics->Counter(kMergePasses), 0u);
  EXPECT_EQ(metrics->Counter(kIntermediateMergeBytes), 0u);
  EXPECT_EQ(output.num_records(), 120u * 6u);
}

TEST(MergeStressTest, MixedMemoryAndFileSourcesStayByteIdentical) {
  // Some tasks spill (oversized payloads), others finish in memory, so
  // the reduce-side source list interleaves file-backed and in-memory
  // runs. Grouping only the fd-costing sources must still reproduce the
  // unbounded output byte for byte.
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 120; ++i) {
    // Every few rows, a payload larger than the sort buffer: the task
    // that gets it spills; tasks with only small rows stay in memory.
    const bool big = i % 5 == 0;
    input.Add(i, (big ? std::string(3000, 'x') : "small") + ":" +
                     std::to_string(i));
  }
  std::string reference;
  for (uint32_t merge_factor : {0u, 2u, 3u}) {
    JobConfig config;
    config.sort_buffer_bytes = 2048;
    config.num_map_tasks = 30;
    config.num_reducers = 2;
    config.merge_factor = merge_factor;
    RecordTable output;
    auto metrics = RunJob<FanOutMapper, IdentityReducer>(
        config, input, [] { return std::make_unique<FanOutMapper>(3); },
        [] { return std::make_unique<IdentityReducer>(); }, &output);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (merge_factor == 0) {
      // Spills happened; and since only 24 rows are big, at least 6 of
      // the 30 tasks saw none and finished with an in-memory run — the
      // source list is genuinely mixed.
      EXPECT_GT(metrics->Counter(kSpillFiles), 0u);
    }
    const std::string bytes = TableBytes(output);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "merge_factor=" << merge_factor;
    }
  }
}

TEST(MergeStressTest, CombinerRunsAcrossRunsInMapSideFinalMerge) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 400; ++i) {
    input.Add(i, "word" + std::to_string(i % 5));
  }
  JobConfig config;
  config.sort_buffer_bytes = 512;  // Many runs per task.
  config.num_map_tasks = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<CountingMapper, SumReducer>(
      config, input, [] { return std::make_unique<CountingMapper>(); },
      [] { return std::make_unique<SumReducer>(); }, &output, SumCombiner());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  std::map<std::string, uint64_t> counts(output.rows.begin(),
                                         output.rows.end());
  std::map<std::string, uint64_t> expected;
  for (uint64_t i = 0; i < 400; ++i) {
    ++expected["word" + std::to_string(i % 5)];
  }
  EXPECT_EQ(counts, expected);
  EXPECT_GT(metrics->Counter(kMergePasses), 0u);
  // The map-side final merge re-combined across runs: each map task hands
  // the reduce phase at most (distinct keys) records — far fewer than the
  // per-run combined records the spills held.
  EXPECT_LE(metrics->Counter(kReduceInputRecords),
            5u * config.num_map_tasks);
}

TEST(MergeStressTest, CompletesUnderLowFdLimit) {
  // >= 256 spill runs must not translate into >= 256 simultaneously open
  // fds: with the bound, open files per reduce task stay O(merge_factor).
  // CI also runs this under `ulimit -n 64`.
  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  JobConfig config;
  config.sort_buffer_bytes = 1024;
  config.num_map_tasks = 32;
  config.map_slots = 2;
  config.reduce_slots = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  RecordTable output;
  auto metrics = RunStressJob(config, 640, 10, &output);

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kSpillFiles), 256u);
  EXPECT_EQ(output.num_records(), 640u * 10u);

  // And the output still matches the unbounded baseline, run with the
  // saved fd limit restored. When the ambient limit is itself low (CI
  // runs this binary under `ulimit -n 64`), the unbounded run dies on
  // fd exhaustion — the exact blow-up the bound fixes — and the byte
  // identity is already covered by ByteIdenticalAcrossMergeFactors.
  JobConfig unbounded = config;
  unbounded.merge_factor = 0;
  RecordTable baseline;
  auto baseline_metrics = RunStressJob(unbounded, 640, 10, &baseline);
  if (baseline_metrics.ok()) {
    EXPECT_EQ(TableBytes(output), TableBytes(baseline));
  } else {
    EXPECT_TRUE(baseline_metrics.status().IsIOError())
        << baseline_metrics.status().ToString();
  }
}

TEST(MergeStressTest, CompletesUnderLowFdLimitWithEarlyShuffle) {
  // Same fd-pressure scenario with the early shuffle overlapping eager
  // merges with map execution: the service's own merge passes open at
  // most merge_factor sources plus one output per worker, so the fd
  // ceiling holds with the pipeline enabled too — and the output still
  // matches the overlap-off run byte for byte.
  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  JobConfig config;
  config.sort_buffer_bytes = 1024;
  config.num_map_tasks = 32;
  config.map_slots = 2;
  config.reduce_slots = 2;
  config.num_reducers = 2;
  config.merge_factor = 4;
  config.shuffle_slots = 2;
  RecordTable output;
  auto metrics = RunStressJob(config, 640, 10, &output);

  JobConfig plain = config;
  plain.shuffle_slots = 0;
  RecordTable plain_output;
  auto plain_metrics = RunStressJob(plain, 640, 10, &plain_output);

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_TRUE(plain_metrics.ok()) << plain_metrics.status().ToString();
  EXPECT_GE(metrics->Counter(kSpillFiles), 256u);
  EXPECT_EQ(output.num_records(), 640u * 10u);
  EXPECT_EQ(TableBytes(output), TableBytes(plain_output));
}

// --------------------------------------------------- CRC verification --

/// CountingMapper that, during the last map task's Cleanup, flips the
/// last byte of the lexicographically first run file in `work_dir`
/// (map_slots=1 serializes tasks, so task 0's runs are committed by
/// then — the victim is always one of its files).
class FlipOnCleanupMapper final
    : public Mapper<uint64_t, std::string, std::string, uint64_t> {
 public:
  explicit FlipOnCleanupMapper(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  Status Map(const uint64_t& id, const std::string& word,
             Context* ctx) override {
    return ctx->Emit(word, 1);
  }

  Status Cleanup(Context* ctx) override {
    if (ctx->task_id() != 1) {
      return Status::OK();
    }
    std::string victim;
    for (const auto& entry :
         std::filesystem::directory_iterator(work_dir_)) {
      const std::string path = entry.path().string();
      if (victim.empty() || path < victim) {
        victim = path;
      }
    }
    EXPECT_FALSE(victim.empty());
    std::fstream file(victim,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = file.tellg();
    file.seekp(size - std::streamoff(1));
    file.put('\0');  // varint 1 -> varint 0.
    return Status::OK();  // Corrupt silently; the attempt itself succeeds.
  }

 private:
  const std::string work_dir_;
};

/// Runs a spill-heavy word count in `work_dir` with one committed run
/// file silently damaged mid-job (see FlipOnCleanupMapper). The zeroed
/// byte lands in the last block's CRC trailer, which per-block
/// verification catches.
Result<JobMetrics> RunWithBitFlip(const std::string& work_dir,
                                  std::map<std::string, uint64_t>* counts) {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 200; ++i) {
    input.Add(i, "word" + std::to_string(i % 3));
  }
  JobConfig config;
  config.work_dir = work_dir;
  config.sort_buffer_bytes = 512;
  config.num_map_tasks = 2;
  config.map_slots = 1;
  config.num_reducers = 1;
  config.merge_factor = 0;  // Keep original spill files around for the flip.
  MemoryTable<std::string, uint64_t> output;
  auto metrics = RunJob<FlipOnCleanupMapper, SumReducer>(
      config, input,
      [&work_dir] { return std::make_unique<FlipOnCleanupMapper>(work_dir); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  counts->clear();
  for (const auto& [k, v] : output.rows) {
    (*counts)[k] = v;
  }
  return metrics;
}

TEST(MergeStressTest, CompressedRunsCatchBitFlipWithoutChecksumKnob) {
  // Runs carry per-block CRCs verified as blocks are decoded: a byte
  // zeroed in a committed run fails the job with Corruption instead of
  // silently changing a count — integrity is inherent to the one run
  // format, with no knob to turn on and no separate pass.
  auto dir = TempDir::Create("block-crc");
  ASSERT_TRUE(dir.ok());
  std::map<std::string, uint64_t> counts;
  auto metrics = RunWithBitFlip(dir->path().string(), &counts);
  ASSERT_FALSE(metrics.ok());
  EXPECT_TRUE(metrics.status().IsCorruption()) << metrics.status().ToString();
}

TEST(MergeStressTest, PerPhaseMergeCountersSplitTheTotals) {
  // Few tasks spilling many runs each → map-side final merges; many
  // tasks → reduce-side passes. The phase breakouts must sum to the
  // job-level totals in both regimes.
  for (uint32_t num_map_tasks : {2u, 24u}) {
    JobConfig config;
    config.sort_buffer_bytes = 1024;
    config.num_map_tasks = num_map_tasks;
    config.num_reducers = 2;
    config.merge_factor = 4;
    RecordTable output;
    auto metrics = RunStressJob(config, 240, 6, &output);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_GT(metrics->Counter(kMergePasses), 0u);
    EXPECT_EQ(metrics->Counter(kMapMergePasses) +
                  metrics->Counter(kReduceMergePasses),
              metrics->Counter(kMergePasses));
    EXPECT_EQ(metrics->Counter(kMapIntermediateMergeBytes) +
                  metrics->Counter(kReduceIntermediateMergeBytes),
              metrics->Counter(kIntermediateMergeBytes));
    if (num_map_tasks == 2) {
      // 2 tasks x ~40 runs with merge_factor 4: the map side must merge.
      EXPECT_GT(metrics->Counter(kMapMergePasses), 0u);
    } else {
      // 24 file-backed sources into one reduce partition: reduce passes.
      EXPECT_GT(metrics->Counter(kReduceMergePasses), 0u);
    }

    // The per-round pipeline view (what the multi-job runner logs)
    // carries the breakdown and the at-rest byte split.
    RunMetrics run_metrics;
    run_metrics.Add(*metrics);
    const PipelineMetrics pipeline = run_metrics.pipeline();
    ASSERT_EQ(pipeline.num_rounds(), 1);
    const PipelineMetrics::Round& round = pipeline.rounds[0];
    EXPECT_EQ(round.spill_files, metrics->Counter(kSpillFiles));
    EXPECT_EQ(round.map_merge_passes, metrics->Counter(kMapMergePasses));
    EXPECT_EQ(round.reduce_merge_bytes,
              metrics->Counter(kReduceIntermediateMergeBytes));
    EXPECT_EQ(round.run_bytes_raw, metrics->Counter(kRunBytesRaw));
    EXPECT_EQ(round.run_bytes_written, metrics->Counter(kRunBytesWritten));
    const std::string log_line = pipeline.ToString();
    EXPECT_NE(log_line.find("spilled"), std::string::npos) << log_line;
    EXPECT_NE(log_line.find("re-spill map"), std::string::npos) << log_line;
  }
}

}  // namespace
}  // namespace ngram::mr
