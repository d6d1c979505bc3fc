// Seeded chaos harness: deterministic fault injection over a spill-heavy
// two-round pipeline, asserting the crash-consistency dichotomy — every
// chaos run either completes with output and counters byte-identical to
// the fault-free run, or fails with a clean Status and a clean work_dir.
// No third outcome: no silent corruption, no orphaned files, no crash.
//
// Determinism: single-slot sweeps place every I/O operation at the same
// global index run-to-run, so a (seed, config) pair replays exactly; a
// smaller multi-slot section checks the dichotomy itself is
// interleaving-independent.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/dataset.h"
#include "mapreduce/io_env.h"
#include "mapreduce/job.h"
#include "mapreduce/runfile.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/map_output_server.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

// ------------------------------------------------------- pipeline under test

/// Emits `fan_out` records per row with keys shared across rows and tasks
/// (key space of 23): spill-heavy under a tiny sort buffer, and sensitive
/// to any reordering anywhere in the merge.
class FanOutMapper final
    : public Mapper<uint64_t, std::string, std::string, std::string> {
 public:
  Status Map(const uint64_t& id, const std::string& row,
             Context* ctx) override {
    for (uint32_t j = 0; j < 4; ++j) {
      NGRAM_RETURN_NOT_OK(
          ctx->Emit("key" + std::to_string((id * 31 + j) % 23),
                    row + ":" + std::to_string(j)));
    }
    return Status::OK();
  }
};

/// Re-emits every record verbatim: round 1's output is the exact merged
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

/// Round 2: count round 1's records per key.
class CountMapper final
    : public Mapper<std::string, std::string, std::string, uint64_t> {
 public:
  Status Map(const std::string& key, const std::string& value,
             Context* ctx) override {
    return ctx->Emit(key, 1);
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

RecordTable ChaosInput() {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 120; ++i) {
    input.Add(i, "row-" + std::to_string(i) + "-payloadpayload");
  }
  return EncodeTable(input);
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

/// Counters whose values legitimately differ from a fault-free run: they
/// record the recovery work itself, or wall time (kBarrierWaitMs measures
/// milliseconds, not data). Everything else must match exactly.
std::map<std::string, uint64_t> StripRecoveryCounters(
    std::map<std::string, uint64_t> counters) {
  counters.erase(kTaskRetries);
  counters.erase(kMapReexecutions);
  counters.erase(kCorruptRunsRecovered);
  counters.erase(kBarrierWaitMs);
  return counters;
}

/// With shuffle_slots > 0 the merge *accounting* becomes
/// scheduling-dependent — how many intermediate passes run eagerly (and
/// what they write) depends on map-task commit timing — so overlap
/// configs additionally strip it. The data counters (records in/out,
/// spills, groups) stay in the comparison: eager merging must never
/// change what the reducers consume or produce.
std::map<std::string, uint64_t> StripSchedulingCounters(
    std::map<std::string, uint64_t> counters) {
  counters = StripRecoveryCounters(std::move(counters));
  counters.erase(kMergePasses);
  counters.erase(kIntermediateMergeBytes);
  counters.erase(kMapMergePasses);
  counters.erase(kMapIntermediateMergeBytes);
  counters.erase(kReduceMergePasses);
  counters.erase(kReduceIntermediateMergeBytes);
  counters.erase(kEarlyMergePasses);
  counters.erase(kEarlyMergeBytes);
  counters.erase(kRunBytesRaw);
  counters.erase(kRunBytesWritten);
  return counters;
}

struct PipelineResult {
  Status status = Status::OK();
  std::string output_bytes;
  std::map<std::string, uint64_t> counters;  // Summed over both rounds.
};

/// Runs the two-round pipeline (fan-out/identity, then count/sum) with
/// every byte of run-file I/O routed through `env`.
PipelineResult RunPipeline(const JobConfig& base, IoEnv* env,
                           const std::string& work_dir) {
  PipelineResult result;
  JobConfig config = base;
  config.io_env = env;
  config.work_dir = work_dir;

  config.name = "chaos-r1";
  RecordTable middle;
  auto round1 = RunJob<FanOutMapper, IdentityReducer>(
      config, ChaosInput(), [] { return std::make_unique<FanOutMapper>(); },
      [] { return std::make_unique<IdentityReducer>(); }, &middle);
  if (!round1.ok()) {
    result.status = round1.status();
    return result;
  }

  config.name = "chaos-r2";
  RecordTable output;
  auto round2 = RunJob<CountMapper, SumReducer>(
      config, middle, [] { return std::make_unique<CountMapper>(); },
      [] { return std::make_unique<SumReducer>(); }, &output);
  if (!round2.ok()) {
    result.status = round2.status();
    return result;
  }

  result.output_bytes = TableBytes(output);
  for (const auto& metrics : {*round1, *round2}) {
    for (const auto& [name, value] : metrics.counters) {
      result.counters[name] += value;
    }
  }
  return result;
}

size_t FilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Spill-heavy base config. Every run file verifies its block CRCs as it
/// is read, so an injected bit flip can never pass *silently* — the
/// outcome the dichotomy forbids.
JobConfig ChaosConfig(uint32_t merge_factor, uint32_t shuffle_slots = 0) {
  JobConfig config;
  config.sort_buffer_bytes = 512;
  config.num_map_tasks = 3;
  config.num_reducers = 2;
  config.map_slots = 1;
  config.reduce_slots = 1;
  config.merge_factor = merge_factor;
  config.shuffle_slots = shuffle_slots;
  config.max_task_attempts = 3;
  return config;
}

// ------------------------------------------------------------ seed sweep

/// A config's seeds are `seed_base + i`. The bases are explicit so a
/// config keeps replaying the same fault plans when others are added or
/// dropped: each is 100003 times the position the config first had in
/// this sweep.
struct SweepConfig {
  uint32_t merge_factor;
  uint32_t shuffle_slots;
  uint64_t seed_base;
};

constexpr SweepConfig kSweepConfigs[] = {
    {2, 0, 0 * 100003},
    {16, 0, 1 * 100003},
    {0, 0, 2 * 100003},
    // Early shuffle on: eager merge workers race the injected faults, so
    // op placement is not replayable seed-to-seed — the dichotomy itself
    // must still hold, with the scheduling-dependent merge accounting
    // stripped from the counter comparison.
    {2, 2, 6 * 100003},
    {16, 2, 7 * 100003},
};
constexpr uint64_t kSeedsPerConfig = 60;  // 300 seeds total.

TEST(ChaosTest, SweptSeedsUpholdTheDichotomy) {
  for (const SweepConfig& sweep : kSweepConfigs) {
    const JobConfig config =
        ChaosConfig(sweep.merge_factor, sweep.shuffle_slots);
    const bool overlap = sweep.shuffle_slots > 0;
    const auto strip = [overlap](const std::map<std::string, uint64_t>& c) {
      return overlap ? StripSchedulingCounters(c) : StripRecoveryCounters(c);
    };

    auto baseline_dir = TempDir::Create("chaos-baseline");
    ASSERT_TRUE(baseline_dir.ok());
    const PipelineResult baseline =
        RunPipeline(config, nullptr, baseline_dir->path().string());
    ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
    const auto baseline_counters = strip(baseline.counters);

    for (uint64_t i = 0; i < kSeedsPerConfig; ++i) {
      const uint64_t seed = sweep.seed_base + i;
      const FaultPlan plan = FaultPlan::FromSeed(seed);
      FaultEnv env(IoEnv::Default(), plan);
      auto dir = TempDir::Create("chaos");
      ASSERT_TRUE(dir.ok());
      const std::string work_dir = dir->path().string();
      const PipelineResult result = RunPipeline(config, &env, work_dir);

      const std::string label =
          "seed=" + std::to_string(seed) + " plan=" + plan.ToString() +
          " merge_factor=" + std::to_string(sweep.merge_factor) +
          " shuffle_slots=" + std::to_string(sweep.shuffle_slots);
      if (result.status.ok()) {
        // Completion arm: byte-identical output and counters.
        EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
        EXPECT_EQ(strip(result.counters), baseline_counters) << label;
      } else {
        // Failure arm: a clean Status (by construction) ...
        EXPECT_TRUE(env.fault_fired())
            << label << ": failed without the fault firing: "
            << result.status.ToString();
      }
      // ... and, either way, a clean work_dir: no orphaned runs, temp
      // files, or intermediates.
      EXPECT_EQ(FilesIn(work_dir), 0u) << label << " status="
                                       << result.status.ToString();
      // A plan whose op index the run never reached must be a clean
      // completion (the degenerate dichotomy arm).
      if (!env.fault_fired()) {
        EXPECT_TRUE(result.status.ok()) << label;
      }
    }
  }
}

TEST(ChaosTest, DichotomyHoldsUnderConcurrency) {
  // Multi-slot: op placement is racy, so runs are not comparable
  // seed-to-seed — but the dichotomy itself must hold under any
  // interleaving.
  JobConfig config = ChaosConfig(/*merge_factor=*/2);
  config.map_slots = 2;
  config.reduce_slots = 2;

  auto baseline_dir = TempDir::Create("chaos-mt-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());
  const auto baseline_counters = StripRecoveryCounters(baseline.counters);

  for (uint64_t seed = 9000; seed < 9040; ++seed) {
    FaultEnv env(IoEnv::Default(), FaultPlan::FromSeed(seed));
    auto dir = TempDir::Create("chaos-mt");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    const PipelineResult result = RunPipeline(config, &env, work_dir);
    const std::string label = "seed=" + std::to_string(seed) + " plan=" +
                              env.plan().ToString();
    if (result.status.ok()) {
      EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
      EXPECT_EQ(StripRecoveryCounters(result.counters), baseline_counters)
          << label;
    }
    EXPECT_EQ(FilesIn(work_dir), 0u) << label;
  }
}

// --------------------------------------------- per-injection-point faults

/// With op=1 every fault kind fires at its first opportunity, and with
/// max_task_attempts=3 each one is recoverable: write/short-write/commit/
/// rename faults fail the writing attempt (retried from scratch), read
/// faults fail the reading attempt, and the silent bit flip is caught by
/// run integrity checks and repaired by producer re-execution. The
/// pipeline must finish byte-identical to the fault-free run — data
/// counters included — at every injection point.
TEST(ChaosTest, EveryInjectionPointRecoversToIdenticalOutput) {
  const JobConfig config = ChaosConfig(/*merge_factor=*/0);
  auto baseline_dir = TempDir::Create("chaos-points-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());
  const auto baseline_counters = StripRecoveryCounters(baseline.counters);

  const FaultPlan::Kind kinds[] = {
      FaultPlan::Kind::kReadError,   FaultPlan::Kind::kWriteError,
      FaultPlan::Kind::kShortWrite,  FaultPlan::Kind::kBitFlip,
      FaultPlan::Kind::kCommitError, FaultPlan::Kind::kRenameError,
  };
  for (const FaultPlan::Kind kind : kinds) {
    FaultPlan plan;
    plan.kind = kind;
    plan.op = 1;
    plan.bit = 5;
    FaultEnv env(IoEnv::Default(), plan);
    auto dir = TempDir::Create("chaos-points");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    const PipelineResult result = RunPipeline(config, &env, work_dir);
    const std::string label = std::string("kind=") +
                              FaultPlan::KindName(kind);
    ASSERT_TRUE(result.status.ok())
        << label << ": " << result.status.ToString();
    EXPECT_TRUE(env.fault_fired()) << label;
    EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
    EXPECT_EQ(StripRecoveryCounters(result.counters), baseline_counters)
        << label;
    EXPECT_EQ(FilesIn(work_dir), 0u) << label;
    EXPECT_GT(result.counters.count(kTaskRetries) +
                  result.counters.count(kMapReexecutions),
              0u)
        << label << ": fault fired but no recovery was recorded";
  }
}

/// The acceptance scenario: a bit-flipped committed map run, discovered
/// by a reducer (merge_factor=0 keeps the map side from reading its own
/// runs first), triggers re-execution of the producing map task and the
/// job still completes correctly.
TEST(ChaosTest, BitFlippedMapRunTriggersProducerReexecution) {
  JobConfig config = ChaosConfig(/*merge_factor=*/0);
  config.max_task_attempts = 2;

  auto baseline_dir = TempDir::Create("flip-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;  // First written buffer: map task 0's first committed run.
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("flip");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(env.fault_fired());
  EXPECT_GE(result.counters.at(kMapReexecutions), 1u);
  EXPECT_GE(result.counters.at(kCorruptRunsRecovered), 1u);
  EXPECT_EQ(result.output_bytes, baseline.output_bytes);
  EXPECT_EQ(StripRecoveryCounters(result.counters),
            StripRecoveryCounters(baseline.counters));
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

/// Producer re-execution composing with the early shuffle: the flipped
/// run may have been pulled into an eager intermediate (whose merge then
/// failed on the block CRC and fell back) before a reducer discovers the
/// corruption; re-execution retires the generation and invalidates every
/// eager output built over it, and the job must still complete
/// byte-identical to its fault-free overlap baseline.
TEST(ChaosTest, BitFlippedMapRunRecoversWithEarlyShuffle) {
  JobConfig config = ChaosConfig(/*merge_factor=*/16, /*shuffle_slots=*/2);
  config.max_task_attempts = 2;

  auto baseline_dir = TempDir::Create("flip-early-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;  // First written buffer: map task 0's first committed run.
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("flip-early");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(env.fault_fired());
  EXPECT_GE(result.counters.at(kMapReexecutions), 1u);
  EXPECT_EQ(result.output_bytes, baseline.output_bytes);
  EXPECT_EQ(StripSchedulingCounters(result.counters),
            StripSchedulingCounters(baseline.counters));
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

/// Same scenario with the re-execution budget exhausted (attempts=1): the
/// corruption is unrecoverable and must surface as a clean Corruption
/// failure with a clean work_dir — not a wrong answer.
TEST(ChaosTest, ExhaustedReexecutionBudgetFailsCleanly) {
  JobConfig config = ChaosConfig(/*merge_factor=*/0);
  config.max_task_attempts = 1;

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("flip-budget");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_FALSE(result.status.ok());
  EXPECT_TRUE(result.status.IsCorruption()) << result.status.ToString();
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

// ------------------------------------------------- fetch-shuffle chaos

/// Counters that record the fetch work itself rather than the data:
/// retries and wait time move with injected transport faults, and the
/// wire byte count moves with how much a failed attempt re-fetched.
std::map<std::string, uint64_t> StripFetchCounters(
    std::map<std::string, uint64_t> counters) {
  counters.erase(kShuffleFetchBytes);
  counters.erase(kFetchRetries);
  counters.erase(kFetchWaitMs);
  return counters;
}

/// The transport-fault sweep: fetch-shuffle on, with every wire byte
/// flowing through a seeded FaultTransport (via the override seam). Each
/// seeded drop/truncate/bit-flip must either be absorbed (request retry
/// or map-attempt retry) with output and data counters identical to the
/// fault-free fetch run, or fail the job cleanly — never corrupt output,
/// never orphan clone files. Transit CRCs turn silent bit flips into
/// clean request failures, so the bit-flip arm exercises the frame CRC.
TEST(ChaosTest, FetchTransportFaultsUpholdTheDichotomy) {
  constexpr uint64_t kFetchSeeds = 60;  // Seeds 0..59.
  JobConfig config = ChaosConfig(/*merge_factor=*/2);
  config.fetch_shuffle = true;

  auto baseline_dir = TempDir::Create("fetch-chaos-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  const auto baseline_counters =
      StripFetchCounters(StripRecoveryCounters(baseline.counters));

  for (uint64_t seed = 0; seed < kFetchSeeds; ++seed) {
    const net::TransportFaultPlan plan =
        net::TransportFaultPlan::FromSeed(seed);
    net::InProcTransport base_transport;
    net::FaultTransport transport(&base_transport, plan);
    JobConfig faulty = config;
    faulty.shuffle_transport_override = &transport;

    auto dir = TempDir::Create("fetch-chaos");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    const PipelineResult result = RunPipeline(faulty, nullptr, work_dir);

    const std::string label =
        "seed=" + std::to_string(seed) + " plan=" + plan.ToString();
    if (result.status.ok()) {
      EXPECT_EQ(result.output_bytes, baseline.output_bytes) << label;
      EXPECT_EQ(StripFetchCounters(StripRecoveryCounters(result.counters)),
                baseline_counters)
          << label;
    } else {
      EXPECT_TRUE(transport.fault_fired())
          << label << ": failed without the fault firing: "
          << result.status.ToString();
    }
    EXPECT_EQ(FilesIn(work_dir), 0u)
        << label << " status=" << result.status.ToString();
    if (!transport.fault_fired()) {
      EXPECT_TRUE(result.status.ok()) << label;
    }
  }
}

/// The fetch-mode acceptance scenario: the *origin* run is bit-flipped at
/// write time (FaultEnv, not the transport), so the server serves the
/// corrupt bytes under valid transit CRCs and the clone lands corrupt.
/// The reducer's integrity check then names the clone, blame must map
/// back through the clone registry to the producing map task, and
/// re-execution (re-publish + re-fetch) must repair it — the chain that
/// makes fetch failures equivalent to local corruption.
TEST(ChaosTest, CorruptFetchedRunTriggersProducerReexecution) {
  JobConfig config = ChaosConfig(/*merge_factor=*/0);
  config.fetch_shuffle = true;
  config.max_task_attempts = 2;

  auto baseline_dir = TempDir::Create("fetch-flip-baseline");
  ASSERT_TRUE(baseline_dir.ok());
  const PipelineResult baseline =
      RunPipeline(config, nullptr, baseline_dir->path().string());
  ASSERT_TRUE(baseline.status.ok());

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;  // First written buffer: map task 0's first committed run.
  plan.bit = 17;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("fetch-flip");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const PipelineResult result = RunPipeline(config, &env, work_dir);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(env.fault_fired());
  EXPECT_GE(result.counters.at(kMapReexecutions), 1u);
  EXPECT_GE(result.counters.at(kCorruptRunsRecovered), 1u);
  EXPECT_EQ(result.output_bytes, baseline.output_bytes);
  EXPECT_EQ(StripFetchCounters(StripRecoveryCounters(result.counters)),
            StripFetchCounters(StripRecoveryCounters(baseline.counters)));
  EXPECT_EQ(FilesIn(work_dir), 0u);
}

// ------------------------------------------ blame by path, not by message

/// Passes everything through to IoEnv::Default(), except that every read
/// of the file named `basename` fails with a Corruption whose message does
/// not name the file — a device-level error, not a reader's own check.
/// The first `readers` failing reads wait for each other (for at most ten
/// seconds), so that many concurrent readers all hold the corruption
/// before any of them can act on it.
class BadSectorEnv final : public IoEnv {
 public:
  BadSectorEnv(std::string basename, uint64_t readers)
      : basename_(std::move(basename)), readers_(readers) {}

  Status NewReadableFile(const std::string& path, size_t buffer_hint,
                         std::unique_ptr<ReadableFile>* file) override {
    NGRAM_RETURN_NOT_OK(
        IoEnv::Default()->NewReadableFile(path, buffer_hint, file));
    if (std::filesystem::path(path).filename() == basename_) {
      *file = std::make_unique<BadSectorFile>(std::move(*file), this);
    }
    return Status::OK();
  }
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    return IoEnv::Default()->NewWritableFile(path, file);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return IoEnv::Default()->Rename(from, to);
  }
  Status Unlink(const std::string& path) override {
    return IoEnv::Default()->Unlink(path);
  }
  Status FileSize(const std::string& path, uint64_t* size) override {
    return IoEnv::Default()->FileSize(path, size);
  }

  uint64_t failed_reads() {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_reads_;
  }

 private:
  class BadSectorFile final : public ReadableFile {
   public:
    BadSectorFile(std::unique_ptr<ReadableFile> base, BadSectorEnv* env)
        : base_(std::move(base)), env_(env) {}

    Status Read(char* dst, size_t n, size_t* read) override {
      *read = 0;
      env_->Rendezvous();
      return Status::Corruption("bad sector");
    }
    Status Seek(uint64_t offset) override { return base_->Seek(offset); }

   private:
    std::unique_ptr<ReadableFile> base_;
    BadSectorEnv* env_;
  };

  void Rendezvous() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++failed_reads_ > readers_) {
      return;
    }
    arrived_.notify_all();
    arrived_.wait_for(lock, std::chrono::seconds(10),
                      [this] { return failed_reads_ >= readers_; });
  }

  const std::string basename_;
  const uint64_t readers_;
  std::mutex mu_;
  std::condition_variable arrived_;
  uint64_t failed_reads_ = 0;
};

/// Corruption is blamed on the producer of the file it was read from,
/// whatever the message says, and exactly once: all four reducers hold a
/// failed read of map task 0's first committed run before any of them
/// recovers (every partition has records in it), but only one may
/// re-execute the task — the others wait that re-execution out or find
/// the generation already replaced, and re-plan without a retry.
TEST(ChaosTest, PathlessCorruptionIsBlamedOnItsProducerOnce) {
  for (const bool fetch : {false, true}) {
    SCOPED_TRACE(fetch ? "fetch on" : "fetch off");
    JobConfig config = ChaosConfig(/*merge_factor=*/0);
    config.name = "bad-sector";
    config.num_reducers = 4;
    config.reduce_slots = 4;
    config.max_task_attempts = 2;
    config.fetch_shuffle = fetch;
    const RecordTable input = ChaosInput();
    auto run_job = [&](IoEnv* env, const std::string& work_dir,
                       RecordTable* output) {
      JobConfig job_config = config;
      job_config.io_env = env;
      job_config.work_dir = work_dir;
      return RunJob<FanOutMapper, IdentityReducer>(
          job_config, input, [] { return std::make_unique<FanOutMapper>(); },
          [] { return std::make_unique<IdentityReducer>(); }, output);
    };

    auto baseline_dir = TempDir::Create("bad-sector-baseline");
    ASSERT_TRUE(baseline_dir.ok());
    RecordTable baseline_output;
    const auto baseline = run_job(nullptr, baseline_dir->path().string(),
                                  &baseline_output);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_GT(baseline->Counter(kSpillFiles), 0u);

    // Fetch on, the reduce side reads the clone; the origin is only served
    // (a fault there would fail the map attempt, not the reduce side).
    BadSectorEnv env(fetch ? "fetch-0-a0-0.run" : "map-0-a0-000000.run",
                     /*readers=*/config.num_reducers);
    auto dir = TempDir::Create("bad-sector");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    RecordTable output;
    const auto result = run_job(&env, work_dir, &output);

    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(env.failed_reads(), config.num_reducers);
    EXPECT_EQ(result->Counter(kMapReexecutions), 1u);
    EXPECT_EQ(result->Counter(kCorruptRunsRecovered), 1u);
    EXPECT_EQ(result->Counter(kTaskRetries), 0u);
    EXPECT_EQ(TableBytes(output), TableBytes(baseline_output));
    EXPECT_EQ(StripFetchCounters(StripRecoveryCounters(result->counters)),
              StripFetchCounters(StripRecoveryCounters(baseline->counters)));
    EXPECT_EQ(FilesIn(work_dir), 0u);
  }
}

/// A shuffle server outlives jobs, and every job's first execution
/// publishes generation 0. One job's producer re-execution (generation 1
/// for map task 0) must not keep the next job on the same server from
/// publishing task 0: the second, fault-free job succeeds with the first
/// job's output.
TEST(ChaosTest, ReexecutionDoesNotPoisonASharedServerForTheNextJob) {
  net::InProcTransport transport;
  net::MapOutputServer::Options server_options;
  server_options.transport = &transport;
  server_options.address = "shared-server";
  net::MapOutputServer server(server_options);
  ASSERT_TRUE(server.Start().ok());

  JobConfig config = ChaosConfig(/*merge_factor=*/0);
  config.name = "shared-server";
  config.max_task_attempts = 2;
  config.fetch_shuffle = true;
  config.shuffle_transport_override = &transport;
  config.shuffle_server_address = server.address();
  const RecordTable input = ChaosInput();
  auto run_job = [&](IoEnv* env, const std::string& work_dir,
                     RecordTable* output) {
    JobConfig job_config = config;
    job_config.io_env = env;
    job_config.work_dir = work_dir;
    return RunJob<FanOutMapper, IdentityReducer>(
        job_config, input, [] { return std::make_unique<FanOutMapper>(); },
        [] { return std::make_unique<IdentityReducer>(); }, output);
  };

  auto first_dir = TempDir::Create("shared-server-first");
  ASSERT_TRUE(first_dir.ok());
  BadSectorEnv env("fetch-0-a0-0.run", /*readers=*/1);
  RecordTable first_output;
  const auto first =
      run_job(&env, first_dir->path().string(), &first_output);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->Counter(kMapReexecutions), 1u);

  auto second_dir = TempDir::Create("shared-server-second");
  ASSERT_TRUE(second_dir.ok());
  RecordTable second_output;
  const auto second =
      run_job(nullptr, second_dir->path().string(), &second_output);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->Counter(kMapReexecutions), 0u);
  EXPECT_EQ(TableBytes(second_output), TableBytes(first_output));
  EXPECT_EQ(FilesIn(second_dir->path().string()), 0u);
}

// ----------------------------------------------------- FaultEnv mechanics

TEST(ChaosTest, FaultPlansAreDeterministicAndSingleShot) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    const FaultPlan a = FaultPlan::FromSeed(seed);
    const FaultPlan b = FaultPlan::FromSeed(seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_NE(a.kind, FaultPlan::Kind::kNone);
    EXPECT_GE(a.op, 1u);
  }
  // A plan fires at most once even when the trigger index is crossed by
  // many operations.
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kWriteError;
  plan.op = 1;
  FaultEnv env(IoEnv::Default(), plan);
  auto dir = TempDir::Create("single-shot");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "run").string();
  RunWriterOptions options;
  options.env = &env;
  {
    RunWriter writer(path, options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("k", "v").ok());  // Buffered; no I/O yet.
    EXPECT_FALSE(writer.Close().ok());          // Flush hits the fault.
  }
  EXPECT_TRUE(env.fault_fired());
  // Second writer against the same env: the plan is spent, I/O passes.
  {
    RunWriter writer(path, options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("k", "v").ok());
    EXPECT_TRUE(writer.Close().ok()) << "plan must fire exactly once";
  }
}

TEST(ChaosTest, WriteFaultsLeaveNothingAtTheCommittedPath) {
  const FaultPlan::Kind kinds[] = {
      FaultPlan::Kind::kWriteError,
      FaultPlan::Kind::kShortWrite,
      FaultPlan::Kind::kCommitError,
      FaultPlan::Kind::kRenameError,
  };
  for (const FaultPlan::Kind kind : kinds) {
    FaultPlan plan;
    plan.kind = kind;
    plan.op = 1;
    FaultEnv env(IoEnv::Default(), plan);
    auto dir = TempDir::Create("write-fault");
    ASSERT_TRUE(dir.ok());
    const std::string path = (dir->path() / "run").string();
    RunWriterOptions options;
    options.env = &env;
    RunWriter writer(path, options);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("key", "value").ok());
    const Status st = writer.Close();
    const std::string label = std::string("kind=") +
                              FaultPlan::KindName(kind);
    EXPECT_FALSE(st.ok()) << label;
    EXPECT_TRUE(env.fault_fired()) << label;
    // The error names the staged file and the injected operation.
    EXPECT_NE(st.message().find("injected"), std::string::npos)
        << label << ": " << st.ToString();
    // Commit protocol: no committed file, no leftover temp file.
    EXPECT_FALSE(std::filesystem::exists(path)) << label;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << label;
  }
}

TEST(ChaosTest, ReadFaultSurfacesAsIoErrorNamingTheFile) {
  auto dir = TempDir::Create("read-fault");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "run").string();
  uint64_t length = 0;
  {
    RunWriter writer(path, RunWriterOptions{});
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("key", "value").ok());
    ASSERT_TRUE(writer.Close().ok());
    length = writer.bytes_written();
  }
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kReadError;
  plan.op = 1;
  FaultEnv env(IoEnv::Default(), plan);
  FileRecordReader reader(path, 0, length,
                          FileRecordReader::kDefaultBufferBytes, &env);
  EXPECT_FALSE(reader.Next());
  const Status st = reader.status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
  EXPECT_EQ(st.path(), path);
  EXPECT_TRUE(env.fault_fired());
}

TEST(ChaosTest, BitFlipIsSilentOnWriteAndCaughtByChecksum) {
  auto dir = TempDir::Create("bit-flip");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "run").string();
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.op = 1;
  plan.bit = 8 * 4 + 3;  // Byte 4 of the one written buffer: the payload.
  FaultEnv env(IoEnv::Default(), plan);
  RunWriterOptions options;
  options.env = &env;
  RunWriter writer(path, options);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append("key", "value").ok());
  // The flip is *silent*: the write succeeds and the run commits.
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_TRUE(env.fault_fired());
  ASSERT_TRUE(std::filesystem::exists(path));
  // The block CRC covers the logical bytes, the file holds the flipped
  // ones: reading must refuse the run and name it.
  FileRecordReader reader(path, 0, writer.bytes_written());
  EXPECT_FALSE(reader.Next());
  const Status st = reader.status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
  EXPECT_EQ(st.path(), path);
}

}  // namespace
}  // namespace ngram::mr
