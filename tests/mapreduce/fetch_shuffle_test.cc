// Fetch-shuffle identity tests (docs/architecture.md section 10): with
// JobConfig::fetch_shuffle on, every shuffled byte crosses a transport
// into clone run files and the reduce side plans only over the clones —
// and the job's output and data counters must be byte-identical to the
// direct-registry run for every merge factor, slot count, and server
// (loopback or external). Plus: origin runs are gone before the reduce
// side opens a clone, clean failure when the transport is persistently
// unreachable, and a concurrency stress shape for the TSan job.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "mapreduce/dataset.h"
#include "mapreduce/job.h"
#include "net/inproc_transport.h"
#include "net/map_output_server.h"
#include "net/socket_transport.h"
#include "testing/test_util.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

/// Fan-out over a small shared key space: spill-heavy under a tiny sort
/// buffer and sensitive to any reordering anywhere in the merge.
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

/// Re-emits every record verbatim: the output is the exact merged record
/// stream, so any fetch-path reordering or corruption shows as a diff.
class IdentityReducer final : public RawReducer<std::string, std::string> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    while (group->NextValue()) {
      NGRAM_RETURN_NOT_OK(ctx->EmitRaw(group->key(), group->value()));
    }
    return Status::OK();
  }
};

RecordTable FetchInput() {
  MemoryTable<uint64_t, std::string> input;
  for (uint64_t i = 0; i < 100; ++i) {
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

/// The counters whose values are pure functions of input + config — what
/// "data counters byte-identical" means. Spill/merge accounting moves
/// with fetch mode (the final flush is forced to disk so it can be
/// served) and the fetch counters only exist fetch-on, so neither side
/// of the comparison includes them.
std::map<std::string, uint64_t> DataCounters(
    const std::map<std::string, uint64_t>& counters) {
  static const char* const kDataCounters[] = {
      kMapInputRecords,     kMapInputBytes,     kMapOutputRecords,
      kMapOutputBytes,      kCombineInputRecords,
      kCombineOutputRecords, kReduceInputGroups, kReduceInputRecords,
      kReduceOutputRecords, kReduceInputRecordsMax,
  };
  std::map<std::string, uint64_t> data;
  for (const char* name : kDataCounters) {
    auto it = counters.find(name);
    data[name] = it == counters.end() ? 0 : it->second;
  }
  return data;
}

struct JobResult {
  Status status = Status::OK();
  std::string output_bytes;
  std::map<std::string, uint64_t> counters;
};

JobResult RunFetchJob(JobConfig config, const std::string& work_dir) {
  config.work_dir = work_dir;
  JobResult result;
  RecordTable output;
  auto metrics = RunJob<FanOutMapper, IdentityReducer>(
      config, FetchInput(), [] { return std::make_unique<FanOutMapper>(); },
      [] { return std::make_unique<IdentityReducer>(); }, &output);
  if (!metrics.ok()) {
    result.status = metrics.status();
    return result;
  }
  result.output_bytes = TableBytes(output);
  result.counters = metrics->counters;
  return result;
}

JobConfig FetchConfig(uint32_t merge_factor, uint32_t shuffle_slots) {
  JobConfig config;
  config.name = "fetch-test";
  config.sort_buffer_bytes = 512;  // Spill-heavy.
  config.num_map_tasks = 3;
  config.num_reducers = 2;
  config.map_slots = 2;
  config.reduce_slots = 2;
  config.merge_factor = merge_factor;
  config.shuffle_slots = shuffle_slots;
  return config;
}

size_t FilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// The identity sweep: fetch on vs fetch off across merge factor x
/// shuffle slots, fetch on both through the job's loopback server and
/// through an external server on Unix sockets, dialled by address (the
/// two-process form). Output bytes and data counters must match exactly;
/// fetch mode must actually move bytes over the wire.
TEST(FetchShuffleTest, OutputAndDataCountersIdenticalAcrossConfigs) {
  auto sock_dir = TempDir::Create("fetch-sock");
  ASSERT_TRUE(sock_dir.ok());
  net::SocketTransport sockets;
  net::MapOutputServer::Options server_options;
  server_options.transport = &sockets;
  server_options.address = (sock_dir->path() / "shuffle.sock").string();
  net::MapOutputServer server(server_options);
  ASSERT_TRUE(server.Start().ok());

  for (uint32_t merge_factor : {2u, 16u, 0u}) {
    for (uint32_t shuffle_slots : {0u, 2u}) {
      const JobConfig base = FetchConfig(merge_factor, shuffle_slots);
      auto off_dir = TempDir::Create("fetch-off");
      ASSERT_TRUE(off_dir.ok());
      const JobResult off = RunFetchJob(base, off_dir->path().string());
      ASSERT_TRUE(off.status.ok()) << off.status.ToString();
      EXPECT_EQ(off.counters.count(kShuffleFetchBytes), 0u);

      for (const bool external : {false, true}) {
        JobConfig fetch = base;
        fetch.fetch_shuffle = true;
        if (external) {
          fetch.shuffle_server_address = server.address();
        }
        auto on_dir = TempDir::Create("fetch-on");
        ASSERT_TRUE(on_dir.ok());
        const std::string work_dir = on_dir->path().string();
        const JobResult on = RunFetchJob(fetch, work_dir);
        const std::string label =
            "merge_factor=" + std::to_string(merge_factor) +
            " shuffle_slots=" + std::to_string(shuffle_slots) +
            " server=" + (external ? "external socket" : "loopback");
        ASSERT_TRUE(on.status.ok()) << label << ": "
                                    << on.status.ToString();
        EXPECT_EQ(on.output_bytes, off.output_bytes) << label;
        EXPECT_EQ(DataCounters(on.counters), DataCounters(off.counters))
            << label;
        // Every shuffled byte crossed the transport.
        EXPECT_GT(on.counters.at(kShuffleFetchBytes), 0u) << label;
        // Job-end cleanup ran: no clone or origin leftovers.
        EXPECT_EQ(FilesIn(work_dir), 0u) << label;
      }
    }
  }
  EXPECT_GT(server.segments_served(), 0u);
}

/// Passes everything through to IoEnv::Default(), and counts, when a
/// fetched clone (`fetch-*`) is first opened for reading, the origin runs
/// (`map-*`) still in `work_dir`.
class OriginWatchEnv final : public IoEnv {
 public:
  explicit OriginWatchEnv(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  Status NewReadableFile(const std::string& path, size_t buffer_hint,
                         std::unique_ptr<ReadableFile>* file) override {
    if (HasPrefix(path, "fetch-")) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!clone_opened_) {
        clone_opened_ = true;
        for (const auto& entry :
             std::filesystem::directory_iterator(work_dir_)) {
          origins_at_first_clone_ += HasPrefix(entry.path(), "map-") ? 1 : 0;
        }
      }
    }
    return IoEnv::Default()->NewReadableFile(path, buffer_hint, file);
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

  bool clone_opened() {
    std::lock_guard<std::mutex> lock(mu_);
    return clone_opened_;
  }
  uint64_t origins_at_first_clone() {
    std::lock_guard<std::mutex> lock(mu_);
    return origins_at_first_clone_;
  }

 private:
  static bool HasPrefix(const std::filesystem::path& path,
                        const char* prefix) {
    return path.filename().string().rfind(prefix, 0) == 0;
  }

  const std::string work_dir_;
  std::mutex mu_;
  bool clone_opened_ = false;
  uint64_t origins_at_first_clone_ = 0;
};

/// Nothing reads an origin run once its clones are committed, so each map
/// task unlinks its origins then: by the time the reduce side opens its
/// first clone, none is left. With shuffle_slots = 0 only reduce tasks
/// open clones, after the map barrier. Loopback and external server.
TEST(FetchShuffleTest, OriginRunsAreGoneWhenTheReduceSideOpensClones) {
  net::InProcTransport transport;
  net::MapOutputServer::Options server_options;
  server_options.transport = &transport;
  server_options.address = "external";
  net::MapOutputServer server(server_options);
  ASSERT_TRUE(server.Start().ok());

  for (const bool external : {false, true}) {
    SCOPED_TRACE(external ? "external server" : "loopback server");
    JobConfig config = FetchConfig(/*merge_factor=*/2, /*shuffle_slots=*/0);
    config.fetch_shuffle = true;
    if (external) {
      config.shuffle_transport_override = &transport;
      config.shuffle_server_address = server.address();
    }
    auto dir = TempDir::Create("fetch-origins");
    ASSERT_TRUE(dir.ok());
    const std::string work_dir = dir->path().string();
    OriginWatchEnv env(work_dir);
    config.io_env = &env;
    const JobResult result = RunFetchJob(config, work_dir);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_TRUE(env.clone_opened());
    EXPECT_EQ(env.origins_at_first_clone(), 0u);
    EXPECT_EQ(FilesIn(work_dir), 0u);
  }
}

/// Fetch bytes are themselves deterministic (fault-free): two identical
/// fetch-on runs move exactly the same bytes over the wire.
TEST(FetchShuffleTest, FetchByteCountIsDeterministic) {
  JobConfig config = FetchConfig(/*merge_factor=*/2, /*shuffle_slots=*/0);
  config.fetch_shuffle = true;
  auto dir_a = TempDir::Create("fetch-det-a");
  auto dir_b = TempDir::Create("fetch-det-b");
  ASSERT_TRUE(dir_a.ok());
  ASSERT_TRUE(dir_b.ok());
  const JobResult a = RunFetchJob(config, dir_a->path().string());
  const JobResult b = RunFetchJob(config, dir_b->path().string());
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.counters.at(kShuffleFetchBytes),
            b.counters.at(kShuffleFetchBytes));
  // Fault-free: no retry ever happened, so the counter was never created.
  EXPECT_EQ(a.counters.count(kFetchRetries), 0u);
}

/// A persistently unreachable shuffle server must fail the job cleanly —
/// map attempts exhausted, clean Status, clean work_dir — never hang or
/// emit partial output.
TEST(FetchShuffleTest, UnreachableServerFailsCleanly) {
  JobConfig config = FetchConfig(/*merge_factor=*/16, /*shuffle_slots=*/0);
  config.fetch_shuffle = true;
  // External server address: the job dials instead of serving loopback —
  // and nothing is listening there.
  auto sock_dir = TempDir::Create("fetch-nosrv-sock");
  ASSERT_TRUE(sock_dir.ok());
  config.shuffle_server_address =
      (sock_dir->path() / "nobody.sock").string();
  config.max_task_attempts = 2;

  auto dir = TempDir::Create("fetch-nosrv");
  ASSERT_TRUE(dir.ok());
  const std::string work_dir = dir->path().string();
  const JobResult result = RunFetchJob(config, work_dir);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(FilesIn(work_dir), 0u) << result.status.ToString();
}

/// The test seam: a caller-owned transport replaces the job-constructed
/// one (chaos tests decorate it with FaultTransport).
TEST(FetchShuffleTest, TransportOverrideSeamCarriesTheShuffle) {
  net::InProcTransport transport;
  JobConfig config = FetchConfig(/*merge_factor=*/2, /*shuffle_slots=*/0);
  config.fetch_shuffle = true;
  config.shuffle_transport_override = &transport;
  auto dir = TempDir::Create("fetch-seam");
  ASSERT_TRUE(dir.ok());
  const JobResult on = RunFetchJob(config, dir->path().string());
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  EXPECT_GT(on.counters.at(kShuffleFetchBytes), 0u);

  JobConfig off_config = FetchConfig(2, 0);
  auto off_dir = TempDir::Create("fetch-seam-off");
  ASSERT_TRUE(off_dir.ok());
  const JobResult off = RunFetchJob(off_config, off_dir->path().string());
  ASSERT_TRUE(off.status.ok());
  EXPECT_EQ(on.output_bytes, off.output_bytes);
}

/// All four paper methods agree fetch-on vs fetch-off, statistics and
/// data counters both — the end-to-end placement-independence claim.
TEST(FetchShuffleTest, AllMethodsAgreeFetchOnAndOff) {
  const Corpus corpus = testing::RandomCorpus(61, 40, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    NgramJobOptions off = testing::TestOptions(method, 2, 4);
    off.sort_buffer_bytes = 2048;  // Spill-heavy.
    off.merge_factor = 4;
    NgramJobOptions on = off;
    on.fetch_shuffle = true;
    auto a = ComputeNgramStatistics(ctx, off);
    auto b = ComputeNgramStatistics(ctx, on);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    a->stats.SortCanonical();
    b->stats.SortCanonical();
    EXPECT_TRUE(a->stats.SameAs(b->stats)) << MethodName(method);
    for (const char* counter :
         {kMapOutputRecords, kMapOutputBytes, kReduceInputRecords,
          kReduceOutputRecords}) {
      EXPECT_EQ(a->metrics.TotalCounter(counter),
                b->metrics.TotalCounter(counter))
          << MethodName(method) << " " << counter;
    }
    EXPECT_GT(b->metrics.TotalCounter(kShuffleFetchBytes), 0u)
        << MethodName(method);
  }
}

/// Concurrency shape for the TSan job (ci.yml runs FetchShuffleStressTest.*
/// under ThreadSanitizer): wide slots, overlap on, fetch on — map
/// attempts mirroring through one server while eager mergers read the
/// clone registry.
TEST(FetchShuffleStressTest, ConcurrentMirrorsAndEagerMergesStayIdentical) {
  JobConfig config = FetchConfig(/*merge_factor=*/2, /*shuffle_slots=*/2);
  config.fetch_shuffle = true;
  config.num_map_tasks = 6;
  config.map_slots = 4;
  config.reduce_slots = 4;
  config.num_reducers = 4;

  JobConfig off_config = config;
  off_config.fetch_shuffle = false;
  auto off_dir = TempDir::Create("fetch-stress-off");
  ASSERT_TRUE(off_dir.ok());
  const JobResult off = RunFetchJob(off_config, off_dir->path().string());
  ASSERT_TRUE(off.status.ok());

  for (int round = 0; round < 3; ++round) {
    auto dir = TempDir::Create("fetch-stress");
    ASSERT_TRUE(dir.ok());
    const JobResult on = RunFetchJob(config, dir->path().string());
    ASSERT_TRUE(on.status.ok()) << on.status.ToString();
    EXPECT_EQ(on.output_bytes, off.output_bytes) << "round " << round;
    EXPECT_EQ(DataCounters(on.counters), DataCounters(off.counters))
        << "round " << round;
  }
}

}  // namespace
}  // namespace ngram::mr
