// MapOutputServer + ShuffleFetcher tests: the publish/fetch protocol over
// a live server (newest manifest wins, NotFound/OutOfRange/Corruption error
// frames, connection reuse after an error), and Mirror()'s byte-identical
// clone contract with transient-fault retries and clean failure.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/runfile.h"
#include "mapreduce/sort_buffer.h"
#include "mapreduce/spill_writer.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/map_output_server.h"
#include "net/shuffle_fetcher.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "util/temp_dir.h"

namespace ngram::net {
namespace {

/// Commits a run file holding exactly `content` via the spill commit
/// protocol (what every served run went through).
void WriteRunFile(const std::string& path, const std::string& content) {
  mr::SpillWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRawBytes(content.data(), content.size()).ok());
  ASSERT_TRUE(writer.Close().ok());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One request/response exchange over an open connection.
Status Exchange(Connection* conn, MessageType req_type,
                const std::string& request, MessageType* resp_type,
                std::string* response) {
  NGRAM_RETURN_NOT_OK(WriteFrame(conn, req_type, request));
  return ReadFrame(conn, resp_type, response);
}

class MapOutputServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("mos-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    MapOutputServer::Options options;
    options.transport = &transport_;
    options.address = "server";
    server_ = std::make_unique<MapOutputServer>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::string WorkPath(const std::string& name) const {
    return (dir_->path() / name).string();
  }

  std::unique_ptr<Connection> Dial() {
    std::unique_ptr<Connection> conn;
    EXPECT_TRUE(transport_.Connect("server", &conn).ok());
    return conn;
  }

  /// Publishes one run of `task` at `generation` and returns the content
  /// split into two partitions at `split`.
  void Publish(Connection* conn, uint32_t task, uint32_t generation,
               const std::string& path, size_t total, size_t split) {
    PublishRequest req;
    req.task = task;
    req.generation = generation;
    WireRun run;
    run.path = path;
    run.segments = {{0, split, 1},
                    {split, total - split, 1}};
    req.runs = {run};
    std::string payload;
    EncodePublishRequest(req, &payload);
    MessageType type{};
    std::string response;
    ASSERT_TRUE(
        Exchange(conn, MessageType::kPublishRequest, payload, &type,
                 &response)
            .ok());
    ASSERT_EQ(type, MessageType::kPublishOk);
  }

  /// Sends one fetch request; returns the response frame.
  void Fetch(Connection* conn, uint32_t task, uint32_t generation,
             uint32_t run_index, uint32_t partition, MessageType* type,
             std::string* response) {
    FetchRequest req;
    req.task = task;
    req.generation = generation;
    req.run_index = run_index;
    req.partition = partition;
    std::string payload;
    EncodeFetchRequest(req, &payload);
    ASSERT_TRUE(Exchange(conn, MessageType::kFetchRequest, payload, type,
                         response)
                    .ok());
  }

  std::unique_ptr<TempDir> dir_;
  InProcTransport transport_;
  std::unique_ptr<MapOutputServer> server_;
};

TEST_F(MapOutputServerTest, PublishAndFetchRoundTrip) {
  const std::string content = "partition-zero-bytes|partition-one-bytes";
  const size_t split = 20;
  WriteRunFile(WorkPath("task3.run"), content);

  auto conn = Dial();
  Publish(conn.get(), /*task=*/3, /*generation=*/0, WorkPath("task3.run"),
          content.size(), split);

  MessageType type{};
  std::string response;
  Fetch(conn.get(), 3, 0, 0, 0, &type, &response);
  ASSERT_EQ(type, MessageType::kFetchData);
  EXPECT_EQ(response, content.substr(0, split));
  Fetch(conn.get(), 3, 0, 0, 1, &type, &response);
  ASSERT_EQ(type, MessageType::kFetchData);
  EXPECT_EQ(response, content.substr(split));
  EXPECT_EQ(server_->segments_served(), 2u);
  EXPECT_GE(server_->connections_accepted(), 1u);
}

TEST_F(MapOutputServerTest, EveryPublishReplacesAndStaleFetchIsOutOfRange) {
  // A server outlives jobs and every job's first execution publishes
  // generation 0, so the manifest received last wins whatever its
  // generation: a lower one replaces a re-executed task's manifest.
  const std::string old_content = "generation-guard-bytes";
  const std::string new_content = "next-job-run-bytes";
  WriteRunFile(WorkPath("g.run"), old_content);
  WriteRunFile(WorkPath("h.run"), new_content);
  auto conn = Dial();
  Publish(conn.get(), 0, /*generation=*/1, WorkPath("g.run"),
          old_content.size(), 4);
  Publish(conn.get(), 0, /*generation=*/0, WorkPath("h.run"),
          new_content.size(), 4);

  // A fetch naming the replaced generation is refused.
  MessageType type{};
  std::string response;
  Fetch(conn.get(), 0, 1, 0, 0, &type, &response);
  ASSERT_EQ(type, MessageType::kError);
  EXPECT_EQ(DecodeError(response).code(), StatusCode::kOutOfRange);

  // The installed generation serves its own run — same connection.
  Fetch(conn.get(), 0, 0, 0, 0, &type, &response);
  ASSERT_EQ(type, MessageType::kFetchData);
  EXPECT_EQ(response, new_content.substr(0, 4));
}

TEST_F(MapOutputServerTest, UnknownTaskRunOrPartitionIsNotFound) {
  const std::string content = "lookup-miss-bytes";
  WriteRunFile(WorkPath("m.run"), content);
  auto conn = Dial();
  Publish(conn.get(), 5, 0, WorkPath("m.run"), content.size(), 8);

  MessageType type{};
  std::string response;
  Fetch(conn.get(), /*task=*/99, 0, 0, 0, &type, &response);
  ASSERT_EQ(type, MessageType::kError);
  EXPECT_TRUE(DecodeError(response).IsNotFound());
  Fetch(conn.get(), 5, 0, /*run_index=*/7, 0, &type, &response);
  ASSERT_EQ(type, MessageType::kError);
  EXPECT_TRUE(DecodeError(response).IsNotFound());
  Fetch(conn.get(), 5, 0, 0, /*partition=*/9, &type, &response);
  ASSERT_EQ(type, MessageType::kError);
  EXPECT_TRUE(DecodeError(response).IsNotFound());
}

TEST_F(MapOutputServerTest, TruncatedRunFileIsCorruptionNamingThePath) {
  const std::string content = "short";
  WriteRunFile(WorkPath("t.run"), content);
  auto conn = Dial();
  // The manifest over-claims: 64 bytes from a 5-byte file.
  Publish(conn.get(), 2, 0, WorkPath("t.run"), /*total=*/64, /*split=*/32);

  MessageType type{};
  std::string response;
  Fetch(conn.get(), 2, 0, 0, 0, &type, &response);
  ASSERT_EQ(type, MessageType::kError);
  const Status st = DecodeError(response);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(WorkPath("t.run")), std::string::npos)
      << st.ToString();

  // The error left the connection usable for the next request.
  WriteRunFile(WorkPath("ok.run"), content);
  Publish(conn.get(), 4, 0, WorkPath("ok.run"), content.size(), 2);
  Fetch(conn.get(), 4, 0, 0, 1, &type, &response);
  ASSERT_EQ(type, MessageType::kFetchData);
  EXPECT_EQ(response, content.substr(2));
}

// ---------------------------------------------------------------- Mirror

/// Builds a committed two-partition block-format run at `path` and
/// returns its SpillRun descriptor.
mr::SpillRun MakeBlockRun(const std::string& path, int salt) {
  mr::RunWriter writer(path, mr::RunWriterOptions{});
  EXPECT_TRUE(writer.Open().ok());
  mr::RunSegment seg0;
  seg0.offset = 0;
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(writer
                    .Append("key-" + std::to_string(salt) + "-" +
                                std::to_string(i),
                            "value-" + std::to_string(i * salt))
                    .ok());
  }
  EXPECT_TRUE(writer.FinishSegment().ok());
  seg0.length = writer.bytes_written();
  seg0.num_records = 40;
  mr::RunSegment seg1;
  seg1.offset = writer.bytes_written();
  for (int i = 0; i < 25; ++i) {
    EXPECT_TRUE(
        writer.Append("tail-" + std::to_string(i), "v" + std::to_string(i))
            .ok());
  }
  EXPECT_TRUE(writer.FinishSegment().ok());
  seg1.length = writer.bytes_written() - seg1.offset;
  seg1.num_records = 25;
  EXPECT_TRUE(writer.Close().ok());
  mr::SpillRun run;
  run.file_path = path;
  run.segments = {seg0, seg1};
  return run;
}

struct MirrorHarness {
  std::unique_ptr<TempDir> dir;
  InProcTransport transport;
  std::unique_ptr<MapOutputServer> server;

  MirrorHarness() {
    auto created = TempDir::Create("mirror-test");
    EXPECT_TRUE(created.ok());
    dir = std::make_unique<TempDir>(std::move(*created));
    MapOutputServer::Options options;
    options.transport = &transport;
    options.address = "server";
    server = std::make_unique<MapOutputServer>(options);
    EXPECT_TRUE(server->Start().ok());
  }

  ShuffleFetcher::Options FetcherOptions(Transport* t) {
    ShuffleFetcher::Options options;
    options.transport = t;
    options.server_address = "server";
    options.work_dir = dir->path().string();
    return options;
  }
};

TEST(ShuffleFetcherTest, MirrorProducesByteIdenticalClones) {
  MirrorHarness h;
  const std::string src0 = (h.dir->path() / "src0.run").string();
  const std::string src1 = (h.dir->path() / "src1.run").string();
  std::vector<mr::SpillRun> runs = {MakeBlockRun(src0, 3),
                                    MakeBlockRun(src1, 7)};

  ShuffleFetcher fetcher(h.FetcherOptions(&h.transport));
  mr::Counters shared;
  std::vector<mr::SpillRun> fetched;
  {
    mr::TaskCounters tc(&shared);
    ASSERT_TRUE(fetcher
                    .Mirror(/*task=*/0, /*generation=*/0, /*attempt_id=*/0,
                            runs, &fetched, &tc)
                    .ok());
  }
  ASSERT_EQ(fetched.size(), 2u);
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < fetched.size(); ++i) {
    EXPECT_NE(fetched[i].file_path, runs[i].file_path);
    // The clone contract: identical bytes, identical extents at identical
    // positions — a reader cannot tell clone from source.
    EXPECT_EQ(FileBytes(fetched[i].file_path),
              FileBytes(runs[i].file_path));
    ASSERT_EQ(fetched[i].segments.size(), runs[i].segments.size());
    for (size_t p = 0; p < fetched[i].segments.size(); ++p) {
      EXPECT_EQ(fetched[i].segments[p].offset, runs[i].segments[p].offset);
      EXPECT_EQ(fetched[i].segments[p].length, runs[i].segments[p].length);
      EXPECT_EQ(fetched[i].segments[p].num_records,
                runs[i].segments[p].num_records);
      total_bytes += fetched[i].segments[p].length;
    }
  }
  EXPECT_EQ(shared.Get(mr::kShuffleFetchBytes), total_bytes);
  EXPECT_EQ(shared.Get(mr::kFetchRetries), 0u);
}

TEST(ShuffleFetcherTest, MirrorAbsorbsATransientDropViaRetry) {
  MirrorHarness h;
  const std::string src = (h.dir->path() / "src.run").string();
  std::vector<mr::SpillRun> runs = {MakeBlockRun(src, 5)};

  TransportFaultPlan plan;
  plan.kind = TransportFaultPlan::Kind::kDrop;
  plan.op = 2;  // Mid-protocol: after the publish response read.
  FaultTransport faulty(&h.transport, plan);
  ShuffleFetcher fetcher(h.FetcherOptions(&faulty));
  mr::Counters shared;
  std::vector<mr::SpillRun> fetched;
  Status st;
  {
    mr::TaskCounters tc(&shared);
    st = fetcher.Mirror(0, 0, 0, runs, &fetched, &tc);
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(faulty.fault_fired());
  EXPECT_GE(shared.Get(mr::kFetchRetries), 1u);
  ASSERT_EQ(fetched.size(), 1u);
  EXPECT_EQ(FileBytes(fetched[0].file_path), FileBytes(src));
}

TEST(ShuffleFetcherTest, MirrorFailsCleanlyWithNoServer) {
  auto dir = TempDir::Create("mirror-noserver");
  ASSERT_TRUE(dir.ok());
  InProcTransport transport;  // Nothing listening.
  ShuffleFetcher::Options options;
  options.transport = &transport;
  options.server_address = "nobody";
  options.work_dir = dir->path().string();
  options.request_retries = 1;
  ShuffleFetcher fetcher(options);

  const std::string src = (dir->path() / "src.run").string();
  std::vector<mr::SpillRun> runs = {MakeBlockRun(src, 2)};
  mr::Counters shared;
  std::vector<mr::SpillRun> fetched;
  Status st;
  {
    mr::TaskCounters tc(&shared);
    st = fetcher.Mirror(0, 0, 0, runs, &fetched, &tc);
  }
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(fetched.empty());
  // No clone files left behind: only the source run remains.
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir->path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ShuffleFetcherTest, MirrorWorksOverUnixSockets) {
  auto dir = TempDir::Create("mirror-sock");
  ASSERT_TRUE(dir.ok());
  SocketTransport transport;
  const std::string address = (dir->path() / "shuffle.sock").string();
  MapOutputServer::Options server_options;
  server_options.transport = &transport;
  server_options.address = address;
  MapOutputServer server(server_options);
  ASSERT_TRUE(server.Start().ok());

  const std::string src = (dir->path() / "src.run").string();
  std::vector<mr::SpillRun> runs = {MakeBlockRun(src, 9)};
  ShuffleFetcher::Options options;
  options.transport = &transport;
  options.server_address = address;
  options.work_dir = dir->path().string();
  ShuffleFetcher fetcher(options);
  mr::Counters shared;
  std::vector<mr::SpillRun> fetched;
  Status st;
  {
    mr::TaskCounters tc(&shared);
    st = fetcher.Mirror(0, 0, 0, runs, &fetched, &tc);
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(fetched.size(), 1u);
  EXPECT_EQ(FileBytes(fetched[0].file_path), FileBytes(src));
  server.Stop();
}

}  // namespace
}  // namespace ngram::net
