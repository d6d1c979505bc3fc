#include "core/stats_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "encoding/varint.h"
#include "mapreduce/io_env.h"
#include "text/corpus_builder.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

class StatsIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("stats-io-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  NgramStatistics SampleStats() {
    NgramStatistics stats;
    stats.Add({1}, 100);
    stats.Add({1, 2}, 42);
    stats.Add({70000, 3, 5}, 7);
    return stats;
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(StatsIoTest, BinaryRoundTrip) {
  const NgramStatistics original = SampleStats();
  const std::string path = dir_->File("stats.bin");
  ASSERT_TRUE(WriteStatsBinary(original, path).ok());
  NgramStatistics loaded;
  ASSERT_TRUE(ReadStatsBinary(path, &loaded).ok());
  EXPECT_EQ(loaded.entries, original.entries);
}

TEST_F(StatsIoTest, BinaryEmptyTable) {
  const std::string path = dir_->File("empty.bin");
  ASSERT_TRUE(WriteStatsBinary(NgramStatistics{}, path).ok());
  NgramStatistics loaded;
  loaded.Add({9}, 9);
  ASSERT_TRUE(ReadStatsBinary(path, &loaded).ok());
  EXPECT_TRUE(loaded.empty());
}

TEST_F(StatsIoTest, BinaryRejectsBadMagic) {
  const std::string path = dir_->File("garbage.bin");
  std::ofstream(path) << "not a stats file";
  NgramStatistics loaded;
  EXPECT_TRUE(ReadStatsBinary(path, &loaded).IsCorruption());
}

TEST_F(StatsIoTest, BinaryRejectsTruncation) {
  const std::string path = dir_->File("trunc.bin");
  ASSERT_TRUE(WriteStatsBinary(SampleStats(), path).ok());
  const std::string content = ReadFile(path);
  std::ofstream(path, std::ios::binary)
      << content.substr(0, content.size() - 1);
  NgramStatistics loaded;
  EXPECT_TRUE(ReadStatsBinary(path, &loaded).IsCorruption());
}

TEST_F(StatsIoTest, BinaryRejectsImpossibleEntryCount) {
  // The right magic, then an entry count of 2^60 over a handful of bytes:
  // Corruption, checked before anything is reserved for the entries.
  std::string bytes = "NGS1";
  PutVarint64(&bytes, uint64_t{1} << 60);
  bytes += "\x01\x01\x01";
  const std::string path = dir_->File("huge-count.bin");
  std::ofstream(path, std::ios::binary) << bytes;
  NgramStatistics loaded;
  const Status st = ReadStatsBinary(path, &loaded);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(StatsIoTest, FaultEnvInjectsWriteError) {
  mr::FaultPlan plan;
  plan.kind = mr::FaultPlan::Kind::kWriteError;
  plan.op = 1;
  mr::FaultEnv env(mr::IoEnv::Default(), plan);
  const Status st =
      WriteStatsBinary(SampleStats(), dir_->File("faulted.bin"), &env);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(env.fault_fired());
}

TEST_F(StatsIoTest, FaultEnvInjectsReadError) {
  const std::string path = dir_->File("readable.bin");
  ASSERT_TRUE(WriteStatsBinary(SampleStats(), path).ok());
  mr::FaultPlan plan;
  plan.kind = mr::FaultPlan::Kind::kReadError;
  plan.op = 1;
  mr::FaultEnv env(mr::IoEnv::Default(), plan);
  NgramStatistics loaded;
  const Status st = ReadStatsBinary(path, &loaded, &env);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(env.fault_fired());
}

TEST_F(StatsIoTest, ReadMissingFileIsIOError) {
  NgramStatistics loaded;
  EXPECT_TRUE(ReadStatsBinary(dir_->File("absent.bin"), &loaded).IsIOError());
}

TEST_F(StatsIoTest, TsvWithRawIds) {
  NgramStatistics stats;
  stats.Add({3, 1}, 5);
  const std::string path = dir_->File("stats.tsv");
  ASSERT_TRUE(WriteStatsTsv(stats, nullptr, path).ok());
  EXPECT_EQ(ReadFile(path), "3 1\t5\n");
}

TEST_F(StatsIoTest, TsvWithVocabulary) {
  TextCorpusBuilder builder;
  builder.Add(1, "hello world hello");
  auto built = builder.Finalize();
  NgramStatistics stats;
  stats.Add(built.vocabulary->Encode({"hello", "world"}), 1);
  stats.Add(built.vocabulary->Encode({"hello"}), 2);
  const std::string path = dir_->File("vocab.tsv");
  ASSERT_TRUE(WriteStatsTsv(stats, built.vocabulary.get(), path).ok());
  EXPECT_EQ(ReadFile(path), "hello world\t1\nhello\t2\n");
}

}  // namespace
}  // namespace ngram
