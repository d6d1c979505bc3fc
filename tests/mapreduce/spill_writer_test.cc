#include "mapreduce/spill_writer.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <iterator>
#include <string>

#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class SpillWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("spillwriter-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  std::string Path(const std::string& name) {
    return dir_->path().string() + "/" + name;
  }

  /// The bytes of a committed block-format run holding `records`.
  std::string BlockRunImage(
      const std::vector<std::pair<std::string, std::string>>& records) {
    const std::string path = Path("image.run");
    RunWriter writer(path, RunWriterOptions{});
    EXPECT_TRUE(writer.Open().ok());
    for (const auto& [k, v] : records) {
      EXPECT_TRUE(writer.Append(k, v).ok());
    }
    EXPECT_TRUE(writer.Close().ok());
    return FileBytes(path);
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SpillWriterTest, RoundTripsThroughFileRecordReader) {
  // The fetcher's clone path: a run's bytes streamed verbatim through a
  // SpillWriter read back as the same records.
  const std::string image =
      BlockRunImage({{"apple", "1"}, {"banana", "22"}, {"", "empty-key"}});
  const std::string path = Path("run");
  SpillWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRawBytes(image.data(), image.size()).ok());
  const uint64_t total = writer.bytes_written();
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(total, image.size());

  FileRecordReader reader(path, 0, total);
  ASSERT_TRUE(reader.Next()) << reader.status().ToString();
  EXPECT_EQ(reader.key().ToString(), "apple");
  EXPECT_EQ(reader.value().ToString(), "1");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "banana");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "");
  EXPECT_EQ(reader.value().ToString(), "empty-key");
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(SpillWriterTest, OversizedRecordsBypassTheBuffer) {
  // A block image larger than the whole buffer goes straight to the file
  // between two buffered appends; the file must hold all three in order.
  const std::string big = BlockRunImage({{"big", std::string(1000, 'x')}});
  const std::string path = Path("big");
  SpillWriter::Options options;
  options.buffer_bytes = 64;  // Force both flushes and direct writes.
  SpillWriter writer(path, options);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRawBytes("small", 5).ok());
  ASSERT_TRUE(writer.AppendRawBytes(big.data(), big.size()).ok());
  ASSERT_TRUE(writer.AppendRawBytes("after", 5).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(FileBytes(path), "small" + big + "after");

  FileRecordReader reader(path, 5, big.size());
  ASSERT_TRUE(reader.Next()) << reader.status().ToString();
  EXPECT_EQ(reader.value().ToString(), std::string(1000, 'x'));
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(SpillWriterTest, BytesWrittenTracksBufferedBytes) {
  SpillWriter writer(Path("offsets"));
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRawBytes("key-value", 9).ok());
  // Nothing has been flushed yet, but the logical offset must advance so
  // segment extents recorded mid-stream are correct.
  EXPECT_EQ(writer.bytes_written(), 9u);
  ASSERT_TRUE(writer.Close().ok());
}

TEST_F(SpillWriterTest, AbandonUnlinksTheFile) {
  const std::string path = Path("abandoned");
  SpillWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendRawBytes("kv", 2).ok());
  // Mid-write bytes are staged at "<path>.tmp"; the committed name does
  // not exist until Close() renames it into place.
  EXPECT_TRUE(FileExists(path + ".tmp"));
  EXPECT_FALSE(FileExists(path));
  writer.Abandon();
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_FALSE(FileExists(path));
  // Later appends fail instead of writing to a dangling handle.
  EXPECT_FALSE(writer.AppendRawBytes("k2", 2).ok());
}

TEST_F(SpillWriterTest, DestructorWithoutCloseUnlinks) {
  const std::string path = Path("leaked");
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.AppendRawBytes("kv", 2).ok());
    EXPECT_TRUE(FileExists(path + ".tmp"));
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_FALSE(FileExists(path));
}

TEST_F(SpillWriterTest, NeverOpenedWriterLeavesExistingFileAlone) {
  const std::string path = Path("precious");
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.AppendRawBytes("kv", 2).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  ASSERT_TRUE(FileExists(path));
  {
    SpillWriter never_opened(path);  // Constructed, then bails pre-Open.
  }
  EXPECT_TRUE(FileExists(path));
  SpillWriter unclosed(path);
  EXPECT_FALSE(unclosed.Close().ok());
  EXPECT_TRUE(FileExists(path));
}

}  // namespace
}  // namespace ngram::mr
