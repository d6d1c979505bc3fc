#include "mapreduce/record.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "encoding/varint.h"
#include "mapreduce/runfile.h"
#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

TEST(RecordTest, AppendAndMemoryRead) {
  std::string buf;
  AppendRecord(&buf, "key1", "value1");
  AppendRecord(&buf, "k", "");
  AppendRecord(&buf, "", "v");

  MemoryRecordReader reader((Slice(buf)));
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "key1");
  EXPECT_EQ(reader.value().ToString(), "value1");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "k");
  EXPECT_TRUE(reader.value().empty());
  ASSERT_TRUE(reader.Next());
  EXPECT_TRUE(reader.key().empty());
  EXPECT_EQ(reader.value().ToString(), "v");
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST(RecordTest, MemoryReaderRejectsCorruption) {
  std::string buf;
  AppendRecord(&buf, "abc", "def");
  buf.resize(buf.size() - 2);  // Truncate the value.
  MemoryRecordReader reader((Slice(buf)));
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST(RecordTest, MemoryReaderRejectsWrappingFrameLengths) {
  // klen = 2^64-1 and vlen = 2 sum to 1 modulo 2^64, which the one byte
  // left would satisfy: the lengths must be checked one at a time.
  std::string buf;
  PutVarint64(&buf, ~uint64_t{0});
  PutVarint64(&buf, 2);
  buf.push_back('x');
  ASSERT_EQ(buf.size(), 12u);
  MemoryRecordReader reader((Slice(buf)));
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().IsCorruption());
}

using KvList = std::vector<std::pair<std::string, std::string>>;

class FileRecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("record-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  /// Writes `segments` as one block-format run, closing a segment (and
  /// its block) after each; returns the file path and fills in each
  /// segment's byte extent.
  std::string WriteRun(const std::vector<KvList>& segments,
                       std::vector<std::pair<uint64_t, uint64_t>>* extents,
                       size_t block_bytes = kDefaultBlockBytes) {
    const std::string path = dir_->File("records.run");
    RunWriterOptions options;
    options.block_bytes = block_bytes;
    RunWriter writer(path, options);
    EXPECT_TRUE(writer.Open().ok());
    for (const KvList& records : segments) {
      const uint64_t offset = writer.bytes_written();
      for (const auto& [k, v] : records) {
        EXPECT_TRUE(writer.Append(k, v).ok());
      }
      EXPECT_TRUE(writer.FinishSegment().ok());
      extents->emplace_back(offset, writer.bytes_written() - offset);
    }
    EXPECT_TRUE(writer.Close().ok());
    return path;
  }

  /// One-segment convenience form; returns the run's byte length.
  uint64_t WriteRun(const KvList& records, std::string* path,
                    size_t block_bytes = kDefaultBlockBytes) {
    std::vector<std::pair<uint64_t, uint64_t>> extents;
    *path = WriteRun({records}, &extents, block_bytes);
    return extents[0].second;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(FileRecordTest, ReadsWholeFile) {
  KvList records;
  for (int i = 0; i < 100; ++i) {
    records.emplace_back("key" + std::to_string(i), "val" + std::to_string(i));
  }
  std::string path;
  const uint64_t length = WriteRun(records, &path);
  FileRecordReader reader(path, 0, length);
  for (const auto& [k, v] : records) {
    ASSERT_TRUE(reader.Next()) << reader.status().ToString();
    EXPECT_EQ(reader.key().ToString(), k);
    EXPECT_EQ(reader.value().ToString(), v);
  }
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(FileRecordTest, ReadsSegmentAtOffset) {
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  const std::string path = WriteRun(
      {{{"aaa", "111"}}, {{"bbb", "222"}, {"ccc", "333"}}}, &extents);
  ASSERT_EQ(extents.size(), 2u);

  FileRecordReader reader(path, extents[1].first, extents[1].second);
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "bbb");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.key().ToString(), "ccc");
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(FileRecordTest, TinyBufferForcesRefills) {
  // A 64-byte read hint and 64-byte blocks: nearly every Next() loads a
  // block through a stream buffer smaller than the block.
  Rng rng(5);
  KvList records;
  for (int i = 0; i < 200; ++i) {
    std::string key(1 + rng.Uniform(40), 'k');
    std::string value(rng.Uniform(60), 'v');
    key += std::to_string(i);
    records.emplace_back(key, value);
  }
  std::string path;
  const uint64_t length = WriteRun(records, &path, /*block_bytes=*/64);
  FileRecordReader reader(path, 0, length, /*buffer_size=*/64);
  for (const auto& [k, v] : records) {
    ASSERT_TRUE(reader.Next()) << reader.status().ToString();
    EXPECT_EQ(reader.key().ToString(), k);
    EXPECT_EQ(reader.value().ToString(), v);
  }
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(FileRecordTest, LookbackContractAcrossRefills) {
  // The grouped reduce pipeline compares adjacent merge records on cached
  // key slices, which requires the previous record's bytes to stay valid
  // across exactly one Next() call — including calls that load the next
  // block. Tiny blocks make nearly every Next() a block load; varying
  // record sizes vary how many records share a block.
  for (size_t block_bytes : {size_t{24}, size_t{32}, size_t{64}}) {
    KvList expected;
    for (int i = 0; i < 200; ++i) {
      expected.emplace_back("key" + std::to_string(i),
                            std::string(static_cast<size_t>(i % 37), 'v'));
    }
    std::string path;
    const uint64_t length = WriteRun(expected, &path, block_bytes);
    FileRecordReader reader(path, 0, length, /*buffer_size=*/64);
    ASSERT_TRUE(reader.Next()) << reader.status().ToString();
    Slice prev_key = reader.key();
    Slice prev_value = reader.value();
    for (size_t i = 1; i < expected.size(); ++i) {
      ASSERT_TRUE(reader.Next()) << reader.status().ToString();
      // The previous record, read through slices captured before this
      // Next(), must still hold its original bytes.
      EXPECT_EQ(prev_key.ToString(), expected[i - 1].first)
          << "block_bytes=" << block_bytes << " i=" << i;
      EXPECT_EQ(prev_value.ToString(), expected[i - 1].second)
          << "block_bytes=" << block_bytes << " i=" << i;
      prev_key = reader.key();
      prev_value = reader.value();
    }
    EXPECT_FALSE(reader.Next());
    // End of stream counts as the one permitted advance: the final
    // record's slices survive it.
    EXPECT_EQ(prev_key.ToString(), expected.back().first);
    EXPECT_TRUE(reader.status().ok());
  }
}

TEST_F(FileRecordTest, RecordLargerThanBufferGrows) {
  // One record far larger than both the read hint and the block target
  // becomes one oversized block, decoded whole.
  const std::string big(10000, 'x');
  std::string path;
  const uint64_t length = WriteRun({{"big", big}}, &path, /*block_bytes=*/128);
  FileRecordReader reader(path, 0, length, /*buffer_size=*/128);
  ASSERT_TRUE(reader.Next()) << reader.status().ToString();
  EXPECT_EQ(reader.value().size(), big.size());
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(FileRecordTest, MissingFileReportsError) {
  FileRecordReader reader(dir_->File("nope.bin"), 0, 10);
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().IsIOError());
}

TEST_F(FileRecordTest, TruncatedSegmentReportsCorruption) {
  std::string path;
  const uint64_t length = WriteRun({{"abc", "defghi"}}, &path);
  // The extent claims more bytes than the file holds: the block decodes,
  // then the next block's header read hits EOF — truncation, not IOError.
  FileRecordReader reader(path, 0, length + 20);
  ASSERT_TRUE(reader.Next()) << reader.status().ToString();
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(FileRecordTest, ReadFailureReportsIOErrorNotCorruption) {
  // fopen() on a directory succeeds on Linux but every fread() fails with
  // EISDIR — a genuine I/O error, which must not be mislabeled as a
  // truncated ("corrupt") spill file.
  FileRecordReader reader(dir_->path().string(), 0, 10);
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
  EXPECT_FALSE(reader.status().IsCorruption());
}

}  // namespace
}  // namespace ngram::mr
