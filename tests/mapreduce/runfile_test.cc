// Block-structured run format (runfile.h): round-trips over adversarial
// key/value mixes, front-coding compression wins on sorted runs, segment
// boundaries, the one-record lookback contract across blocks, and the
// corruption-handling contract — a flipped bit fails with Corruption
// naming the block offset, truncation is Corruption, a failing read is
// IOError.
#include "mapreduce/runfile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "encoding/varint.h"
#include "mapreduce/record.h"
#include "util/crc32.h"
#include "util/temp_dir.h"

namespace ngram::mr {
namespace {

using KvList = std::vector<std::pair<std::string, std::string>>;

class RunFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("runfile-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }

  std::string Path(const std::string& name) {
    return dir_->path().string() + "/" + name;
  }

  /// Writes `records` as one block-format run; returns its byte length.
  uint64_t WriteBlockRun(const std::string& path, const KvList& records,
                         const RunWriterOptions& options = {}) {
    RunWriter writer(path, options);
    EXPECT_TRUE(writer.Open().ok());
    for (const auto& [k, v] : records) {
      EXPECT_TRUE(writer.Append(k, v).ok());
    }
    EXPECT_TRUE(writer.Close().ok());
    EXPECT_EQ(writer.records_written(), records.size());
    return writer.bytes_written();
  }

  /// Reads a block-format extent back into a vector.
  KvList ReadBlockRun(const std::string& path, uint64_t offset,
                      uint64_t length, Status* status = nullptr) {
    KvList out;
    FileRecordReader reader(path, offset, length);
    while (reader.Next()) {
      out.emplace_back(reader.key().ToString(), reader.value().ToString());
    }
    if (status != nullptr) {
      *status = reader.status();
    } else {
      EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
    }
    return out;
  }

  /// Decodes a whole block-format file block by block with
  /// DecodeBlockAtIndexed, expecting `records` in order, and checks that
  /// restart j of every block points at the frame of the block's
  /// (j * restart_interval)-th record — a frame holding that restart
  /// entry's key. Returns how many blocks decoded to more than twice
  /// their stored size — past the decoder's initial buffer estimate, so
  /// each of them ran its growth path.
  size_t ExpectIndexedDecode(const std::string& path, const KvList& records,
                             uint32_t restart_interval) {
    std::string file;
    {
      std::ifstream in(path, std::ios::binary);
      file.assign(std::istreambuf_iterator<char>(in), {});
    }
    size_t expanded_blocks = 0;
    size_t next_record = 0;
    uint64_t offset = 0;
    while (offset < file.size()) {
      std::string framed;  // Fresh per block: growth must reallocate.
      std::vector<uint32_t> restarts;
      uint64_t next_offset = 0;
      const Status st = DecodeBlockAtIndexed(Slice(file), offset, path,
                                             &framed, &restarts, &next_offset);
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) {
        return expanded_blocks;
      }
      if (framed.size() > 2 * (next_offset - offset)) {
        ++expanded_blocks;
      }
      std::vector<uint32_t> frame_offsets;
      Slice in(framed);
      while (!in.empty()) {
        frame_offsets.push_back(
            static_cast<uint32_t>(in.data() - framed.data()));
        uint64_t klen = 0;
        uint64_t vlen = 0;
        EXPECT_TRUE(GetVarint64(&in, &klen) && GetVarint64(&in, &vlen) &&
                    klen + vlen <= in.size())
            << "malformed frame in block at offset " << offset;
        EXPECT_LT(next_record, records.size());
        if (HasFailure() || next_record >= records.size()) {
          return expanded_blocks;
        }
        EXPECT_EQ(Slice(in.data(), klen), Slice(records[next_record].first));
        EXPECT_EQ(Slice(in.data() + klen, vlen),
                  Slice(records[next_record].second));
        in.RemovePrefix(static_cast<size_t>(klen + vlen));
        ++next_record;
      }
      EXPECT_EQ(restarts.size(),
                (frame_offsets.size() + restart_interval - 1) /
                    restart_interval);
      for (size_t j = 0; j < restarts.size(); ++j) {
        const size_t entry = j * restart_interval;
        EXPECT_LT(entry, frame_offsets.size());
        if (entry >= frame_offsets.size()) {
          break;
        }
        // The loop above checked that this frame holds the block's
        // entry-th record, so the restart lands on its key.
        EXPECT_EQ(restarts[j], frame_offsets[entry])
            << "restart " << j << " of block at offset " << offset;
      }
      offset = next_offset;
    }
    EXPECT_EQ(next_record, records.size());
    return expanded_blocks;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(RunFileTest, RoundTripsIncludingEmptyKeysAndValues) {
  const KvList records = {
      {"apple", "1"}, {"apple", ""},     {"applet", "22"},
      {"", "empty"},  {"banana", "333"}, {"", ""},
  };
  const std::string path = Path("basic");
  const uint64_t length = WriteBlockRun(path, records);
  EXPECT_EQ(ReadBlockRun(path, 0, length), records);
}

TEST_F(RunFileTest, FrontCodingShrinksSortedRuns) {
  // Sorted keys with long shared prefixes — the shape every spill run has
  // — must compress; the raw-equivalent byte count is tracked alongside.
  KvList records;
  for (int i = 0; i < 2000; ++i) {
    char key[64];
    snprintf(key, sizeof(key), "user/profile/%08d/field", i);
    records.emplace_back(key, "v");
  }
  const std::string path = Path("sorted");
  RunWriter writer(path, RunWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  for (const auto& [k, v] : records) {
    ASSERT_TRUE(writer.Append(k, v).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_LT(writer.bytes_written(), writer.raw_bytes());
  EXPECT_EQ(ReadBlockRun(path, 0, writer.bytes_written()), records);
}

TEST_F(RunFileTest, SegmentExtentsAreIndependentlyReadable) {
  // FinishSegment() closes the current block, so each segment's byte
  // extent starts and ends on block boundaries and reads back alone —
  // the invariant partition-segmented run files rely on.
  const std::string path = Path("segments");
  RunWriter writer(path, RunWriterOptions{});
  ASSERT_TRUE(writer.Open().ok());
  struct Extent {
    uint64_t offset;
    uint64_t length;
    KvList records;
  };
  std::vector<Extent> extents;
  for (int seg = 0; seg < 3; ++seg) {
    Extent extent;
    extent.offset = writer.bytes_written();
    for (int i = 0; i < 50; ++i) {
      const std::string key =
          "seg" + std::to_string(seg) + "-key" + std::to_string(i);
      const std::string value = "v" + std::to_string(i);
      extent.records.emplace_back(key, value);
      ASSERT_TRUE(writer.Append(key, value).ok());
    }
    ASSERT_TRUE(writer.FinishSegment().ok());
    extent.length = writer.bytes_written() - extent.offset;
    extents.push_back(std::move(extent));
  }
  ASSERT_TRUE(writer.Close().ok());
  for (const Extent& extent : extents) {
    EXPECT_EQ(ReadBlockRun(path, extent.offset, extent.length),
              extent.records);
  }
}

TEST_F(RunFileTest, FuzzRoundTripAcrossLengthMixesAndBlockSizes) {
  // Random key/value length mixes — empty through records several times
  // the block size — across small blocks and degenerate restart
  // intervals; plus sorted keys that share a 1 KiB prefix, whose
  // multi-key blocks decode to many times their stored size and so run
  // the decoder's buffer-growth path. Every run is read back through
  // FileRecordReader and block by block through DecodeBlockAtIndexed.
  // Deterministic seed per configuration.
  for (const size_t block_bytes : {64ul, 512ul, 16384ul}) {
    for (const uint32_t restart_interval : {1u, 3u, 16u}) {
      std::mt19937 rng(block_bytes * 131 + restart_interval);
      std::uniform_int_distribution<int> key_len(0, 120);
      std::uniform_int_distribution<int> suffix_len(0, 8);
      std::uniform_int_distribution<int> value_len(0, 64);
      std::uniform_int_distribution<int> chars('a', 'z');
      const auto random_string = [&](size_t len) {
        std::string s(len, '\0');
        for (char& c : s) c = static_cast<char>(chars(rng));
        return s;
      };
      KvList records;
      KvList shared_prefix;
      for (int i = 0; i < 400; ++i) {
        std::string value = random_string(value_len(rng));
        if (i % 37 == 0) {
          value.assign(block_bytes * 3, 'X');  // Larger than one block.
        }
        records.emplace_back(random_string(key_len(rng)), std::move(value));
        shared_prefix.emplace_back(
            std::string(1024, 'p') + random_string(suffix_len(rng)),
            random_string(value_len(rng)));
      }
      std::sort(shared_prefix.begin(), shared_prefix.end());
      for (const KvList* mix : {&records, &shared_prefix}) {
        const std::string path =
            Path("fuzz-" + std::to_string(block_bytes) + "-" +
                 std::to_string(restart_interval) +
                 (mix == &records ? "-random" : "-shared"));
        RunWriterOptions options;
        options.block_bytes = block_bytes;
        options.restart_interval = restart_interval;
        const uint64_t length = WriteBlockRun(path, *mix, options);
        EXPECT_EQ(ReadBlockRun(path, 0, length), *mix)
            << path << " block_bytes=" << block_bytes
            << " restart_interval=" << restart_interval;
        const size_t expanded =
            ExpectIndexedDecode(path, *mix, restart_interval);
        if (mix == &shared_prefix && block_bytes > 1024 &&
            restart_interval > 1) {
          // Blocks of several 1 KiB-prefix keys expand several times
          // over, so the growth path must have run.
          EXPECT_GT(expanded, 0u) << path;
        }
      }
    }
  }
}

TEST_F(RunFileTest, LookbackContractHoldsAcrossBlockBoundaries) {
  // The record surfaced by the previous Next() must stay valid across one
  // further Next() — including when that advance crosses into a new block
  // (tiny blocks force a boundary at nearly every record).
  KvList records;
  for (int i = 0; i < 300; ++i) {
    records.emplace_back("key-" + std::to_string(1000 + i),
                         "value-" + std::to_string(i));
  }
  const std::string path = Path("lookback");
  RunWriterOptions options;
  options.block_bytes = 32;  // ~1 record per block.
  const uint64_t length = WriteBlockRun(path, records, options);

  FileRecordReader reader(path, 0, length);
  ASSERT_TRUE(reader.Next());
  Slice prev_key = reader.key();
  Slice prev_value = reader.value();
  std::string expect_key = records[0].first;
  std::string expect_value = records[0].second;
  size_t i = 1;
  while (reader.Next()) {
    // One advance later, the previous slices must still hold their bytes.
    EXPECT_EQ(prev_key.ToString(), expect_key);
    EXPECT_EQ(prev_value.ToString(), expect_value);
    prev_key = reader.key();
    prev_value = reader.value();
    ASSERT_LT(i, records.size());
    expect_key = records[i].first;
    expect_value = records[i].second;
    ++i;
  }
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(prev_key.ToString(), expect_key);
}

TEST_F(RunFileTest, BitFlipFailsWithCorruptionNamingTheBlockOffset) {
  KvList records;
  for (int i = 0; i < 500; ++i) {
    records.emplace_back("key-" + std::to_string(i), "value");
  }
  const std::string path = Path("flip");
  RunWriterOptions options;
  options.block_bytes = 256;  // Several blocks.
  const uint64_t length = WriteBlockRun(path, records, options);
  ASSERT_GT(length, 1000u);

  // Flip one byte somewhere in the middle of the file.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(length / 2));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(length / 2));
    file.put(static_cast<char>(byte ^ 0x40));
  }
  Status status;
  ReadBlockRun(path, 0, length, &status);
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("offset"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find(path), std::string::npos)
      << status.ToString();
}

TEST_F(RunFileTest, EverySingleBitFlipIsCorruption) {
  // The integrity guarantee of the one at-rest format: flipping any single
  // bit of a run file — block length varint, payload, or CRC trailer —
  // makes reading the segment that holds it fail with Corruption, never
  // return records (silently wrong or not) and never report IOError. The
  // other segment still reads back intact. Small blocks and restart
  // intervals put every kind of byte into the file many times over.
  std::vector<KvList> segments(2);
  for (int i = 0; i < 80; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key-%03d", i);
    segments[i / 40].emplace_back(key, "value-" + std::to_string(i));
  }
  const std::string path = Path("every-bit");
  RunWriterOptions options;
  options.block_bytes = 96;
  options.restart_interval = 4;
  RunWriter writer(path, options);
  ASSERT_TRUE(writer.Open().ok());
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // offset, length
  for (const KvList& records : segments) {
    const uint64_t offset = writer.bytes_written();
    for (const auto& [k, v] : records) {
      ASSERT_TRUE(writer.Append(k, v).ok());
    }
    ASSERT_TRUE(writer.FinishSegment().ok());
    extents.emplace_back(offset, writer.bytes_written() - offset);
  }
  ASSERT_TRUE(writer.Close().ok());
  const uint64_t file_size = writer.bytes_written();
  ASSERT_EQ(extents[1].first + extents[1].second, file_size);
  for (size_t seg = 0; seg < segments.size(); ++seg) {
    ASSERT_EQ(ReadBlockRun(path, extents[seg].first, extents[seg].second),
              segments[seg]);
  }

  // Flip in place — seek, write one byte, restore — instead of rewriting
  // the file per flip.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  uint64_t flips = 0;
  for (uint64_t pos = 0; pos < file_size; ++pos) {
    const size_t hit = pos < extents[1].first ? 0 : 1;
    file.seekg(static_cast<std::streamoff>(pos));
    char original = 0;
    ASSERT_TRUE(file.get(original));
    for (int bit = 0; bit < 8; ++bit) {
      file.seekp(static_cast<std::streamoff>(pos));
      file.put(static_cast<char>(original ^ (1 << bit)));
      file.flush();
      for (size_t seg = 0; seg < segments.size(); ++seg) {
        Status status;
        const KvList got =
            ReadBlockRun(path, extents[seg].first, extents[seg].second,
                         &status);
        if (seg == hit) {
          ASSERT_TRUE(status.IsCorruption())
              << "byte " << pos << " bit " << bit << ": "
              << status.ToString();
        } else {
          ASSERT_TRUE(status.ok()) << status.ToString();
          ASSERT_EQ(got, segments[seg]);
        }
      }
      ++flips;
    }
    file.seekp(static_cast<std::streamoff>(pos));
    file.put(original);
    file.flush();
  }
  EXPECT_EQ(flips, 8 * file_size);
}

TEST_F(RunFileTest, TruncatedFinalBlockIsCorruptionNotIOError) {
  KvList records;
  for (int i = 0; i < 200; ++i) {
    records.emplace_back("key-" + std::to_string(i), "value");
  }
  const std::string path = Path("trunc");
  const uint64_t length = WriteBlockRun(path, records);
  // A reader whose extent claims more bytes than the file holds hits a
  // genuine EOF mid-block: that is truncation (Corruption), not a read
  // failure (IOError).
  Status status;
  ReadBlockRun(path, 0, length + 100, &status);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();

  // Same when the file itself was cut short under an honest extent.
  std::error_code ec;
  std::filesystem::resize_file(path, length - 3, ec);
  ASSERT_FALSE(ec);
  ReadBlockRun(path, 0, length, &status);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(RunFileTest, HugeBlockLengthVarintIsCorruptionNotCrash) {
  // A block-length varint decoding to ~2^64 (possible from corruption or
  // a crafted file — it is read before any CRC check) must fail with
  // Corruption; a naive `payload_len + 4 > remaining` bound would wrap
  // and feed the length to a giant allocation instead.
  const std::string path = Path("huge-len");
  {
    std::ofstream out(path, std::ios::binary);
    for (int i = 0; i < 9; ++i) {
      out.put(static_cast<char>(0xff));
    }
    out.put(0x01);  // Varint terminator: value ~2^63.
    out << "trailing-bytes-so-the-extent-is-nonempty";
  }
  Status status;
  ReadBlockRun(path, 0, std::filesystem::file_size(path), &status);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(RunFileTest, CrcValidEntrylessBlockIsCorruption) {
  // The writer never emits an entry-less block; a crafted CRC-valid
  // payload holding only a restart array must be rejected — accepting it
  // would let the reader decode two blocks in one Next() and recycle the
  // scratch buffer still backing the previous record (lookback breach).
  std::string payload;
  PutFixed32(&payload, 0);  // restart[0]
  PutFixed32(&payload, 0);  // restart[1]
  PutFixed32(&payload, 2);  // num_restarts
  std::string file;
  PutVarint64(&file, payload.size());
  file += payload;
  PutFixed32(&file, Crc32(0, payload.data(), payload.size()));
  const std::string path = Path("entryless");
  {
    std::ofstream out(path, std::ios::binary);
    out << file;
  }
  Status status;
  ReadBlockRun(path, 0, file.size(), &status);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("no entries"), std::string::npos)
      << status.ToString();
}

TEST_F(RunFileTest, FailingReadIsIOErrorNotCorruption) {
  // fopen() on a directory succeeds on Linux but every fread() fails with
  // EISDIR — a genuine I/O error, which must not be mislabeled as
  // truncation/corruption in block mode either.
  Status status;
  FileRecordReader reader(dir_->path().string(), 0, 4096);
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
}

}  // namespace
}  // namespace ngram::mr
