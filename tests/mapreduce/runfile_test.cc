// Block-structured run format (runfile.h): round-trips over adversarial
// key/value mixes, byte identity with a plain reference codec across the
// fast paths' edges, front-coding compression wins on sorted runs, segment
// boundaries, the one-record lookback contract across blocks, and the
// corruption-handling contract — a flipped bit fails with Corruption
// naming the block offset, truncation is Corruption, a failing read is
// IOError.
#include "mapreduce/runfile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

// Reference codec: the format's plain algorithms — byte-at-a-time shared
// prefixes and string appends to encode, varint headers and one copy per
// field to decode. The writer's cursor and the decoder's fast paths must
// reproduce their bytes exactly.

/// Block payloads for `records` written as one segment: entries closed
/// into a block once its entries reach `block_bytes`, each block ending
/// in its restart array.
std::vector<std::string> ReferenceEncode(const KvList& records,
                                         size_t block_bytes,
                                         uint32_t restart_interval) {
  std::vector<std::string> blocks;
  std::string block;
  std::vector<uint32_t> restarts;
  std::string last_key;
  uint32_t counter = restart_interval;  // First entry restarts.
  const auto finish = [&] {
    if (restarts.empty()) {
      return;  // No entries: every block's first entry is a restart.
    }
    for (const uint32_t restart : restarts) {
      PutFixed32(&block, restart);
    }
    PutFixed32(&block, static_cast<uint32_t>(restarts.size()));
    blocks.push_back(block);
    block.clear();
    restarts.clear();
    last_key.clear();
    counter = restart_interval;
  };
  for (const auto& [key, value] : records) {
    size_t shared = 0;
    if (counter < restart_interval) {
      while (shared < key.size() && shared < last_key.size() &&
             key[shared] == last_key[shared]) {
        ++shared;
      }
    } else {
      restarts.push_back(static_cast<uint32_t>(block.size()));
      counter = 0;
    }
    const size_t non_shared = key.size() - shared;
    const size_t shared_nib = std::min<size_t>(shared, 15);
    const size_t non_shared_nib = std::min<size_t>(non_shared, 15);
    block.push_back(static_cast<char>(shared_nib << 4 | non_shared_nib));
    if (shared_nib == 15) {
      PutVarint64(&block, shared);
    }
    if (non_shared_nib == 15) {
      PutVarint64(&block, non_shared);
    }
    PutVarint64(&block, value.size());
    block.append(key, shared, non_shared);
    block += value;
    last_key = key;
    ++counter;
    if (block.size() >= block_bytes) {
      finish();
    }
  }
  finish();
  return blocks;
}

/// Frames of a well-formed block payload and, when `indexed`, the restart
/// trailer DecodeBlockAtIndexed appends: [fixed32 frame offset of each
/// restart entry][fixed32 count].
std::string ReferenceDecode(const std::string& payload, bool indexed) {
  const uint32_t num_restarts =
      DecodeFixed32(payload.data() + payload.size() - 4);
  const size_t entries_end = payload.size() - 4 * (num_restarts + 1ull);
  std::string frames;
  std::string last_key;
  std::vector<uint32_t> anchors;
  Slice in(payload.data(), entries_end);
  while (!in.empty()) {
    const auto entry = static_cast<uint32_t>(in.data() - payload.data());
    if (anchors.size() < num_restarts &&
        DecodeFixed32(payload.data() + entries_end + 4 * anchors.size()) ==
            entry) {
      anchors.push_back(static_cast<uint32_t>(frames.size()));
    }
    const uint8_t tag = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    uint64_t shared = tag >> 4;
    uint64_t non_shared = tag & 0x0f;
    uint64_t vlen = 0;
    if (shared == 15) {
      EXPECT_TRUE(GetVarint64(&in, &shared));
    }
    if (non_shared == 15) {
      EXPECT_TRUE(GetVarint64(&in, &non_shared));
    }
    EXPECT_TRUE(GetVarint64(&in, &vlen));
    std::string key = last_key.substr(0, static_cast<size_t>(shared));
    key.append(in.data(), static_cast<size_t>(non_shared));
    in.RemovePrefix(static_cast<size_t>(non_shared));
    PutVarint64(&frames, key.size());
    PutVarint64(&frames, vlen);
    frames += key;
    frames.append(in.data(), static_cast<size_t>(vlen));
    in.RemovePrefix(static_cast<size_t>(vlen));
    last_key = std::move(key);
  }
  if (indexed) {
    EXPECT_EQ(anchors.size(), num_restarts);
    for (const uint32_t anchor : anchors) {
      PutFixed32(&frames, anchor);
    }
    PutFixed32(&frames, num_restarts);
  }
  return frames;
}

/// An exact-size heap copy of `bytes`: a decoder reading past its end is
/// an ASan report, which a std::string's spare capacity could hide.
std::unique_ptr<char[]> ExactCopy(Slice bytes) {
  std::unique_ptr<char[]> copy(new char[bytes.size()]);
  memcpy(copy.get(), bytes.data(), bytes.size());
  return copy;
}

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
  /// DecodeBlockAtIndexed, expecting `records` in order, and checks
  /// through ParseBlockView that restart j of every block points at the
  /// frame of the block's (j * restart_interval)-th record — a frame
  /// holding that restart entry's key. Returns how many blocks decoded to
  /// more than twice their stored size — past the decoder's initial
  /// buffer estimate, so each of them ran its growth path.
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
      std::string indexed;  // Fresh per block: growth must reallocate.
      uint64_t next_offset = 0;
      Status st = DecodeBlockAtIndexed(Slice(file), offset, path, &indexed,
                                       &next_offset);
      BlockView view;
      if (st.ok()) {
        st = ParseBlockView(indexed, path, &view);
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) {
        return expanded_blocks;
      }
      if (view.frames.size() > 2 * (next_offset - offset)) {
        ++expanded_blocks;
      }
      std::vector<uint32_t> frame_offsets;
      Slice in(view.frames);
      while (!in.empty()) {
        frame_offsets.push_back(
            static_cast<uint32_t>(in.data() - view.frames.data()));
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
      EXPECT_EQ(view.num_restarts,
                (frame_offsets.size() + restart_interval - 1) /
                    restart_interval);
      for (uint32_t j = 0; j < view.num_restarts; ++j) {
        const size_t entry = j * restart_interval;
        EXPECT_LT(entry, frame_offsets.size());
        if (entry >= frame_offsets.size()) {
          break;
        }
        // The loop above checked that this frame holds the block's
        // entry-th record, so the restart lands on its key.
        EXPECT_EQ(view.restart(j), frame_offsets[entry])
            << "restart " << j << " of block at offset " << offset;
      }
      offset = next_offset;
    }
    EXPECT_EQ(next_record, records.size());
    return expanded_blocks;
  }

  /// Writes `records` as one run and checks it block by block against the
  /// reference codec: each payload equals ReferenceEncode's, and
  /// DecodeBlockPayload (into a reused buffer, as FileRecordReader does)
  /// and DecodeBlockAtIndexed (into a fresh one, as a serving miss does)
  /// return ReferenceDecode's bytes, each reading an exact-size heap copy
  /// of its input. Returns how many blocks decoded to more than twice
  /// their payload, so ran the decoder's growth path.
  size_t ExpectMatchesReferenceCodec(const std::string& name,
                                     const KvList& records,
                                     const RunWriterOptions& options) {
    const std::string path = Path(name);
    WriteBlockRun(path, records, options);
    std::string file;
    {
      std::ifstream in(path, std::ios::binary);
      file.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::vector<std::string> want = ReferenceEncode(
        records, options.block_bytes, options.restart_interval);
    size_t grown = 0;
    size_t block = 0;
    std::string framed;  // Reused across blocks.
    Slice rest(file);
    while (!rest.empty()) {
      SCOPED_TRACE(name + " block " + std::to_string(block));
      const char* const block_start = rest.data();
      uint64_t payload_len = 0;
      if (!GetVarint64(&rest, &payload_len) || payload_len + 4 > rest.size()) {
        ADD_FAILURE() << "malformed block framing";
        return grown;
      }
      const Slice payload(rest.data(), static_cast<size_t>(payload_len));
      rest.RemovePrefix(static_cast<size_t>(payload_len) + 4);
      EXPECT_EQ(DecodeFixed32(payload.data() + payload.size()),
                Crc32(0, payload.data(), payload.size()));
      if (block >= want.size()) {
        ADD_FAILURE() << "more blocks than the reference encoder wrote";
        return grown;
      }
      EXPECT_EQ(payload, Slice(want[block]));

      const auto payload_copy = ExactCopy(payload);
      Status st = DecodeBlockPayload(Slice(payload_copy.get(), payload.size()),
                                     0, path, &framed);
      EXPECT_TRUE(st.ok()) << st.ToString();
      const std::string frames = ReferenceDecode(want[block], false);
      EXPECT_EQ(framed, frames);
      if (frames.size() > 2 * payload.size()) {
        ++grown;
      }

      const size_t block_len = static_cast<size_t>(rest.data() - block_start);
      const auto block_copy = ExactCopy(Slice(block_start, block_len));
      std::string indexed;
      uint64_t next_offset = 0;
      st = DecodeBlockAtIndexed(Slice(block_copy.get(), block_len), 0, path,
                                &indexed, &next_offset);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(next_offset, block_len);
      EXPECT_EQ(indexed, ReferenceDecode(want[block], true));
      ++block;
    }
    EXPECT_EQ(block, want.size());
    return grown;
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

TEST_F(RunFileTest, MatchesReferenceCodecAcrossFastPathEdges) {
  // The writer's payloads and the decoder's frames equal the reference
  // codec's byte for byte on entries straddling every fast-path edge:
  // the tag nibbles' 15 escape, the one-byte vlen, the two-byte frame
  // header (klen and vlen 127 vs 128), the 16-byte moves (fields of 16
  // vs 17 bytes, and the last entries of a one-restart block, which end
  // fewer than 16 bytes before the payload end), and buffer growth.
  std::mt19937 rng(20240917);
  std::uniform_int_distribution<int> lower('a', 'z');
  std::uniform_int_distribution<int> upper('A', 'Z');
  const auto random_string = [&](size_t len) {
    std::string out(len, '\0');
    for (char& c : out) c = static_cast<char>(lower(rng));
    return out;
  };

  // shared, non_shared and vlen each in {0, 14, 15, 16, 17, 200}: every
  // target entry follows a 220-byte base key and shares exactly `shared`
  // bytes with it (its suffix starts with an upper-case byte, the base is
  // lower-case). No restarts inside a block, so nothing resets `shared`.
  const size_t lengths[] = {0, 14, 15, 16, 17, 200};
  KvList fields;
  for (const size_t shared : lengths) {
    for (const size_t non_shared : lengths) {
      for (const size_t vlen : lengths) {
        const std::string base = random_string(220);
        std::string key = base.substr(0, shared);
        for (size_t i = 0; i < non_shared; ++i) {
          key.push_back(static_cast<char>(upper(rng)));
        }
        fields.emplace_back(base, random_string(3));
        fields.emplace_back(std::move(key), random_string(vlen));
      }
    }
  }
  // klen and vlen around the one-byte varint limit, with and without a
  // shared prefix.
  KvList header_edges;
  for (const size_t klen : {126, 127, 128, 129}) {
    for (const size_t vlen : {126, 127, 128, 129}) {
      header_edges.emplace_back(random_string(klen), random_string(vlen));
      std::string key = header_edges.back().first.substr(0, 20);
      key += random_string(klen - 20);
      header_edges.emplace_back(std::move(key), random_string(vlen));
    }
  }
  // One-restart blocks of short entries: the restart array leaves only 8
  // bytes after the last entry.
  const KvList short_tail = {{"a", "1"}, {"ab", "2"}, {"abc", "3"}};
  // Keys sharing 1 KiB prefixes decode to many times their payload.
  KvList long_prefixes;
  for (int i = 0; i < 40; ++i) {
    long_prefixes.emplace_back(std::string(1024, 'p') + std::to_string(i),
                               std::to_string(i));
  }

  RunWriterOptions no_restarts;
  no_restarts.restart_interval = 1u << 30;
  RunWriterOptions small_blocks;
  small_blocks.block_bytes = 512;
  small_blocks.restart_interval = 3;
  RunWriterOptions every_entry;
  every_entry.restart_interval = 1;
  RunWriterOptions tiny_blocks;
  tiny_blocks.block_bytes = 8;
  RunWriterOptions few_restarts;
  few_restarts.restart_interval = 3;

  ExpectMatchesReferenceCodec("fields", fields, no_restarts);
  ExpectMatchesReferenceCodec("fields-small", fields, small_blocks);
  ExpectMatchesReferenceCodec("header-edges", header_edges, {});
  ExpectMatchesReferenceCodec("header-edges-restarts", header_edges,
                              every_entry);
  ExpectMatchesReferenceCodec("short-tail", short_tail, {});
  ExpectMatchesReferenceCodec("short-tail-tiny", short_tail, tiny_blocks);
  EXPECT_GT(ExpectMatchesReferenceCodec("long-prefixes", long_prefixes, {}),
            0u);
  EXPECT_GT(ExpectMatchesReferenceCodec("long-prefixes-restarts",
                                        long_prefixes, few_restarts),
            0u);
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
