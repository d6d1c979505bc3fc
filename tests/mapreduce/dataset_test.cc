// RecordTable, the serialized job boundary: round trips, byte-balanced
// splitting, partition splicing, raw-vs-typed mapper equivalence, and a
// chained two-job pipeline spanning spills.
#include "mapreduce/dataset.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "encoding/varint.h"
#include "mapreduce/job.h"

namespace ngram::mr {
namespace {

// ------------------------------------------------------------ RecordTable --

std::vector<std::pair<std::string, std::string>> ReadAll(
    const RecordTable& table) {
  std::vector<std::pair<std::string, std::string>> rows;
  auto reader = table.NewReader();
  while (reader->Next()) {
    rows.emplace_back(reader->key().ToString(), reader->value().ToString());
  }
  EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();
  return rows;
}

TEST(RecordTableTest, AppendAndReadBackRoundTrip) {
  RecordTable table;
  EXPECT_TRUE(table.empty());
  table.Append("alpha", "1");
  table.Append("", "empty-key");
  table.Append("empty-value", "");
  table.Append("beta", std::string(100, 'x'));

  EXPECT_EQ(table.num_records(), 4u);
  EXPECT_GT(table.byte_size(), 0u);
  const auto rows = ReadAll(table);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (std::pair<std::string, std::string>("alpha", "1")));
  EXPECT_EQ(rows[1].second, "empty-key");
  EXPECT_EQ(rows[2].first, "empty-value");
  EXPECT_EQ(rows[3].second, std::string(100, 'x'));
}

TEST(RecordTableTest, ReaderRejectsWrappingFrameLengths) {
  // The crafted frame {klen 2^64-1, vlen 2, "x"} rides as a key; a view
  // starting past that record's own two length bytes makes the reader
  // parse it. 2^64-1 + 2 wraps to the one byte left.
  std::string frame;
  PutVarint64(&frame, ~uint64_t{0});
  PutVarint64(&frame, 2);
  frame.push_back('x');
  RecordTable table;
  table.Append(frame, "");
  RecordTable::View view = table.WholeView();
  view.begin_offset = 2;  // One length byte each for the key and value.
  view.bytes -= 2;
  auto reader = table.NewReader(view);
  EXPECT_FALSE(reader->Next());
  EXPECT_TRUE(reader->status().IsCorruption()) << reader->status().ToString();
}

TEST(RecordTableTest, TypedEncodeDecodeRoundTrip) {
  MemoryTable<std::string, uint64_t> typed;
  for (uint64_t i = 0; i < 1000; ++i) {
    typed.Add("key-" + std::to_string(i), i * i);
  }
  const RecordTable table = EncodeTable(typed);
  EXPECT_EQ(table.num_records(), typed.size());

  MemoryTable<std::string, uint64_t> decoded;
  ASSERT_TRUE(DecodeTable(table, &decoded).ok());
  EXPECT_EQ(decoded.rows, typed.rows);
}

TEST(RecordTableTest, SpansChunksAndPreservesOrder) {
  // Values large enough that the table must roll over several chunks.
  RecordTable table;
  const std::string big(200 * 1024, 'v');
  for (int i = 0; i < 20; ++i) {
    table.Append("k" + std::to_string(i), big);
  }
  EXPECT_GT(table.byte_size(), RecordTable::kChunkBytes);
  const auto rows = ReadAll(table);
  ASSERT_EQ(rows.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rows[i].first, "k" + std::to_string(i));
  }
}

TEST(RecordTableTest, AppendTableSplicesWholePartitions) {
  RecordTable a, b;
  a.Append("a1", "1");
  a.Append("a2", "2");
  b.Append("b1", "3");
  const uint64_t a_bytes = a.byte_size();
  const uint64_t b_bytes = b.byte_size();

  a.AppendTable(std::move(b));
  EXPECT_EQ(a.num_records(), 3u);
  EXPECT_EQ(a.byte_size(), a_bytes + b_bytes);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): documented.

  const auto rows = ReadAll(a);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "a1");
  EXPECT_EQ(rows[2].first, "b1");
}

TEST(RecordTableTest, SplitByBytesCoversEveryRecordExactlyOnce) {
  RecordTable table;
  // Mixed record sizes so byte balancing differs from row balancing.
  for (int i = 0; i < 500; ++i) {
    table.Append("key-" + std::to_string(i),
                 std::string(1 + (i % 97) * 7, 'p'));
  }
  for (uint32_t shards : {1u, 2u, 3u, 7u, 16u}) {
    const auto views = table.SplitByBytes(shards);
    ASSERT_EQ(views.size(), shards);
    std::vector<std::pair<std::string, std::string>> rows;
    uint64_t covered_bytes = 0;
    for (const auto& view : views) {
      covered_bytes += view.bytes;
      auto reader = table.NewReader(view);
      while (reader->Next()) {
        rows.emplace_back(reader->key().ToString(),
                          reader->value().ToString());
      }
      ASSERT_TRUE(reader->status().ok());
    }
    EXPECT_EQ(covered_bytes, table.byte_size()) << shards;
    EXPECT_EQ(rows, ReadAll(table)) << shards;
  }
}

TEST(RecordTableTest, SplitByBytesIsByteBalanced) {
  RecordTable table;
  const std::string payload(1000, 'q');
  for (int i = 0; i < 64; ++i) {
    table.Append("k", payload);
  }
  const auto views = table.SplitByBytes(4);
  ASSERT_EQ(views.size(), 4u);
  const uint64_t ideal = table.byte_size() / 4;
  for (const auto& view : views) {
    // Each shard within one record of the ideal byte share.
    EXPECT_NEAR(static_cast<double>(view.bytes),
                static_cast<double>(ideal), 1100.0);
  }
}

TEST(RecordTableTest, SplitEmptyTable) {
  RecordTable table;
  const auto views = table.SplitByBytes(4);
  ASSERT_EQ(views.size(), 4u);
  for (const auto& view : views) {
    EXPECT_TRUE(view.empty());
    auto reader = table.NewReader(view);
    EXPECT_FALSE(reader->Next());
  }
}

// --------------------------------------------- raw/typed map equivalence --

/// Typed word-count mapper.
class TypedWordMapper final
    : public Mapper<uint64_t, std::string, std::string, uint64_t> {
 public:
  Status Map(const uint64_t& id, const std::string& line,
             Context* ctx) override {
    size_t start = 0;
    while (start < line.size()) {
      size_t end = line.find(' ', start);
      if (end == std::string::npos) {
        end = line.size();
      }
      if (end > start) {
        NGRAM_RETURN_NOT_OK(ctx->Emit(line.substr(start, end - start), 1));
      }
      start = end + 1;
    }
    return Status::OK();
  }
};

/// The same mapper against the raw API: tokens are emitted as sub-slices
/// of the serialized input value (Serde<std::string> is the identity).
class RawWordMapper final : public RawMapper<std::string, uint64_t> {
 public:
  Status Map(Slice key, Slice value, Context* ctx) override {
    size_t start = 0;
    while (start < value.size()) {
      size_t end = start;
      while (end < value.size() && value[end] != ' ') {
        ++end;
      }
      if (end > start) {
        NGRAM_RETURN_NOT_OK(ctx->EmitEncodedKey(
            Slice(value.data() + start, end - start), 1));
      }
      start = end + 1;
    }
    return Status::OK();
  }
};

class RawCountReducer final : public RawReducer<std::string, uint64_t> {
 public:
  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    uint64_t total = 0;
    while (group->NextValue()) {
      uint64_t v = 0;
      if (!Serde<uint64_t>::Decode(group->value(), &v)) {
        return Status::Corruption("bad value");
      }
      total += v;
    }
    // Serde<uint64_t> wire form is a varint.
    char buf[kMaxVarint64Bytes];
    char* end = EncodeVarint64To(buf, total);
    return ctx->EmitRaw(group->key(),
                        Slice(buf, static_cast<size_t>(end - buf)));
  }
};

RecordTable WordInput() {
  MemoryTable<uint64_t, std::string> typed;
  typed.Add(1, "the quick brown fox");
  typed.Add(2, "the lazy dog");
  typed.Add(3, "fox and dog and fox");
  return EncodeTable(typed);
}

/// Serializes a table's framed contents for byte-identity comparison.
std::string Flatten(const RecordTable& table) {
  std::string out;
  auto reader = table.NewReader();
  while (reader->Next()) {
    AppendRecord(&out, reader->key(), reader->value());
  }
  return out;
}

TEST(RawMapperTest, RawAndTypedMappersProduceByteIdenticalOutput) {
  JobConfig config;
  config.num_reducers = 3;
  config.num_map_tasks = 2;
  const RecordTable input = WordInput();

  RecordTable typed_out;
  auto typed_metrics = RunJob<TypedWordMapper, RawCountReducer>(
      config, input, [] { return std::make_unique<TypedWordMapper>(); },
      [] { return std::make_unique<RawCountReducer>(); }, &typed_out);
  ASSERT_TRUE(typed_metrics.ok()) << typed_metrics.status().ToString();

  RecordTable raw_out;
  auto raw_metrics = RunJob<RawWordMapper, RawCountReducer>(
      config, input, [] { return std::make_unique<RawWordMapper>(); },
      [] { return std::make_unique<RawCountReducer>(); }, &raw_out);
  ASSERT_TRUE(raw_metrics.ok()) << raw_metrics.status().ToString();

  EXPECT_GT(raw_out.num_records(), 0u);
  EXPECT_EQ(Flatten(raw_out), Flatten(typed_out));
  // Both consumed the same serialized boundary bytes.
  EXPECT_EQ(raw_metrics->Counter(kMapInputBytes),
            typed_metrics->Counter(kMapInputBytes));
  EXPECT_EQ(raw_metrics->Counter(kMapInputBytes), input.byte_size());
}

// ------------------------------------------------- chained job pipeline --

/// Pass-through mapper over a serialized boundary (the chained-input
/// shape: no decode, no re-encode).
class IdentityRawMapper final : public RawMapper<std::string, uint64_t> {
 public:
  Status Map(Slice key, Slice value, Context* ctx) override {
    return ctx->EmitRaw(key, value);
  }
};

TEST(ChainedPipelineTest, TwoJobChainSpanningSpillsMatchesSingleJob) {
  // Job 1: word count with a tiny sort buffer (every record spills).
  JobConfig config1;
  config1.name = "chain-job1";
  config1.num_reducers = 3;
  config1.sort_buffer_bytes = 64;
  const RecordTable input = WordInput();
  RecordTable stage;
  auto m1 = RunJob<TypedWordMapper, RawCountReducer>(
      config1, input, [] { return std::make_unique<TypedWordMapper>(); },
      [] { return std::make_unique<RawCountReducer>(); }, &stage);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  ASSERT_GT(m1->Counter(kSpillFiles), 0u);

  // Job 2: identity re-shuffle of the serialized stage, also spilling.
  JobConfig config2;
  config2.name = "chain-job2";
  config2.num_reducers = 2;
  config2.sort_buffer_bytes = 64;
  MemoryTable<std::string, uint64_t> final_out;
  auto m2 = RunJob<IdentityRawMapper, RawCountReducer>(
      config2, stage, [] { return std::make_unique<IdentityRawMapper>(); },
      [] { return std::make_unique<RawCountReducer>(); }, &final_out);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString();

  // The boundary fed job 2 exactly job 1's output bytes.
  EXPECT_EQ(m2->Counter(kMapInputBytes), stage.byte_size());
  EXPECT_EQ(m2->Counter(kMapInputRecords), stage.num_records());

  std::map<std::string, uint64_t> counts;
  for (const auto& [word, count] : final_out.rows) {
    counts[word] = count;
  }
  const std::map<std::string, uint64_t> expected = {
      {"the", 2}, {"quick", 1}, {"brown", 1}, {"fox", 3},
      {"lazy", 1}, {"dog", 2},  {"and", 2}};
  EXPECT_EQ(counts, expected);
}

TEST(ChainedPipelineTest, ChainedOutputInvariantToMapTaskSplit) {
  // Byte-size map splitting must not change the chained result.
  const RecordTable input = WordInput();
  std::string reference;
  for (uint32_t tasks : {1u, 2u, 3u, 8u}) {
    JobConfig config;
    config.num_map_tasks = tasks;
    config.num_reducers = 2;
    RecordTable out;
    auto metrics = RunJob<TypedWordMapper, RawCountReducer>(
        config, input, [] { return std::make_unique<TypedWordMapper>(); },
        [] { return std::make_unique<RawCountReducer>(); }, &out);
    ASSERT_TRUE(metrics.ok());
    const std::string flat = Flatten(out);
    if (reference.empty()) {
      reference = flat;
    } else {
      EXPECT_EQ(flat, reference) << tasks << " map tasks";
    }
  }
}

}  // namespace
}  // namespace ngram::mr
