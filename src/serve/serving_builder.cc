#include "serve/serving_builder.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "serve/manifest.h"
#include "util/macros.h"

namespace ngram::serve {

namespace {

std::string ShardFileName(uint32_t shard) {
  char buf[32];
  snprintf(buf, sizeof(buf), "shard-%05u.run", shard);
  return buf;
}

}  // namespace

Status BuildServingShards(const NgramStatistics& stats,
                          const std::string& dir,
                          const BuildServingOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.block_bytes == 0) {
    return Status::InvalidArgument("block_bytes must be >= 1");
  }
  mr::IoEnv* env = mr::ResolveEnv(options.env);

  // Encode every entry and sort bytewise — the serving key order (see
  // manifest.h for why byte order is the right order here).
  struct Row {
    std::string key;
    uint64_t count;
  };
  std::vector<Row> rows;
  rows.reserve(stats.entries.size());
  Manifest manifest;
  manifest.block_bytes = options.block_bytes;
  uint64_t total_bytes = 0;
  for (const auto& [seq, cf] : stats.entries) {
    Row row;
    SequenceCodec::Encode(seq, &row.key);
    row.count = cf;
    total_bytes += row.key.size() + kMaxVarint64Bytes;
    if (seq.size() == 1) {
      manifest.total_unigrams += cf;
    }
    manifest.max_order =
        std::max(manifest.max_order, static_cast<uint32_t>(seq.size()));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  manifest.total_records = rows.size();

  // Remove the previous manifest first, then stale shard files: a build
  // that crashes mid-way leaves a directory with no MANIFEST (Open fails
  // cleanly) rather than one whose old manifest names deleted or
  // half-rewritten shards.
  NGRAM_RETURN_NOT_OK(
      env->Unlink(dir + "/" + kManifestFileName));
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0) {
        NGRAM_RETURN_NOT_OK(env->Unlink(entry.path().string()));
      }
    }
  }

  // Contiguous shard ranges balanced by encoded bytes, each non-empty.
  const uint32_t num_shards = static_cast<uint32_t>(std::min<uint64_t>(
      options.num_shards, rows.size()));
  size_t next_row = 0;
  uint64_t consumed_bytes = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    // Cut when this shard's share of the byte total is reached, but leave
    // at least one row for every shard still to come.
    const uint64_t target =
        total_bytes * (s + 1) / num_shards;  // Cumulative target.
    const size_t min_remaining = num_shards - s - 1;
    const size_t first_row = next_row;
    std::string value;

    ShardEntry shard;
    shard.file_name = ShardFileName(s);
    const std::string path = dir + "/" + shard.file_name;
    mr::RunWriterOptions writer_options;
    // Block boundaries are driven from here (so their extents can be
    // recorded); disable the writer's own size trigger.
    writer_options.block_bytes = std::numeric_limits<size_t>::max();
    writer_options.restart_interval = options.restart_interval;
    writer_options.env = options.env;
    mr::RunWriter writer(path, writer_options);
    Status st = writer.Open();

    uint64_t block_start = 0;
    size_t block_payload = 0;  // Raw-size estimate of the open block.
    std::string block_first_key;
    auto finish_block = [&]() {
      if (block_payload == 0) {
        return Status::OK();
      }
      Status fs = writer.FinishSegment();
      if (!fs.ok()) {
        return fs;
      }
      BlockEntry block;
      block.first_key = block_first_key;
      block.offset = block_start;
      block.length = writer.bytes_written() - block_start;
      shard.blocks.push_back(std::move(block));
      block_start = writer.bytes_written();
      block_payload = 0;
      return Status::OK();
    };

    while (st.ok() && next_row < rows.size() &&
           (next_row == first_row ||
            rows.size() - next_row > min_remaining) &&
           (next_row == first_row || consumed_bytes < target ||
            s + 1 == num_shards)) {
      const Row& row = rows[next_row];
      if (block_payload == 0) {
        block_first_key = row.key;
      }
      value.clear();
      PutVarint64(&value, row.count);
      st = writer.Append(row.key, value);
      if (!st.ok()) {
        break;
      }
      consumed_bytes += row.key.size() + kMaxVarint64Bytes;
      block_payload += row.key.size() + value.size() + 2;
      ++next_row;
      if (block_payload >= options.block_bytes) {
        st = finish_block();
      }
    }
    if (st.ok()) {
      st = finish_block();
    }
    if (!st.ok()) {
      writer.Abandon();
      return st;
    }
    st = writer.Close();
    if (!st.ok()) {
      return st;
    }
    shard.file_size = writer.bytes_written();
    shard.num_records = next_row - first_row;
    shard.min_key = rows[first_row].key;
    shard.max_key = rows[next_row - 1].key;
    manifest.shards.push_back(std::move(shard));
  }

  // Manifest last — the commit point: it only appears once every shard
  // it names is fully written.
  return WriteManifest(manifest, dir, options.env);
}

}  // namespace ngram::serve
