#include "serve/sharded_store.h"

#include <algorithm>

#include "encoding/varint.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"

namespace ngram::serve {

namespace {

/// Count value decode (builder writes one varint64 per record).
Status DecodeCount(Slice value, const std::string& path, uint64_t* count) {
  if (!GetVarint64(&value, count) || !value.empty()) {
    return Status::Corruption("malformed count value in " + path);
  }
  return Status::OK();
}

/// Key of the frame starting at byte `offset` of `frames`. The frames are
/// decoder output (already bounds-checked), so the parse cannot fail.
Slice KeyAt(Slice frames, uint32_t offset) {
  Slice in(frames.data() + offset, frames.size() - offset);
  uint64_t klen = 0;
  uint64_t vlen = 0;
  GetVarint64(&in, &klen);
  GetVarint64(&in, &vlen);
  return Slice(in.data(), static_cast<size_t>(klen));
}

/// Frame offset of the largest restart anchor whose key is <= `key`
/// (anchor 0 when every anchor key exceeds it, which only happens for
/// keys before the block). A scan from here crosses at most one restart
/// interval before the sorted order proves the key absent.
uint32_t SeekAnchor(const mr::BlockView& view, Slice key) {
  uint32_t lo = 0;
  uint32_t hi = view.num_restarts;  // First anchor with key > `key`.
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (KeyAt(view.frames, view.restart(mid)).compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : view.restart(lo - 1);
}

}  // namespace

Result<std::shared_ptr<const ShardedStatsStore>> ShardedStatsStore::Open(
    const std::string& dir, ServingOptions options) {
  std::shared_ptr<ShardedStatsStore> store(new ShardedStatsStore());
  store->dir_ = dir;
  NGRAM_RETURN_NOT_OK(ReadManifest(dir, &store->manifest_, options.env));

  store->cache_ = options.cache != nullptr
                      ? options.cache
                      : std::make_shared<kv::BlockCache>(options.cache_bytes);

  mr::IoEnv* env = mr::ResolveEnv(options.env);
  store->shards_.reserve(store->manifest_.shards.size());
  for (const ShardEntry& entry : store->manifest_.shards) {
    Shard shard;
    shard.path = dir + "/" + entry.file_name;
    shard.entry = &entry;
    shard.cache_file_id = kv::AllocateCacheFileId();
    NGRAM_RETURN_NOT_OK(env->NewMmapFile(shard.path, &shard.mapping));
    if (shard.mapping->data().size() != entry.file_size) {
      return Status::Corruption(
          shard.path + ": size " +
          std::to_string(shard.mapping->data().size()) +
          " does not match manifest (" + std::to_string(entry.file_size) +
          ")");
    }
    // The manifest CRC already vouches for the index itself; this checks
    // that the index and the segment agree — blocks must tile the file.
    uint64_t expected_offset = 0;
    for (const BlockEntry& block : entry.blocks) {
      if (block.offset != expected_offset || block.length == 0) {
        return Status::Corruption(shard.path +
                                  ": manifest block extents do not tile "
                                  "the segment");
      }
      expected_offset += block.length;
    }
    if (expected_offset != entry.file_size || entry.blocks.empty()) {
      return Status::Corruption(shard.path +
                                ": manifest block extents do not tile "
                                "the segment");
    }
    store->shards_.push_back(std::move(shard));
  }
  return std::shared_ptr<const ShardedStatsStore>(std::move(store));
}

int ShardedStatsStore::ShardOf(Slice key) const {
  if (shards_.empty()) {
    return -1;
  }
  // Last shard whose min_key <= key; keys before every shard route to
  // shard 0 (where they are — correctly — absent).
  auto it = std::upper_bound(
      manifest_.shards.begin(), manifest_.shards.end(), key,
      [](Slice k, const ShardEntry& s) { return k.compare(s.min_key) < 0; });
  if (it == manifest_.shards.begin()) {
    return 0;
  }
  return static_cast<int>(it - manifest_.shards.begin()) - 1;
}

int ShardedStatsStore::BlockOf(const ShardEntry& entry, Slice key) {
  auto it = std::upper_bound(
      entry.blocks.begin(), entry.blocks.end(), key,
      [](Slice k, const BlockEntry& b) { return k.compare(b.first_key) < 0; });
  return static_cast<int>(it - entry.blocks.begin()) - 1;
}

Status ShardedStatsStore::GetBlock(
    const Shard& shard, size_t block_index,
    std::shared_ptr<const std::string>* framed) const {
  const kv::BlockKey cache_key{shard.cache_file_id,
                               static_cast<uint64_t>(block_index)};
  if (auto cached = cache_->Lookup(cache_key)) {
    *framed = std::move(cached);
    return Status::OK();
  }
  const BlockEntry& block = shard.entry->blocks[block_index];
  const Slice file = shard.mapping->data();
  auto decoded = std::make_shared<std::string>();
  uint64_t next_offset = 0;
  NGRAM_RETURN_NOT_OK(mr::DecodeBlockAtIndexed(file, block.offset, shard.path,
                                               decoded.get(), &next_offset));
  if (next_offset != block.offset + block.length) {
    return Status::Corruption(
        "block at offset " + std::to_string(block.offset) + " of " +
        shard.path + " does not match its manifest extent");
  }
  *framed = decoded;
  cache_->Insert(cache_key, std::move(decoded));
  return Status::OK();
}

Status ShardedStatsStore::Count(Slice key, uint64_t* count) const {
  *count = 0;
  if (shards_.empty()) {
    return Status::OK();
  }
  const int s = ShardOf(key);
  const Shard& shard = shards_[static_cast<size_t>(s)];
  const ShardEntry& entry = *shard.entry;
  if (key.compare(entry.min_key) < 0 || key.compare(entry.max_key) > 0) {
    return Status::OK();  // Routed here, but outside the stored range.
  }
  const int b = BlockOf(entry, key);
  if (b < 0) {
    return Status::OK();
  }
  std::shared_ptr<const std::string> framed;
  NGRAM_RETURN_NOT_OK(GetBlock(shard, static_cast<size_t>(b), &framed));
  mr::BlockView view;
  NGRAM_RETURN_NOT_OK(mr::ParseBlockView(*framed, shard.path, &view));
  // Binary-search the restart anchors, then decode-scan at most one
  // restart interval instead of walking the block from its first record.
  const uint32_t start = SeekAnchor(view, key);
  mr::MemoryRecordReader reader{
      Slice(view.frames.data() + start, view.frames.size() - start)};
  while (reader.Next()) {
    const int cmp = reader.key().compare(key);
    if (cmp == 0) {
      return DecodeCount(reader.value(), shard.path, count);
    }
    if (cmp > 0) {
      break;  // Records are sorted; the key is absent.
    }
  }
  return reader.status();
}

Status ShardedStatsStore::ScanRange(
    Slice lower, Slice upper,
    const std::function<bool(Slice, uint64_t)>& fn) const {
  // Empty `upper` = unbounded (see header).
  const auto before_upper = [&upper](Slice key) {
    return upper.empty() || key.compare(upper) < 0;
  };
  if (shards_.empty() || !before_upper(lower)) {
    return Status::OK();
  }
  const int first_shard = ShardOf(lower);
  for (size_t s = static_cast<size_t>(first_shard); s < shards_.size();
       ++s) {
    const Shard& shard = shards_[s];
    const ShardEntry& entry = *shard.entry;
    if (!before_upper(entry.min_key)) {
      break;  // Every later shard starts past the range.
    }
    const int first_block = std::max(0, BlockOf(entry, lower));
    for (size_t b = static_cast<size_t>(first_block);
         b < entry.blocks.size(); ++b) {
      if (!before_upper(entry.blocks[b].first_key)) {
        return Status::OK();
      }
      std::shared_ptr<const std::string> framed;
      NGRAM_RETURN_NOT_OK(GetBlock(shard, b, &framed));
      mr::BlockView view;
      NGRAM_RETURN_NOT_OK(mr::ParseBlockView(*framed, shard.path, &view));
      Slice scan = view.frames;
      if (b == static_cast<size_t>(first_block)) {
        // Anchor-seek `lower` in the first block of each shard we enter;
        // records between the anchor and `lower` are skipped below.
        const uint32_t start = SeekAnchor(view, lower);
        scan = Slice(view.frames.data() + start, view.frames.size() - start);
      }
      mr::MemoryRecordReader reader{scan};
      while (reader.Next()) {
        if (reader.key().compare(lower) < 0) {
          continue;
        }
        if (!before_upper(reader.key())) {
          return Status::OK();
        }
        uint64_t count = 0;
        NGRAM_RETURN_NOT_OK(DecodeCount(reader.value(), shard.path, &count));
        if (!fn(reader.key(), count)) {
          return Status::OK();
        }
      }
      NGRAM_RETURN_NOT_OK(reader.status());
    }
  }
  return Status::OK();
}

}  // namespace ngram::serve
