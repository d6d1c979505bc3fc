#include "serve/manifest.h"

#include <cstring>

#include "encoding/varint.h"
#include "util/crc32.h"
#include "util/macros.h"

namespace ngram::serve {

namespace {

constexpr char kMagic[4] = {'N', 'G', 'S', 'M'};

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetLengthPrefixed(Slice* in, std::string* out) {
  uint64_t len = 0;
  if (!GetVarint64(in, &len) || len > in->size()) {
    return false;
  }
  out->assign(in->data(), static_cast<size_t>(len));
  in->RemovePrefix(static_cast<size_t>(len));
  return true;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestFileName;
}

}  // namespace

Status WriteManifest(const Manifest& manifest, const std::string& dir,
                     mr::IoEnv* env) {
  std::string payload;
  PutVarint64(&payload, manifest.total_records);
  PutVarint64(&payload, manifest.total_unigrams);
  PutVarint64(&payload, manifest.max_order);
  PutVarint64(&payload, manifest.block_bytes);
  PutVarint64(&payload, manifest.shards.size());
  for (const ShardEntry& shard : manifest.shards) {
    PutLengthPrefixed(&payload, shard.file_name);
    PutVarint64(&payload, shard.file_size);
    PutVarint64(&payload, shard.num_records);
    PutLengthPrefixed(&payload, shard.min_key);
    PutLengthPrefixed(&payload, shard.max_key);
    PutVarint64(&payload, shard.blocks.size());
    for (const BlockEntry& block : shard.blocks) {
      PutLengthPrefixed(&payload, block.first_key);
      PutVarint64(&payload, block.offset);
      PutVarint64(&payload, block.length);
    }
  }

  std::string file(kMagic, sizeof(kMagic));
  file += payload;
  PutFixed32(&file, Crc32(0, payload.data(), payload.size()));

  const std::string path = ManifestPath(dir);
  std::unique_ptr<mr::WritableFile> out;
  mr::IoEnv* e = mr::ResolveEnv(env);
  NGRAM_RETURN_NOT_OK(e->NewWritableFile(path, &out));
  NGRAM_RETURN_NOT_OK(out->Write(file.data(), file.size()));
  NGRAM_RETURN_NOT_OK(out->Sync());
  return out->Close();
}

Status ReadManifest(const std::string& dir, Manifest* manifest,
                    mr::IoEnv* env) {
  const std::string path = ManifestPath(dir);
  auto corrupt = [&](const char* what) {
    return Status::Corruption(path + ": " + what);
  };
  mr::IoEnv* e = mr::ResolveEnv(env);
  uint64_t size = 0;
  NGRAM_RETURN_NOT_OK(e->FileSize(path, &size));
  std::unique_ptr<mr::ReadableFile> in;
  NGRAM_RETURN_NOT_OK(e->NewReadableFile(path, 0, &in));
  std::string content(static_cast<size_t>(size), '\0');
  size_t got = 0;
  while (got < content.size()) {
    size_t n = 0;
    NGRAM_RETURN_NOT_OK(in->Read(content.data() + got,
                                 content.size() - got, &n));
    if (n == 0) {
      return corrupt("truncated manifest");
    }
    got += n;
  }

  if (content.size() < sizeof(kMagic) + 4 ||
      memcmp(content.data(), kMagic, sizeof(kMagic)) != 0) {
    return corrupt("not a serving manifest");
  }
  const Slice payload(content.data() + sizeof(kMagic),
                      content.size() - sizeof(kMagic) - 4);
  const uint32_t expected =
      DecodeFixed32(content.data() + content.size() - 4);
  if (Crc32(0, payload.data(), payload.size()) != expected) {
    return corrupt("manifest CRC mismatch");
  }

  Manifest out;
  Slice cursor = payload;
  uint64_t num_shards = 0;
  uint64_t max_order = 0;
  if (!GetVarint64(&cursor, &out.total_records) ||
      !GetVarint64(&cursor, &out.total_unigrams) ||
      !GetVarint64(&cursor, &max_order) ||
      !GetVarint64(&cursor, &out.block_bytes) ||
      !GetVarint64(&cursor, &num_shards)) {
    return corrupt("malformed manifest header");
  }
  if (max_order > UINT32_MAX) {
    return corrupt("implausible max order");
  }
  // Every shard and block entry takes at least one byte, so a count past
  // the bytes left is corrupt — and must not reach reserve().
  if (num_shards > cursor.size()) {
    return corrupt("implausible shard count");
  }
  out.max_order = static_cast<uint32_t>(max_order);
  out.shards.reserve(static_cast<size_t>(num_shards));
  for (uint64_t s = 0; s < num_shards; ++s) {
    ShardEntry shard;
    uint64_t num_blocks = 0;
    if (!GetLengthPrefixed(&cursor, &shard.file_name) ||
        !GetVarint64(&cursor, &shard.file_size) ||
        !GetVarint64(&cursor, &shard.num_records) ||
        !GetLengthPrefixed(&cursor, &shard.min_key) ||
        !GetLengthPrefixed(&cursor, &shard.max_key) ||
        !GetVarint64(&cursor, &num_blocks)) {
      return corrupt("malformed shard entry");
    }
    if (num_blocks > cursor.size()) {
      return corrupt("implausible block count");
    }
    shard.blocks.reserve(static_cast<size_t>(num_blocks));
    for (uint64_t b = 0; b < num_blocks; ++b) {
      BlockEntry block;
      if (!GetLengthPrefixed(&cursor, &block.first_key) ||
          !GetVarint64(&cursor, &block.offset) ||
          !GetVarint64(&cursor, &block.length)) {
        return corrupt("malformed block entry");
      }
      shard.blocks.push_back(std::move(block));
    }
    out.shards.push_back(std::move(shard));
  }
  if (!cursor.empty()) {
    return corrupt("trailing manifest bytes");
  }
  *manifest = std::move(out);
  return Status::OK();
}

}  // namespace ngram::serve
