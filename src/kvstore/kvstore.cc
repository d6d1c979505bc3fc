#include "kvstore/kvstore.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "encoding/varint.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace ngram::kv {

namespace {

constexpr uint8_t kRecordPut = 0;
constexpr uint8_t kRecordDelete = 1;

std::string SegmentFileName(const std::string& dir, uint32_t id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/seg-%06u.log", id);
  return dir + buf;
}

}  // namespace

struct KVStore::Segment {
  uint32_t id = 0;
  uint64_t cache_file_id = 0;
  int fd = -1;
  uint64_t size = 0;
  std::string path;

  ~Segment() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

KVStore::KVStore(std::string dir, KVStoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  cache_ = options_.cache;
  if (cache_ == nullptr) {
    cache_ = std::make_shared<BlockCache>(options_.default_cache_bytes);
  }
}

KVStore::~KVStore() = default;

Result<std::unique_ptr<KVStore>> KVStore::Open(const std::string& dir,
                                               KVStoreOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create KV dir " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<KVStore> store(new KVStore(dir, options));
  NGRAM_RETURN_NOT_OK(store->OpenSegments());
  return store;
}

Result<std::unique_ptr<KVStore>> KVStore::OpenEmpty(const std::string& dir,
                                                    KVStoreOptions options) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) {
    return Status::IOError("cannot clear KV dir " + dir + ": " +
                           ec.message());
  }
  return Open(dir, std::move(options));
}

void KVStore::Destroy(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // Best effort.
}

Status KVStore::OpenSegments() {
  // Collect existing segment files in id order.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("seg-", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    auto seg = std::make_unique<Segment>();
    seg->path = path.string();
    unsigned id = 0;
    sscanf(path.filename().string().c_str(), "seg-%06u.log", &id);
    seg->id = static_cast<uint32_t>(id);
    seg->cache_file_id = AllocateCacheFileId();
    seg->fd = ::open(seg->path.c_str(), O_RDWR | O_APPEND, 0644);
    if (seg->fd < 0) {
      return Status::IOError("open " + seg->path + ": " + strerror(errno));
    }
    const off_t sz = ::lseek(seg->fd, 0, SEEK_END);
    seg->size = static_cast<uint64_t>(sz < 0 ? 0 : sz);

    // Replay the segment to rebuild the index, verifying each record's
    // CRC trailer as it goes by — corruption anywhere in a segment fails
    // the open instead of resurrecting damaged state. Segments carry no
    // format version: stores are job-ephemeral (spilled reducer state in
    // a per-job work dir), so there are no cross-build segments to
    // migrate and a pre-CRC-format file can only mean corruption.
    std::string content;
    NGRAM_RETURN_NOT_OK(ReadAt(*seg, 0, seg->size, &content));
    Slice in(content);
    uint64_t pos = 0;
    while (!in.empty()) {
      const size_t before = in.size();
      const uint8_t type = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      uint64_t klen = 0, vlen = 0;
      // Bounds checked term by term: corrupt near-2^64 varints (read
      // before any CRC has been verified) would wrap a summed check and
      // hand std::string a giant length instead of failing cleanly.
      if (!GetVarint64(&in, &klen) || !GetVarint64(&in, &vlen) ||
          klen > in.size() || vlen > in.size() - klen ||
          in.size() - klen - vlen < 4) {
        return Status::Corruption("truncated record body in " + seg->path +
                                  " at offset " + std::to_string(pos));
      }
      const std::string key(in.data(), klen);
      in.RemovePrefix(klen + vlen);
      const uint64_t covered = (before - in.size());
      const uint32_t expected = DecodeFixed32(in.data());
      in.RemovePrefix(4);
      const uint32_t actual =
          Crc32(0, content.data() + pos, static_cast<size_t>(covered));
      if (actual != expected) {
        return Status::Corruption("record CRC mismatch in " + seg->path +
                                  " at offset " + std::to_string(pos));
      }
      const uint64_t record_size = covered + 4;
      if (type == kRecordPut) {
        index_[key] = Location{seg->id, pos,
                               static_cast<uint32_t>(record_size),
                               static_cast<uint32_t>(vlen)};
      } else {
        index_.erase(key);
      }
      pos += record_size;
    }
    segments_.push_back(std::move(seg));
  }

  if (segments_.empty()) {
    NGRAM_RETURN_NOT_OK(RollSegmentIfNeeded());
  }
  return Status::OK();
}

Status KVStore::RollSegmentIfNeeded() {
  if (!segments_.empty() &&
      segments_.back()->size < options_.max_segment_bytes) {
    return Status::OK();
  }
  auto seg = std::make_unique<Segment>();
  seg->id = segments_.empty() ? 0 : segments_.back()->id + 1;
  seg->cache_file_id = AllocateCacheFileId();
  seg->path = SegmentFileName(dir_, seg->id);
  seg->fd = ::open(seg->path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (seg->fd < 0) {
    return Status::IOError("create " + seg->path + ": " + strerror(errno));
  }
  seg->size = 0;
  segments_.push_back(std::move(seg));
  return Status::OK();
}

Status KVStore::AppendRecord(uint8_t type, Slice key, Slice value,
                             Location* value_loc) {
  NGRAM_RETURN_NOT_OK(RollSegmentIfNeeded());
  Segment& seg = *segments_.back();

  std::string record;
  record.reserve(1 + 2 * kMaxVarint64Bytes + key.size() + value.size() + 4);
  record.push_back(static_cast<char>(type));
  PutVarint64(&record, key.size());
  PutVarint64(&record, value.size());
  record.append(key.data(), key.size());
  record.append(value.data(), value.size());
  // CRC trailer over header + key + value (verified on replay and Get).
  PutFixed32(&record, Crc32(0, record.data(), record.size()));

  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(seg.fd, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IOError("write " + seg.path + ": " + strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (value_loc != nullptr) {
    *value_loc = Location{seg.id, seg.size,
                          static_cast<uint32_t>(record.size()),
                          static_cast<uint32_t>(value.size())};
  }
  seg.size += record.size();
  stats_.bytes_written += record.size();
  return Status::OK();
}

Status KVStore::Put(Slice key, Slice value) {
  Location loc;
  NGRAM_RETURN_NOT_OK(AppendRecord(kRecordPut, key, value, &loc));
  index_[key.ToString()] = loc;
  ++stats_.puts;
  return Status::OK();
}

Status KVStore::Delete(Slice key) {
  auto it = index_.find(key.ToString());
  if (it == index_.end()) {
    return Status::OK();
  }
  NGRAM_RETURN_NOT_OK(AppendRecord(kRecordDelete, key, Slice(), nullptr));
  index_.erase(it);
  ++stats_.deletes;
  return Status::OK();
}

bool KVStore::Contains(Slice key) const {
  return index_.find(key.ToString()) != index_.end();
}

Status KVStore::Get(Slice key, std::string* value) {
  ++stats_.gets;
  auto it = index_.find(key.ToString());
  if (it == index_.end()) {
    return Status::NotFound("key absent: " + key.ToString());
  }
  const Location& loc = it->second;
  Segment* seg = nullptr;
  for (auto& s : segments_) {
    if (s->id == loc.segment_id) {
      seg = s.get();
      break;
    }
  }
  if (seg == nullptr) {
    return Status::Corruption("segment missing for key " + key.ToString());
  }
  // Read the whole record and verify its CRC trailer, so a flipped byte
  // anywhere — key, value, or header — surfaces as Corruption instead of
  // silently returning damaged state. The extra key/header bytes read
  // come through the block cache like the value bytes always did.
  std::string record;
  NGRAM_RETURN_NOT_OK(ReadAt(*seg, loc.offset, loc.record_size, &record));
  if (record.size() != loc.record_size || loc.record_size < 4 ||
      loc.record_size < 4u + loc.value_size) {
    return Status::Corruption("short record read in " + seg->path);
  }
  const uint32_t expected = DecodeFixed32(record.data() + record.size() - 4);
  const uint32_t actual = Crc32(0, record.data(), record.size() - 4);
  if (actual != expected) {
    return Status::Corruption("record CRC mismatch in " + seg->path +
                              " at offset " + std::to_string(loc.offset));
  }
  value->assign(record.data() + record.size() - 4 - loc.value_size,
                loc.value_size);
  return Status::OK();
}

Status KVStore::ReadAt(Segment& seg, uint64_t offset, size_t n,
                       std::string* out) {
  out->clear();
  if (n == 0) {
    return Status::OK();
  }
  out->reserve(n);
  stats_.bytes_read += n;

  const size_t block_size = options_.block_size;
  const uint64_t first_block = offset / block_size;
  const uint64_t last_block = (offset + n - 1) / block_size;

  for (uint64_t b = first_block; b <= last_block; ++b) {
    const uint64_t block_start = b * block_size;
    // A block may be cached only once fully written (append-only segments
    // never mutate complete blocks).
    const bool cacheable = (block_start + block_size) <= seg.size;

    std::shared_ptr<const std::string> block;
    if (cacheable) {
      block = cache_->Lookup(BlockKey{seg.cache_file_id, b});
      if (block != nullptr) {
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_misses;
      }
    }
    if (block == nullptr) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(block_size, seg.size - block_start));
      auto fresh = std::make_shared<std::string>();
      fresh->resize(want);
      size_t got = 0;
      while (got < want) {
        const ssize_t r = ::pread(seg.fd, fresh->data() + got, want - got,
                                  static_cast<off_t>(block_start + got));
        if (r < 0) {
          if (errno == EINTR) {
            continue;
          }
          return Status::IOError("pread " + seg.path + ": " +
                                 strerror(errno));
        }
        if (r == 0) {
          return Status::Corruption("short read in " + seg.path);
        }
        got += static_cast<size_t>(r);
      }
      if (cacheable) {
        cache_->Insert(BlockKey{seg.cache_file_id, b}, fresh);
      }
      block = std::move(fresh);
    }

    const uint64_t copy_from =
        (b == first_block) ? (offset - block_start) : 0;
    const uint64_t copy_to =
        (b == last_block) ? (offset + n - block_start) : block->size();
    out->append(block->data() + copy_from, copy_to - copy_from);
  }
  return Status::OK();
}

Status KVStore::Scan(const std::function<Status(Slice, Slice)>& fn) {
  std::string value;
  for (const auto& [key, loc] : index_) {
    NGRAM_RETURN_NOT_OK(Get(key, &value));
    NGRAM_RETURN_NOT_OK(fn(Slice(key), Slice(value)));
  }
  return Status::OK();
}

}  // namespace ngram::kv
