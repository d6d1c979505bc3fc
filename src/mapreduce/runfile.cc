#include "mapreduce/runfile.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "encoding/varint.h"
#include "util/crc32.h"

namespace ngram::mr {

namespace {

SpillWriter::Options FileOptions(const RunWriterOptions& options) {
  SpillWriter::Options file_options;
  file_options.buffer_bytes = std::max<size_t>(1, options.buffer_bytes);
  file_options.external_buffer = options.external_buffer;
  file_options.env = options.env;
  return file_options;
}

}  // namespace

RunWriter::RunWriter(std::string path, const RunWriterOptions& options)
    : options_(options),
      file_(std::move(path), FileOptions(options)),
      counter_(options.restart_interval) {}  // First entry restarts.

Status RunWriter::Open() {
  NGRAM_RETURN_NOT_OK(file_.Open());
  if (options_.preamble.empty()) {
    return Status::OK();
  }
  return file_.AppendRawBytes(options_.preamble.data(),
                              options_.preamble.size());
}

Status RunWriter::Append(Slice key, Slice value) {
  raw_bytes_ += static_cast<uint64_t>(VarintLength(key.size())) +
                VarintLength(value.size()) + key.size() + value.size();
  size_t shared = 0;
  if (counter_ < options_.restart_interval) {
    // Delta-code against the previous key.
    const size_t n = std::min(key.size(), last_key_.size());
    while (shared < n && last_key_[shared] == key[shared]) {
      ++shared;
    }
  } else {
    restarts_.push_back(static_cast<uint32_t>(block_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;
  // Tag byte: shared / non_shared nibbles, 15 = varint follows.
  const uint8_t shared_nib = shared < 15 ? static_cast<uint8_t>(shared) : 15;
  const uint8_t non_shared_nib =
      non_shared < 15 ? static_cast<uint8_t>(non_shared) : 15;
  block_.push_back(static_cast<char>((shared_nib << 4) | non_shared_nib));
  if (shared_nib == 15) {
    PutVarint64(&block_, shared);
  }
  if (non_shared_nib == 15) {
    PutVarint64(&block_, non_shared);
  }
  PutVarint64(&block_, value.size());
  block_.append(key.data() + shared, non_shared);
  block_.append(value.data(), value.size());
  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  ++counter_;
  ++entries_in_block_;
  ++records_written_;
  if (block_.size() >= options_.block_bytes) {
    return EmitBlock();
  }
  return Status::OK();
}

Status RunWriter::Close() {
  Status st = EmitBlock();
  if (!st.ok()) {
    return st;  // EmitBlock already abandoned (unlinked) on failure.
  }
  return file_.Close();
}

Status RunWriter::EmitBlock() {
  if (entries_in_block_ == 0) {
    return Status::OK();
  }
  for (uint32_t restart : restarts_) {
    PutFixed32(&block_, restart);
  }
  PutFixed32(&block_, static_cast<uint32_t>(restarts_.size()));
  const uint32_t crc = Crc32(0, block_.data(), block_.size());
  char header[kMaxVarint64Bytes];
  char* header_end = EncodeVarint64To(header, block_.size());
  Status st = file_.AppendRawBytes(
      header, static_cast<size_t>(header_end - header));
  if (st.ok()) {
    st = file_.AppendRawBytes(block_.data(), block_.size());
  }
  if (st.ok()) {
    char trailer[4];
    EncodeFixed32To(trailer, crc);
    st = file_.AppendRawBytes(trailer, 4);
  }
  block_.clear();
  restarts_.clear();
  counter_ = options_.restart_interval;  // Next entry restarts.
  entries_in_block_ = 0;
  last_key_.clear();
  return st;
}

namespace {

// Shared body of DecodeBlockPayload / the indexed variant. When
// `restart_offsets` is non-null it receives, per restart-array slot, the
// offset within `*framed` of that restart entry's frame — translating the
// writer's payload-offset index into the decoded representation.
//
// Frames are written through a raw cursor into `*framed`, sized up front
// to twice the payload: front coding rarely more than doubles a block, so
// the buffer grows (doubling) only for blocks of long shared prefixes. A
// frame's shared key prefix is copied from the previous frame's key in
// the same buffer, located by offset so growth cannot leave it dangling.
Status DecodeBlockPayloadImpl(Slice payload, uint64_t block_offset,
                              const std::string& path, std::string* framed,
                              std::vector<uint32_t>* restart_offsets) {
  auto corrupt = [&](const std::string& what) {
    framed->clear();
    return Status::Corruption(what + " in block at offset " +
                              std::to_string(block_offset) + " of " + path);
  };
  if (restart_offsets != nullptr) {
    restart_offsets->clear();
  }
  if (payload.size() < 4) {
    return corrupt("malformed restart array");
  }
  const uint32_t num_restarts =
      DecodeFixed32(payload.data() + payload.size() - 4);
  // Widen before the +1: num_restarts == 0xffffffff must not wrap to a
  // zero-byte restart array and slip past the bound below.
  const uint64_t restart_bytes =
      4ull * (static_cast<uint64_t>(num_restarts) + 1);
  if (num_restarts == 0 || restart_bytes > payload.size()) {
    return corrupt("malformed restart array");
  }
  const size_t entries_end = payload.size() - static_cast<size_t>(restart_bytes);
  const char* const restart_array = payload.data() + entries_end;
  uint32_t next_restart = 0;  // Restart-array slots consumed so far.
  if (restart_offsets != nullptr) {
    restart_offsets->reserve(num_restarts);
  }

  // Old contents are overwritten from the front, so only bytes past the
  // previous size get zero-filled.
  framed->resize(2 * payload.size());
  size_t pos = 0;           // Bytes of `*framed` written so far.
  size_t last_key_pos = 0;  // Previous frame's key within `*framed`...
  size_t last_key_len = 0;  // ...and its length (0 before the first).
  Slice in(payload.data(), entries_end);
  while (!in.empty()) {
    if (restart_offsets != nullptr && next_restart < num_restarts &&
        DecodeFixed32(restart_array + 4 * next_restart) ==
            static_cast<uint32_t>(in.data() - payload.data())) {
      restart_offsets->push_back(static_cast<uint32_t>(pos));
      ++next_restart;
    }
    // Entry header: tag byte (shared/non_shared nibbles, 15 = varint
    // follows) plus the value length varint.
    const uint8_t tag = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    uint64_t shared = tag >> 4;
    uint64_t non_shared = tag & 0x0f;
    uint64_t vlen = 0;
    if ((shared == 15 && !GetVarint64(&in, &shared)) ||
        (non_shared == 15 && !GetVarint64(&in, &non_shared)) ||
        !GetVarint64(&in, &vlen)) {
      return corrupt("malformed entry header");
    }
    // Checked term by term: summing corrupt near-2^64 lengths would wrap
    // past the bound and reach the copies below as a giant count.
    if (shared > last_key_len || non_shared > in.size() ||
        vlen > in.size() - non_shared) {
      return corrupt("entry references out-of-range bytes");
    }
    const size_t klen = static_cast<size_t>(shared + non_shared);
    const size_t frame_bytes = static_cast<size_t>(VarintLength(klen)) +
                               VarintLength(vlen) + klen +
                               static_cast<size_t>(vlen);
    if (frame_bytes > framed->size() - pos) {
      framed->resize(std::max(2 * framed->size(), pos + frame_bytes));
    }
    char* const frame = framed->data() + pos;
    char* key = EncodeVarint64To(frame, klen);
    key = EncodeVarint64To(key, vlen);
    memcpy(key, framed->data() + last_key_pos, static_cast<size_t>(shared));
    memcpy(key + shared, in.data(), static_cast<size_t>(non_shared));
    memcpy(key + klen, in.data() + non_shared, static_cast<size_t>(vlen));
    in.RemovePrefix(static_cast<size_t>(non_shared + vlen));
    last_key_pos = static_cast<size_t>(key - framed->data());
    last_key_len = klen;
    pos += frame_bytes;
  }
  framed->resize(pos);
  if (pos == 0) {
    // The writer never emits an entry-less block; accepting one (a
    // CRC-valid restart-array-only payload) would break readers that use
    // "decoded something" as their progress guarantee.
    return corrupt("block with no entries");
  }
  if (restart_offsets != nullptr && next_restart != num_restarts) {
    // CRC-valid payloads always index real entry starts (the writer emits
    // the array from actual offsets), so a dangling slot is a writer bug
    // — fail loudly rather than hand lookups a short anchor list.
    return corrupt("restart array does not point at entry starts");
  }
  return Status::OK();
}

// Shared body of DecodeBlockAt / the indexed variant.
Status DecodeBlockAtImpl(Slice file, uint64_t offset, const std::string& path,
                         std::string* framed,
                         std::vector<uint32_t>* restart_offsets,
                         uint64_t* next_offset) {
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(what + " in block at offset " +
                              std::to_string(offset) + " of " + path);
  };
  if (offset >= file.size()) {
    return corrupt("block offset past end of file");
  }
  Slice in(file.data() + offset, file.size() - offset);
  const char* header_start = in.data();
  uint64_t payload_len = 0;
  if (!GetVarint64(&in, &payload_len)) {
    return corrupt("overlong block length varint");
  }
  const uint64_t header_bytes = static_cast<uint64_t>(in.data() - header_start);
  // Compare against the remaining bytes without forming payload_len + 4,
  // which a corrupt near-2^64 varint would wrap past the check.
  if (payload_len < 10 || in.size() < 4 || payload_len > in.size() - 4) {
    return corrupt("implausible block length " + std::to_string(payload_len));
  }
  const Slice payload(in.data(), static_cast<size_t>(payload_len));
  const uint32_t expected = DecodeFixed32(in.data() + payload_len);
  if (Crc32(0, payload.data(), payload.size()) != expected) {
    return corrupt("block CRC mismatch");
  }
  Status st =
      DecodeBlockPayloadImpl(payload, offset, path, framed, restart_offsets);
  if (!st.ok()) {
    return st;
  }
  *next_offset = offset + header_bytes + payload_len + 4;
  return Status::OK();
}

}  // namespace

Status DecodeBlockPayload(Slice payload, uint64_t block_offset,
                          const std::string& path, std::string* framed) {
  return DecodeBlockPayloadImpl(payload, block_offset, path, framed, nullptr);
}

Status DecodeBlockAt(Slice file, uint64_t offset, const std::string& path,
                     std::string* framed, uint64_t* next_offset) {
  return DecodeBlockAtImpl(file, offset, path, framed, nullptr, next_offset);
}

Status DecodeBlockAtIndexed(Slice file, uint64_t offset,
                            const std::string& path, std::string* framed,
                            std::vector<uint32_t>* restart_offsets,
                            uint64_t* next_offset) {
  return DecodeBlockAtImpl(file, offset, path, framed, restart_offsets,
                           next_offset);
}

}  // namespace ngram::mr
