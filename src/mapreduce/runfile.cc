#include "mapreduce/runfile.h"

#include <algorithm>
#include <cstring>

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

char* RunWriter::Reserve(size_t n) {
  if (block_.size() - block_len_ < n) {
    block_.resize(std::max(block_len_ + n, 2 * block_.size()));
  }
  return block_.data() + block_len_;
}

Status RunWriter::Append(Slice key, Slice value) {
  raw_bytes_ += static_cast<uint64_t>(VarintLength(key.size())) +
                VarintLength(value.size()) + key.size() + value.size();
  size_t shared = 0;
  if (counter_ < options_.restart_interval) {
    // Delta-code against the previous key.
    shared = CommonPrefixLength(last_key_.data(), key.data(),
                                std::min(key.size(), last_key_.size()));
  } else {
    restarts_.push_back(static_cast<uint32_t>(block_len_));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;
  // Tag byte: shared / non_shared nibbles, 15 = varint follows.
  const uint8_t shared_nib = shared < 15 ? static_cast<uint8_t>(shared) : 15;
  const uint8_t non_shared_nib =
      non_shared < 15 ? static_cast<uint8_t>(non_shared) : 15;
  char* p = Reserve(1 + 3 * kMaxVarint64Bytes + non_shared + value.size());
  *p++ = static_cast<char>((shared_nib << 4) | non_shared_nib);
  if (shared_nib == 15) {
    p = EncodeVarint64To(p, shared);
  }
  if (non_shared_nib == 15) {
    p = EncodeVarint64To(p, non_shared);
  }
  p = EncodeVarint64To(p, value.size());
  // Empty slices may carry nullptr, which memcpy must not see.
  if (non_shared != 0) {
    memcpy(p, key.data() + shared, non_shared);
    p += non_shared;
  }
  if (!value.empty()) {
    memcpy(p, value.data(), value.size());
    p += value.size();
  }
  block_len_ = static_cast<size_t>(p - block_.data());
  last_key_.resize(key.size());
  if (non_shared != 0) {
    memcpy(&last_key_[shared], key.data() + shared, non_shared);
  }
  ++counter_;
  ++entries_in_block_;
  ++records_written_;
  if (block_len_ >= options_.block_bytes) {
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
  char* p = Reserve(4 * (restarts_.size() + 1));
  for (uint32_t restart : restarts_) {
    p = EncodeFixed32To(p, restart);
  }
  p = EncodeFixed32To(p, static_cast<uint32_t>(restarts_.size()));
  block_len_ = static_cast<size_t>(p - block_.data());
  const uint32_t crc = Crc32(0, block_.data(), block_len_);
  char header[kMaxVarint64Bytes];
  char* header_end = EncodeVarint64To(header, block_len_);
  Status st = file_.AppendRawBytes(
      header, static_cast<size_t>(header_end - header));
  if (st.ok()) {
    st = file_.AppendRawBytes(block_.data(), block_len_);
  }
  if (st.ok()) {
    char trailer[4];
    EncodeFixed32To(trailer, crc);
    st = file_.AppendRawBytes(trailer, 4);
  }
  block_len_ = 0;
  restarts_.clear();
  counter_ = options_.restart_interval;  // Next entry restarts.
  entries_in_block_ = 0;
  last_key_.clear();
  return st;
}

namespace {

/// Bytes the decoder keeps past its logical capacity, so that a 16-byte
/// move starting inside the last frame stays inside the buffer.
constexpr size_t kDecodeSlack = 64;

/// Moves 16 bytes, loading all of them before storing any, so the source
/// and destination ranges may overlap.
inline void Move16(char* dst, const char* src) {
  char tmp[16];
  memcpy(tmp, src, 16);
  memcpy(dst, tmp, 16);
}

// Shared body of DecodeBlockPayload and DecodeBlockAtIndexed. When
// `indexed`, each restart-array slot is cross-checked against the entry
// starts, and the frame offset of the entry it names is written to the
// restart trailer DecodeBlockAtIndexed documents.
//
// Frames are written through a raw cursor into `*framed`, sized up front
// to twice the payload (the logical capacity `cap`): front coding rarely
// more than doubles a block, so the buffer grows (doubling) only for
// blocks of long shared prefixes. While decoding the buffer holds
//
//   [frames: cap bytes][kDecodeSlack][restart trailer slots, if indexed]
//
// and the trailer moves up with every growth and down behind the last
// frame at the end. A frame's shared key prefix is copied from the
// previous frame's key in the same buffer, located by offset so growth
// cannot leave it dangling.
//
// Fast path: an entry whose tag nibbles are both below 15 and whose vlen
// fits one byte (the common shape of n-gram runs) parses as two bytes,
// and a frame whose klen and vlen are both below 128 gets a two-byte
// header. Fields of at most 16 bytes are copied with one 16-byte move:
// fields are written in order, so a move's overshoot is overwritten by
// the next field or frame, or lands in the slack. A move from the
// payload runs only when 16 bytes remain before the payload end, so no
// byte outside the payload is read.
Status DecodeBlockPayloadImpl(Slice payload, uint64_t block_offset,
                              const std::string& path, std::string* framed,
                              bool indexed) {
  auto corrupt = [&](const std::string& what) {
    framed->clear();
    return Status::Corruption(what + " in block at offset " +
                              std::to_string(block_offset) + " of " + path);
  };
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
  const char* const begin = payload.data();
  const char* const payload_end = begin + payload.size();
  const char* const entries_end =
      payload_end - static_cast<size_t>(restart_bytes);
  const char* const restart_array = entries_end;
  // Payload offset (as the writer's fixed32) that restart slot
  // `next_restart` names; never matches when not indexed or exhausted.
  constexpr uint64_t kNoRestart = ~uint64_t{0};
  uint32_t next_restart = 0;
  uint64_t next_restart_at =
      indexed ? DecodeFixed32(restart_array) : kNoRestart;

  const size_t trailer_bytes = indexed ? static_cast<size_t>(restart_bytes) : 0;
  size_t cap = 2 * payload.size();
  // Old contents are overwritten from the front, so only bytes past the
  // previous size get zero-filled.
  framed->resize(cap + kDecodeSlack + trailer_bytes);
  char* out = framed->data();
  size_t pos = 0;           // Bytes of frames written so far.
  size_t last_key_pos = 0;  // Previous frame's key within `*framed`...
  size_t last_key_len = 0;  // ...and its length (0 before the first).
  const char* p = begin;
  while (p < entries_end) {
    if (static_cast<uint32_t>(p - begin) == next_restart_at) {
      EncodeFixed32To(out + cap + kDecodeSlack + 4 * size_t{next_restart},
                      static_cast<uint32_t>(pos));
      ++next_restart;
      next_restart_at =
          next_restart < num_restarts
              ? DecodeFixed32(restart_array + 4 * size_t{next_restart})
              : kNoRestart;
    }
    // Entry header: tag byte (shared/non_shared nibbles, 15 = varint
    // follows) plus the value length varint.
    const uint8_t tag = static_cast<uint8_t>(*p);
    uint64_t shared = tag >> 4;
    uint64_t non_shared = tag & 0x0f;
    uint64_t vlen = 0;
    if (shared < 15 && non_shared < 15 && entries_end - p >= 2 &&
        static_cast<uint8_t>(p[1]) < 0x80) {
      vlen = static_cast<uint8_t>(p[1]);
      p += 2;
    } else {
      Slice in(p + 1, static_cast<size_t>(entries_end - p - 1));
      if ((shared == 15 && !GetVarint64(&in, &shared)) ||
          (non_shared == 15 && !GetVarint64(&in, &non_shared)) ||
          !GetVarint64(&in, &vlen)) {
        return corrupt("malformed entry header");
      }
      p = in.data();
    }
    // Checked term by term: summing corrupt near-2^64 lengths would wrap
    // past the bound and reach the copies below as a giant count.
    const size_t left = static_cast<size_t>(entries_end - p);
    if (shared > last_key_len || non_shared > left ||
        vlen > left - non_shared) {
      return corrupt("entry references out-of-range bytes");
    }
    const size_t klen = static_cast<size_t>(shared + non_shared);
    const size_t header_bytes =
        klen < 128 && vlen < 128
            ? 2
            : static_cast<size_t>(VarintLength(klen) + VarintLength(vlen));
    const size_t frame_bytes = header_bytes + klen + static_cast<size_t>(vlen);
    if (frame_bytes > cap - pos) {
      const size_t new_cap = std::max(2 * cap, pos + frame_bytes);
      framed->resize(new_cap + kDecodeSlack + trailer_bytes);
      out = framed->data();
      memmove(out + new_cap + kDecodeSlack, out + cap + kDecodeSlack,
              4 * size_t{next_restart});
      cap = new_cap;
    }
    char* const frame = out + pos;
    char* key;
    if (header_bytes == 2) {
      frame[0] = static_cast<char>(klen);
      frame[1] = static_cast<char>(vlen);
      key = frame + 2;
    } else {
      key = EncodeVarint64To(EncodeVarint64To(frame, klen), vlen);
    }
    const char* const last_key = out + last_key_pos;
    if (shared <= 16) {
      Move16(key, last_key);
    } else {
      memcpy(key, last_key, static_cast<size_t>(shared));
    }
    if (non_shared <= 16 && payload_end - p >= 16) {
      Move16(key + shared, p);
    } else {
      memcpy(key + shared, p, static_cast<size_t>(non_shared));
    }
    p += non_shared;
    if (vlen <= 16 && payload_end - p >= 16) {
      Move16(key + klen, p);
    } else {
      memcpy(key + klen, p, static_cast<size_t>(vlen));
    }
    p += vlen;
    last_key_pos = static_cast<size_t>(key - out);
    last_key_len = klen;
    pos += frame_bytes;
  }
  if (pos == 0) {
    // The writer never emits an entry-less block; accepting one (a
    // CRC-valid restart-array-only payload) would break readers that use
    // "decoded something" as their progress guarantee.
    return corrupt("block with no entries");
  }
  if (indexed) {
    if (next_restart != num_restarts) {
      // CRC-valid payloads always index real entry starts (the writer
      // emits the array from actual offsets), so a dangling slot is a
      // writer bug — fail loudly rather than hand lookups a short anchor
      // list.
      return corrupt("restart array does not point at entry starts");
    }
    memmove(out + pos, out + cap + kDecodeSlack, 4 * size_t{num_restarts});
    EncodeFixed32To(out + pos + 4 * size_t{num_restarts}, num_restarts);
  }
  framed->resize(pos + trailer_bytes);
  return Status::OK();
}

}  // namespace

Status DecodeBlockPayload(Slice payload, uint64_t block_offset,
                          const std::string& path, std::string* framed) {
  return DecodeBlockPayloadImpl(payload, block_offset, path, framed,
                                /*indexed=*/false);
}

Status DecodeBlockAtIndexed(Slice file, uint64_t offset,
                            const std::string& path, std::string* framed,
                            uint64_t* next_offset) {
  auto corrupt = [&](const std::string& what) {
    framed->clear();
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
  NGRAM_RETURN_NOT_OK(DecodeBlockPayloadImpl(payload, offset, path, framed,
                                             /*indexed=*/true));
  *next_offset = offset + header_bytes + payload_len + 4;
  return Status::OK();
}

Status ParseBlockView(const std::string& indexed, const std::string& path,
                      BlockView* view) {
  if (indexed.size() >= 4) {
    const uint32_t n = DecodeFixed32(indexed.data() + indexed.size() - 4);
    const uint64_t trailer_bytes = 4ull * (static_cast<uint64_t>(n) + 1);
    if (n != 0 && trailer_bytes <= indexed.size()) {
      view->frames = Slice(indexed.data(),
                           indexed.size() - static_cast<size_t>(trailer_bytes));
      view->restarts = indexed.data() + view->frames.size();
      view->num_restarts = n;
      return Status::OK();
    }
  }
  return Status::Corruption("malformed cached block index for " + path);
}

}  // namespace ngram::mr
