#include "mapreduce/record.h"

#include "mapreduce/runfile.h"
#include "util/crc32.h"

namespace ngram::mr {

FileRecordReader::FileRecordReader(const std::string& path, uint64_t offset,
                                   uint64_t length, size_t buffer_size,
                                   IoEnv* env)
    : path_(path), remaining_file_bytes_(length), next_block_offset_(offset) {
  // Blocks are read through the env's stream buffer (header varints byte
  // by byte, then one read per ~16 KiB payload); the buffer hint keeps
  // the merge issuing few large sequential reads.
  Status st = ResolveEnv(env)->NewReadableFile(path, buffer_size, &file_);
  if (!st.ok()) {
    Fail(st.WithContext("open run for reading"));
    remaining_file_bytes_ = 0;
    return;
  }
  st = file_->Seek(offset);
  if (!st.ok()) {
    Fail(st.WithContext("seek to run extent"));
    remaining_file_bytes_ = 0;
  }
}

FileRecordReader::~FileRecordReader() = default;

bool FileRecordReader::Fail(const Status& st) {
  status_ = st.WithPath(path_);
  return false;
}

bool FileRecordReader::ReadExact(char* dst, size_t n) {
  if (remaining_file_bytes_ < n) {
    return Fail(Status::Corruption(
        "truncated block at offset " + std::to_string(next_block_offset_) +
        " in " + path_ + " (run extent ends mid-block)"));
  }
  size_t got = 0;
  while (got < n) {
    size_t r = 0;
    Status st = file_->Read(dst + got, n - got, &r);
    if (!st.ok()) {
      return Fail(st.WithContext("read run block"));
    }
    if (r == 0) {
      return Fail(Status::Corruption(
          "truncated block at offset " + std::to_string(next_block_offset_) +
          " in " + path_ + " (unexpected EOF)"));
    }
    got += r;
    remaining_file_bytes_ -= r;
  }
  return true;
}

bool FileRecordReader::LoadNextBlock() {
  const uint64_t block_offset = next_block_offset_;
  auto corrupt = [&](const std::string& what) {
    return Fail(Status::Corruption(what + " in block at offset " +
                                   std::to_string(block_offset) + " of " +
                                   path_));
  };

  // Block length header: a varint, read byte by byte.
  uint64_t payload_len = 0;
  size_t header_bytes = 0;
  for (int shift = 0;; shift += 7) {
    char byte;
    if (shift > 63 || !ReadExact(&byte, 1)) {
      if (status_.ok()) {
        return corrupt("overlong block length varint");
      }
      return false;
    }
    ++header_bytes;
    payload_len |= static_cast<uint64_t>(static_cast<uint8_t>(byte) & 0x7f)
                   << shift;
    if ((static_cast<uint8_t>(byte) & 0x80) == 0) {
      break;
    }
  }
  // The smallest payload is one entry (tag + vlen for an empty key and
  // value) plus one restart plus the restart count: 2 + 8 bytes. Compare
  // against the extent without forming payload_len + 4, which a corrupt
  // near-2^64 varint would wrap past the check into a giant resize().
  if (payload_len < 10 || remaining_file_bytes_ < 4 ||
      payload_len > remaining_file_bytes_ - 4) {
    return corrupt("implausible block length " +
                   std::to_string(payload_len));
  }
  block_scratch_.resize(static_cast<size_t>(payload_len));
  char trailer[4];
  if (!ReadExact(block_scratch_.data(), block_scratch_.size()) ||
      !ReadExact(trailer, 4)) {
    return false;
  }
  const uint32_t expected = DecodeFixed32(trailer);
  const uint32_t actual =
      Crc32(0, block_scratch_.data(), block_scratch_.size());
  if (actual != expected) {
    return corrupt("block CRC mismatch");
  }

  // Decode the whole block into the scratch buffer the previous block did
  // not use: records of the previous block keep their addresses until the
  // block after this one is decoded, which upholds the lookback contract.
  // (The shared decoder also rejects entry-less blocks, which would make
  // this load loop decode twice in a row and recycle the scratch buffer
  // still backing the caller's previous record.)
  std::string& decoded = decoded_[1 - active_decoded_];
  Status st =
      DecodeBlockPayload(Slice(block_scratch_), block_offset, path_, &decoded);
  if (!st.ok()) {
    return Fail(st);
  }
  active_decoded_ = 1 - active_decoded_;
  decoded_cur_ = Slice(decoded);
  next_block_offset_ = block_offset + header_bytes + payload_len + 4;
  return true;
}

bool FileRecordReader::Next() {
  if (!status_.ok()) {
    return false;
  }
  while (decoded_cur_.empty()) {
    if (remaining_file_bytes_ == 0) {
      return false;  // Clean end of segment.
    }
    if (!LoadNextBlock()) {
      return false;
    }
  }
  uint64_t klen = 0, vlen = 0;
  if (!GetVarint64(&decoded_cur_, &klen) ||
      !GetVarint64(&decoded_cur_, &vlen) || klen > decoded_cur_.size() ||
      vlen > decoded_cur_.size() - klen) {
    // Unreachable unless the decoder itself is broken: decoded frames are
    // produced, not read, by this class.
    return Fail(Status::Internal("malformed decoded block frame"));
  }
  key_ = Slice(decoded_cur_.data(), klen);
  value_ = Slice(decoded_cur_.data() + klen, vlen);
  decoded_cur_.RemovePrefix(static_cast<size_t>(klen + vlen));
  return true;
}

}  // namespace ngram::mr
