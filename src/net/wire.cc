#include "net/wire.h"

#include "encoding/varint.h"
#include "util/crc32.h"

namespace ngram::net {
namespace {

bool KnownType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kPublishRequest) &&
         type <= static_cast<uint8_t>(MessageType::kError);
}

/// Stable wire codes for Status categories (never reorder: they are a
/// cross-process protocol, unlike the in-memory StatusCode enum).
uint8_t WireCodeOf(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 1;
    case StatusCode::kIOError:
      return 2;
    case StatusCode::kNotFound:
      return 3;
    case StatusCode::kCorruption:
      return 4;
    case StatusCode::kOutOfRange:
      return 5;
    case StatusCode::kAlreadyExists:
      return 6;
    case StatusCode::kResourceExhausted:
      return 7;
    case StatusCode::kInternal:
      return 8;
    case StatusCode::kCancelled:
      return 9;
    case StatusCode::kNotImplemented:
      return 10;
  }
  return 8;  // Internal.
}

Status StatusFromWire(uint8_t code, std::string msg) {
  switch (code) {
    case 1:
      return Status::InvalidArgument(std::move(msg));
    case 2:
      return Status::IOError(std::move(msg));
    case 3:
      return Status::NotFound(std::move(msg));
    case 4:
      return Status::Corruption(std::move(msg));
    case 5:
      return Status::OutOfRange(std::move(msg));
    case 6:
      return Status::AlreadyExists(std::move(msg));
    case 7:
      return Status::ResourceExhausted(std::move(msg));
    case 9:
      return Status::Cancelled(std::move(msg));
    case 10:
      return Status::NotImplemented(std::move(msg));
    default:
      return Status::Internal(std::move(msg));
  }
}

}  // namespace

Status WriteFrame(Connection* conn, MessageType type, Slice payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload.size()));
  }
  char header[kFrameHeaderBytes];
  char* p = EncodeFixed32To(header, kFrameMagic);
  p = EncodeFixed32To(p, static_cast<uint32_t>(payload.size()));
  *p++ = static_cast<char>(type);
  p = EncodeFixed32To(p, Crc32(0, header, kFrameHeaderCrcBytes));
  EncodeFixed32To(p, Crc32(0, payload.data(), payload.size()));
  Status st = conn->Write(header, sizeof(header));
  if (!st.ok()) {
    return st;
  }
  if (!payload.empty()) {
    st = conn->Write(payload.data(), payload.size());
  }
  return st;
}

Status ReadFrame(Connection* conn, MessageType* type, std::string* payload,
                 bool eof_ok, bool* clean_eof) {
  char header[kFrameHeaderBytes];
  Status st = ReadFull(conn, header, sizeof(header), eof_ok, clean_eof);
  if (!st.ok()) {
    return st.WithContext("reading frame header");
  }
  if (clean_eof != nullptr && *clean_eof) {
    return Status::OK();
  }
  if (DecodeFixed32(header) != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  // Validated before the payload read: a damaged payload_len would
  // otherwise block this reader waiting for bytes the peer never sends.
  if (Crc32(0, header, kFrameHeaderCrcBytes) !=
      DecodeFixed32(header + kFrameHeaderCrcBytes)) {
    return Status::Corruption("frame header CRC mismatch");
  }
  const uint32_t payload_len = DecodeFixed32(header + 4);
  const uint8_t raw_type = static_cast<uint8_t>(header[8]);
  const uint32_t expected_crc = DecodeFixed32(header + 13);
  if (payload_len > kMaxFramePayload) {
    return Status::Corruption("frame payload length out of bounds: " +
                              std::to_string(payload_len));
  }
  if (!KnownType(raw_type)) {
    return Status::Corruption("unknown frame type " +
                              std::to_string(raw_type));
  }
  payload->resize(payload_len);
  if (payload_len > 0) {
    st = ReadFull(conn, &(*payload)[0], payload_len);
    if (!st.ok()) {
      return st.WithContext("reading frame payload");
    }
  }
  const uint32_t actual_crc = Crc32(0, payload->data(), payload->size());
  if (actual_crc != expected_crc) {
    return Status::Corruption("frame payload CRC mismatch");
  }
  *type = static_cast<MessageType>(raw_type);
  return Status::OK();
}

void EncodePublishRequest(const PublishRequest& req, std::string* out) {
  PutVarint64(out, req.task);
  PutVarint64(out, req.generation);
  PutVarint64(out, req.runs.size());
  for (const WireRun& run : req.runs) {
    PutVarint64(out, run.path.size());
    out->append(run.path);
    PutVarint64(out, run.segments.size());
    for (const WireSegment& seg : run.segments) {
      PutVarint64(out, seg.offset);
      PutVarint64(out, seg.length);
      PutVarint64(out, seg.num_records);
    }
  }
}

bool DecodePublishRequest(Slice in, PublishRequest* req) {
  uint64_t task = 0;
  uint64_t generation = 0;
  uint64_t num_runs = 0;
  if (!GetVarint64(&in, &task) || !GetVarint64(&in, &generation) ||
      !GetVarint64(&in, &num_runs)) {
    return false;
  }
  // A manifest names at most a task's spill files; an absurd count is a
  // decode gone off the rails, not a big job. So is a count the remaining
  // bytes cannot hold — a run takes at least 2 bytes (path length and
  // segment count varints) — and both are refused before any reserve().
  if (task > 0xffffffffULL || generation > 0xffffffffULL ||
      num_runs > (1u << 20) || num_runs > in.size() / 2) {
    return false;
  }
  req->task = static_cast<uint32_t>(task);
  req->generation = static_cast<uint32_t>(generation);
  req->runs.clear();
  req->runs.reserve(num_runs);
  for (uint64_t i = 0; i < num_runs; ++i) {
    WireRun run;
    uint64_t path_len = 0;
    if (!GetVarint64(&in, &path_len) || path_len > in.size()) {
      return false;
    }
    run.path.assign(in.data(), path_len);
    in.RemovePrefix(path_len);
    uint64_t num_segments = 0;
    // A segment takes at least 3 bytes (three varints).
    if (!GetVarint64(&in, &num_segments) || num_segments > (1u << 24) ||
        num_segments > in.size() / 3) {
      return false;
    }
    run.segments.reserve(num_segments);
    for (uint64_t s = 0; s < num_segments; ++s) {
      WireSegment seg;
      if (!GetVarint64(&in, &seg.offset) || !GetVarint64(&in, &seg.length) ||
          !GetVarint64(&in, &seg.num_records)) {
        return false;
      }
      run.segments.push_back(seg);
    }
    req->runs.push_back(std::move(run));
  }
  return in.empty();
}

void EncodeFetchRequest(const FetchRequest& req, std::string* out) {
  PutVarint64(out, req.task);
  PutVarint64(out, req.generation);
  PutVarint64(out, req.run_index);
  PutVarint64(out, req.partition);
}

bool DecodeFetchRequest(Slice in, FetchRequest* req) {
  uint64_t task = 0;
  uint64_t generation = 0;
  uint64_t run_index = 0;
  uint64_t partition = 0;
  if (!GetVarint64(&in, &task) || !GetVarint64(&in, &generation) ||
      !GetVarint64(&in, &run_index) || !GetVarint64(&in, &partition) ||
      !in.empty()) {
    return false;
  }
  if (task > 0xffffffffULL || generation > 0xffffffffULL ||
      run_index > 0xffffffffULL || partition > 0xffffffffULL) {
    return false;
  }
  req->task = static_cast<uint32_t>(task);
  req->generation = static_cast<uint32_t>(generation);
  req->run_index = static_cast<uint32_t>(run_index);
  req->partition = static_cast<uint32_t>(partition);
  return true;
}

void EncodeError(const Status& status, std::string* out) {
  out->push_back(static_cast<char>(WireCodeOf(status.code())));
  out->append(status.message());
}

Status DecodeError(Slice in) {
  if (in.empty()) {
    return Status::Internal("undecodable error frame (empty payload)");
  }
  const uint8_t code = static_cast<uint8_t>(in.data()[0]);
  return StatusFromWire(code,
                        std::string(in.data() + 1, in.size() - 1));
}

}  // namespace ngram::net
