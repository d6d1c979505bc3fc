// The shuffle wire protocol: length-prefixed, CRC-framed request/response
// messages over one Connection (docs/architecture.md section 10).
//
// Frame layout (17-byte header, little-endian, then the payload):
//
//   +----------+-------------+--------+--------------+---------------+=========+
//   | magic u32| payload_len | type   | header crc32 | payload crc32 | payload |
//   | 'NGSF'   | u32         | u8     | u32          | u32           | bytes   |
//   +----------+-------------+--------+--------------+---------------+=========+
//
// The header CRC covers magic + payload_len + type and is checked BEFORE
// the payload read: a damaged length field must fail the frame, not send
// the reader into a blocking read for bytes the peer will never write.
// The payload CRC covers the payload bytes. Any violation is Corruption —
// transports are reliable streams, so a bad frame means injected damage
// or a protocol bug, never reordering.
//
// Conversation: the fetcher publishes a task's run manifest
// (kPublishRequest -> kPublishOk), then pulls one partition segment per
// kFetchRequest -> kFetchData exchange. Server-side failures answer
// kError (a Status code + message) and leave the connection usable for
// the next request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::net {

inline constexpr uint32_t kFrameMagic = 0x4653474eu;  // "NGSF" on the wire.
inline constexpr size_t kFrameHeaderBytes = 17;
/// The prefix of the header the header CRC covers: magic, payload_len,
/// and type.
inline constexpr size_t kFrameHeaderCrcBytes = 9;
/// Upper bound on one frame's payload: fetch responses carry whole
/// partition segments, which are bounded by run-file size; a length
/// beyond this is a structural violation, not a large message.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class MessageType : uint8_t {
  kPublishRequest = 1,  // Fetcher -> server: a task's run manifest.
  kPublishOk = 2,       // Server -> fetcher: manifest installed.
  kFetchRequest = 3,    // Fetcher -> server: one (run, partition) extent.
  kFetchData = 4,       // Server -> fetcher: the segment's raw bytes.
  kError = 5,           // Server -> fetcher: Status code + message.
};

/// One partition's byte extent inside a published run (RunSegment's wire
/// twin — offsets are into the source run file).
struct WireSegment {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t num_records = 0;
};

/// One committed run of a published map task: where its block-format file
/// lives on the serving side and its per-partition extents.
struct WireRun {
  std::string path;
  std::vector<WireSegment> segments;
};

/// kPublishRequest payload: the manifest of one map task's generation.
struct PublishRequest {
  uint32_t task = 0;
  uint32_t generation = 0;
  std::vector<WireRun> runs;
};

/// kFetchRequest payload: one (task, generation, run, partition) extent.
struct FetchRequest {
  uint32_t task = 0;
  uint32_t generation = 0;
  uint32_t run_index = 0;
  uint32_t partition = 0;
};

/// Writes one frame (header + payload) to `conn`.
Status WriteFrame(Connection* conn, MessageType type, Slice payload);

/// Reads one frame. Validates magic, type, length bound, and payload CRC
/// (Corruption on any violation). With `eof_ok` true, an orderly EOF
/// *before the first header byte* returns OK with `*clean_eof` set — the
/// server's between-requests idle read; EOF anywhere else is Corruption.
Status ReadFrame(Connection* conn, MessageType* type, std::string* payload,
                 bool eof_ok = false, bool* clean_eof = nullptr);

void EncodePublishRequest(const PublishRequest& req, std::string* out);
bool DecodePublishRequest(Slice in, PublishRequest* req);

void EncodeFetchRequest(const FetchRequest& req, std::string* out);
bool DecodeFetchRequest(Slice in, FetchRequest* req);

/// kError payloads carry the Status across the wire: a stable code byte
/// plus the message.
void EncodeError(const Status& status, std::string* out);
/// Reconstructs the Status (Internal for an undecodable payload).
Status DecodeError(Slice in);

}  // namespace ngram::net
