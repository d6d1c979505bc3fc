// Block-structured run files: the prefix-compressed at-rest format for
// every persisted record stream — spill runs, map-side final merges,
// reduce-side intermediate passes, and serialized job-boundary tables.
//
// The record *stream* is unchanged (the same (key, value) sequence in the
// same order); only the at-rest representation differs from the raw
// `[klen][vlen][key][value]` framing of record.h. Runs are sorted, so
// adjacent keys share long byte prefixes (under the rev-lex comparator a
// shared suffix becomes a shared prefix), and front-coding stores each key
// as a delta against its predecessor:
//
//   run file := block*
//   block    := [payload_len varint][payload][crc32 fixed32]
//   payload  := entry* restart* [num_restarts fixed32]
//   entry    := [tag byte][shared varint?][non_shared varint?]
//               [vlen varint][key suffix: non_shared bytes][value]
//   restart  := fixed32 payload offset of an entry with shared == 0
//
// The tag byte packs `shared` in its high nibble and `non_shared` (the
// key suffix length) in its low nibble; a nibble of 15 means the real
// count follows as a varint. This departs from LevelDB's three-varint
// entry header deliberately: shuffle keys here are short (varbyte n-gram
// sequences average ~7 bytes), so a third header byte would eat most of
// the front-coding win — with the tag, the entry header costs exactly
// what the raw framing's [klen][vlen] costs in the common case and every
// shared byte is pure savings. An exact duplicate key (frequent in
// n-gram streams) collapses to tag + vlen + value.
//
// Every `restart_interval`-th entry is a restart point (shared == 0, the
// key stored whole), bounding how far a decoder must chain deltas and
// keeping the format seekable-in-principle (LevelDB's block layout). The
// trailing CRC-32 covers the payload and is verified whenever a block is
// read back — integrity checking rides along with decoding instead of
// costing the separate whole-file pass raw runs need (`checksum_spills`).
//
// Blocks are closed at ~`block_bytes` of payload and at every segment
// (partition) boundary, so a RunSegment extent always covers whole blocks
// and partitions stay independently readable. A record larger than
// `block_bytes` simply becomes one oversized block — records never span
// blocks.
//
// Readers: FileRecordReader (record.h) decodes this format with
// `RunFormat::kBlocks`, re-framing each block into one of two alternating
// scratch buffers so the one-record lookback contract holds across block
// boundaries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/record.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::mr {

/// Soft payload target at which a block is closed.
inline constexpr size_t kDefaultBlockBytes = 16 * 1024;
/// Entries between restart points (full keys).
inline constexpr uint32_t kDefaultRestartInterval = 16;

/// \brief Streaming writer for one run file, raw or block-compressed.
///
/// The common surface of SpillWriter (raw framing) and the block writer:
/// Open(), Append() records, FinishSegment() at partition boundaries,
/// Close(). bytes_written() is the logical file offset (buffered bytes
/// included) — callers record per-partition segment extents from it while
/// streaming, exactly as with SpillWriter. raw_bytes() is what the raw
/// framing *would* have occupied, so bytes_written()/raw_bytes() is the
/// observable compression ratio (RUN_BYTES_WRITTEN / RUN_BYTES_RAW).
class RunWriter {
 public:
  virtual ~RunWriter() = default;

  /// Creates/truncates the file. Must be called before Append().
  virtual Status Open() = 0;
  /// Appends one record.
  virtual Status Append(Slice key, Slice value) = 0;
  /// Ends the current block at a segment (partition) boundary so segment
  /// extents cover whole blocks. No-op for the raw format.
  virtual Status FinishSegment() = 0;
  /// Flushes and closes; on failure the partial file is unlinked.
  virtual Status Close() = 0;
  /// Closes (if open) and unlinks the file (task-attempt failure).
  virtual void Abandon() = 0;

  /// Logical bytes written so far (buffered bytes included).
  virtual uint64_t bytes_written() const = 0;
  /// Records appended so far.
  virtual uint64_t records_written() const = 0;
  /// Bytes the raw `[klen][vlen][key][value]` framing would have taken.
  virtual uint64_t raw_bytes() const = 0;
  /// Whole-file CRC-32 (raw format with checksumming only; block files
  /// carry per-block CRCs instead and return 0 here).
  virtual uint32_t crc32() const = 0;
  /// True when this writer produces the block format (readers must use
  /// RunFormat::kBlocks).
  virtual bool block_format() const = 0;
  virtual const std::string& path() const = 0;
};

/// Options for NewRunWriter.
struct RunWriterOptions {
  /// Block format (front-coded keys + per-block CRC) vs raw framing.
  bool compress = true;
  /// Size of the streaming write buffer.
  size_t buffer_bytes = 256 * 1024;
  /// Raw format only: maintain a whole-file CRC-32 (block files always
  /// carry per-block CRCs regardless of this flag).
  bool checksum = false;
  /// Optional caller-owned write buffer of at least `buffer_bytes` bytes
  /// (see SpillWriter::Options::external_buffer).
  char* external_buffer = nullptr;
  /// Bytes written verbatim at the start of the file before any record
  /// (self-describing headers of job-boundary tables). Counted in
  /// bytes_written(); record extents start at preamble.size().
  std::string preamble;
  /// Block format: soft payload size at which a block is closed.
  size_t block_bytes = kDefaultBlockBytes;
  /// Block format: entries between restart points.
  uint32_t restart_interval = kDefaultRestartInterval;
  /// I/O environment for the physical byte sink; nullptr means
  /// IoEnv::Default().
  IoEnv* env = nullptr;
};

/// Creates a writer for `path`: a SpillWriter (raw framing) when
/// `options.compress` is false, the block writer otherwise.
std::unique_ptr<RunWriter> NewRunWriter(std::string path,
                                        const RunWriterOptions& options);

/// Decodes one block payload (front-coded entries + restart array; CRC
/// already verified by the caller) into back-to-back raw
/// `[klen][vlen][key][value]` frames that replace the contents of
/// `*framed` (left empty on failure). The buffer is sized once from the
/// payload and grows only when a block expands past that estimate, so a
/// reused `*framed` keeps its capacity across calls. `block_offset` and
/// `path` only shape the Corruption messages.
/// Shared by FileRecordReader's streaming block loader and the serving
/// layer's mmap-backed random-access block reads, so both paths decode —
/// and reject corruption in — the format identically.
Status DecodeBlockPayload(Slice payload, uint64_t block_offset,
                          const std::string& path, std::string* framed);

/// Parses, CRC-verifies, and decodes the whole block starting at byte
/// `offset` of the in-memory file image `file` (an mmap-backed serving
/// segment). On success `*framed` holds the block's records as raw frames
/// (iterate with MemoryRecordReader) and `*next_offset` is the file
/// offset one past the block's trailer. A flipped bit anywhere in the
/// block yields Corruption naming `path` and the block offset.
Status DecodeBlockAt(Slice file, uint64_t offset, const std::string& path,
                     std::string* framed, uint64_t* next_offset);

/// As DecodeBlockAt, and additionally translates the block's restart array
/// into `*restart_offsets`: entry i is the byte offset within `*framed` of
/// the i-th restart entry's frame (a full-key entry — every
/// `restart_interval`-th record). Always non-empty on success (the first
/// entry of a block is a restart). Point lookups binary-search these
/// anchors and decode-scan at most one restart interval instead of walking
/// the whole block (serve/sharded_store.cc).
Status DecodeBlockAtIndexed(Slice file, uint64_t offset,
                            const std::string& path, std::string* framed,
                            std::vector<uint32_t>* restart_offsets,
                            uint64_t* next_offset);

/// RecordSink adapter over any RunWriter — the glue every writer-backed
/// emit path (spills, merge passes) uses to stream records.
class RunWriterSink final : public RecordSink {
 public:
  explicit RunWriterSink(RunWriter* writer) : writer_(writer) {}
  Status Append(Slice key, Slice value) override {
    return writer_->Append(key, value);
  }

 private:
  RunWriter* writer_;
};

}  // namespace ngram::mr
