// Block-structured run files: the one at-rest format for every persisted
// record stream — spill runs, map-side final merges, reduce-side
// intermediate passes, eager early-shuffle outputs, fetched clones, and
// serving shards.
//
// In memory, records travel as the `[klen][vlen][key][value]` frames of
// record.h; on disk they are stored as front-coded blocks. Runs are
// sorted, so
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
// what the record framing's [klen][vlen] costs in the common case and every
// shared byte is pure savings. An exact duplicate key (frequent in
// n-gram streams) collapses to tag + vlen + value.
//
// Every `restart_interval`-th entry is a restart point (shared == 0, the
// key stored whole), bounding how far a decoder must chain deltas and
// keeping the format seekable-in-principle (LevelDB's block layout). The
// trailing CRC-32 covers the payload and is verified whenever a block is
// read back — integrity checking rides along with decoding, so a flipped
// bit anywhere in a run surfaces as Corruption, never as a wrong record.
//
// Blocks are closed at ~`block_bytes` of payload and at every segment
// (partition) boundary, so a RunSegment extent always covers whole blocks
// and partitions stay independently readable. A record larger than
// `block_bytes` simply becomes one oversized block — records never span
// blocks.
//
// Readers: FileRecordReader (record.h) streams this format, re-framing
// each block into one of two alternating scratch buffers so the
// one-record lookback contract holds across block boundaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "encoding/varint.h"
#include "mapreduce/record.h"
#include "mapreduce/spill_writer.h"
#include "util/macros.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::mr {

/// Soft payload target at which a block is closed.
inline constexpr size_t kDefaultBlockBytes = 16 * 1024;
/// Entries between restart points (full keys).
inline constexpr uint32_t kDefaultRestartInterval = 16;

/// Options for RunWriter.
struct RunWriterOptions {
  /// Size of the streaming write buffer.
  size_t buffer_bytes = SpillWriter::kDefaultBufferBytes;
  /// Optional caller-owned write buffer of at least `buffer_bytes` bytes
  /// (see SpillWriter::Options::external_buffer).
  char* external_buffer = nullptr;
  /// Soft payload size at which a block is closed.
  size_t block_bytes = kDefaultBlockBytes;
  /// Entries between restart points.
  uint32_t restart_interval = kDefaultRestartInterval;
  /// I/O environment for the physical byte sink; nullptr means
  /// IoEnv::Default().
  IoEnv* env = nullptr;
};

/// \brief Streaming writer for one block-format run file: front-coded
/// entries, restart points, a CRC-32 trailer per block.
///
/// Usage: Open(), Append() records, FinishSegment() at partition
/// boundaries, Close(). A SpillWriter is the physical byte sink: it owns
/// the streaming buffer (possibly caller-owned), the commit protocol and
/// the logical byte offset; this class only builds block payloads.
/// bytes_written() is that offset (buffered bytes included) — callers
/// record per-partition segment extents from it while streaming.
/// raw_bytes() is what the `[klen][vlen][key][value]` framing would have
/// occupied, so bytes_written()/raw_bytes() is the observable compression
/// ratio (RUN_BYTES_WRITTEN / RUN_BYTES_RAW).
class RunWriter final : public RecordSink {
 public:
  RunWriter(std::string path, const RunWriterOptions& options);
  NGRAM_DISALLOW_COPY_AND_ASSIGN(RunWriter);

  /// Creates the staged file. Must be called before Append().
  Status Open() { return file_.Open(); }
  /// Appends one record.
  Status Append(Slice key, Slice value) override;
  /// Ends the current block at a segment (partition) boundary so segment
  /// extents cover whole blocks.
  Status FinishSegment() { return EmitBlock(); }
  /// Emits the last block, then flushes, syncs and commits the file; on
  /// failure the partial file is unlinked.
  Status Close();
  /// Closes (if open) and unlinks the file (task-attempt failure).
  void Abandon() { file_.Abandon(); }

  /// Logical bytes written so far (buffered bytes included).
  uint64_t bytes_written() const { return file_.bytes_written(); }
  /// Records appended so far.
  uint64_t records_written() const { return records_written_; }
  /// Bytes the raw `[klen][vlen][key][value]` framing would have taken.
  uint64_t raw_bytes() const { return raw_bytes_; }

 private:
  Status EmitBlock();
  /// Room for `n` more payload bytes; returns the write cursor.
  char* Reserve(size_t n);

  const RunWriterOptions options_;
  SpillWriter file_;
  std::string block_;               // High-water payload buffer...
  size_t block_len_ = 0;            // ...and the payload bytes in use.
  std::vector<uint32_t> restarts_;  // Entry offsets with shared == 0.
  uint32_t counter_ = 0;            // Entries since the last restart.
  uint64_t entries_in_block_ = 0;
  std::string last_key_;
  uint64_t records_written_ = 0;
  uint64_t raw_bytes_ = 0;
};

/// Decodes one block payload (front-coded entries + restart array; CRC
/// already verified by the caller) into back-to-back raw
/// `[klen][vlen][key][value]` frames that replace the contents of
/// `*framed` (left empty on failure). The buffer is sized once from the
/// payload and grows only when a block expands past that estimate, so a
/// reused `*framed` keeps its capacity across calls. No byte outside
/// `payload` is read. `block_offset` and `path` only shape the Corruption
/// messages.
/// Shared by FileRecordReader's streaming block loader and the serving
/// layer's mmap-backed random-access block reads, so both paths decode —
/// and reject corruption in — the format identically.
Status DecodeBlockPayload(Slice payload, uint64_t block_offset,
                          const std::string& path, std::string* framed);

/// Parses, CRC-verifies, and decodes the whole block starting at byte
/// `offset` of the in-memory file image `file` (an mmap-backed serving
/// segment) into the layout the serving cache keeps:
///
///   frames of the block's records, back to back
///   [fixed32 frame offset] per restart entry, in order
///   [fixed32 num_restarts]
///
/// Restart i's frame offset is where, within the frames, the i-th restart
/// entry's frame starts (a full-key entry — every `restart_interval`-th
/// record); there is always at least one. Point lookups binary-search
/// these anchors and decode-scan at most one restart interval instead of
/// walking the whole block (serve/sharded_store.cc). Read the result back
/// with ParseBlockView. On success `*next_offset` is the file offset one
/// past the block's trailer; a flipped bit anywhere in the block yields
/// Corruption naming `path` and the block offset, and `*framed` is left
/// empty.
Status DecodeBlockAtIndexed(Slice file, uint64_t offset,
                            const std::string& path, std::string* framed,
                            uint64_t* next_offset);

/// View over DecodeBlockAtIndexed's output: the frames, and the restart
/// anchors that index them.
struct BlockView {
  Slice frames;
  const char* restarts = nullptr;  // num_restarts fixed32 frame offsets.
  uint32_t num_restarts = 0;

  /// Frame offset of restart anchor `i` (< num_restarts).
  uint32_t restart(uint32_t i) const {
    return DecodeFixed32(restarts + 4 * static_cast<size_t>(i));
  }
};

/// Splits `indexed` (DecodeBlockAtIndexed output) into its frames and
/// restart trailer. Corruption naming `path` when the trailer is
/// malformed — a process bug (e.g. a foreign value under a cache key),
/// since the decoder always writes a well-formed one.
Status ParseBlockView(const std::string& indexed, const std::string& path,
                      BlockView* view);

}  // namespace ngram::mr
