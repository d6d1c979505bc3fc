// Buffered, atomically committed byte sink for one run file.
//
// Bytes stream through a fixed-size write buffer straight to disk, so
// writing a run never materializes it in memory. SpillWriter knows
// nothing about records or blocks: RunWriter (runfile.h) builds the
// block format on top of it, and the shuffle fetcher streams fetched
// segment bytes through it verbatim into clone files.
//
// Commit protocol: Open() stages all bytes in "<path>.tmp"; Close()
// flushes, syncs, and renames the temp file onto the committed path. A
// failure anywhere before the rename (and Abandon()) unlinks the temp
// file, so a partially written run is never visible under its committed
// name and failed task attempts never leak run files.
//
// All physical I/O goes through an IoEnv (io_env.h), so tests can inject
// read/write/sync/rename faults without touching this class.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mapreduce/io_env.h"
#include "util/macros.h"
#include "util/status.h"

namespace ngram::mr {

/// \brief Buffered, streaming byte writer for one run file.
///
/// Usage: Open(), AppendRawBytes(), then Close(). bytes_written() is the
/// logical file offset (buffered bytes included), which callers use to
/// record per-partition segment extents while streaming.
class SpillWriter {
 public:
  static constexpr size_t kDefaultBufferBytes = 256 * 1024;

  struct Options {
    size_t buffer_bytes = kDefaultBufferBytes;
    /// Optional caller-owned write buffer of at least `buffer_bytes`
    /// bytes. When set, Open() performs no allocation; the caller keeps
    /// the memory alive for the writer's lifetime and may hand the same
    /// buffer to successive writers (SortBuffer reuses one per-task buffer
    /// across all of a task's spills).
    char* external_buffer = nullptr;
    /// I/O environment; nullptr means IoEnv::Default().
    IoEnv* env = nullptr;
  };

  explicit SpillWriter(std::string path) : SpillWriter(std::move(path), {}) {}
  SpillWriter(std::string path, Options options);
  ~SpillWriter();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(SpillWriter);

  /// Creates/truncates the staged temp file. Must precede AppendRawBytes().
  Status Open();

  /// Appends `n` bytes through the buffer; appends larger than the whole
  /// buffer bypass it. On failure the partial file is unlinked.
  Status AppendRawBytes(const char* data, size_t n);

  /// Flushes the buffer, syncs, closes, and commits the temp file to
  /// path() via rename. On failure the temp file is unlinked and nothing
  /// appears at path(). Idempotent: later calls return the first result.
  Status Close();

  /// Closes (if open) and unlinks the staged temp file — but only one
  /// this writer actually created; a never-opened writer leaves the path
  /// untouched. Used on task-attempt failure.
  void Abandon();

  /// Logical bytes appended so far (including still-buffered bytes).
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  Status FlushBuffer();
  Status WriteDirect(const char* data, size_t n);

  const std::string path_;
  const std::string tmp_path_;  // path_ + ".tmp": staging name until commit.
  const Options options_;
  IoEnv* const env_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<char[]> owned_buffer_;  // Unused with external_buffer.
  char* buffer_ = nullptr;
  size_t buffered_ = 0;
  uint64_t bytes_written_ = 0;
  bool opened_ = false;  // This writer created the file at path_.
  bool closed_ = false;
  Status close_status_;
};

}  // namespace ngram::mr
