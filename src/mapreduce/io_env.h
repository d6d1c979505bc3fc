// Env-style I/O indirection for every persisted byte path of the runtime.
//
// All file I/O performed by the shuffle machinery — SpillWriter (and
// therefore RunWriter) and FileRecordReader — routes through an IoEnv:
// open-for-read, open-for-write, read, write, sync, rename, unlink,
// file-size.
// Production uses the stdio passthrough singleton (IoEnv::Default());
// tests and chaos harnesses substitute a FaultEnv that executes a
// deterministic, seed-derived FaultPlan (EIO on the Nth read, ENOSPC /
// short write on the Nth write, a silent bit flip in the Nth written
// buffer, a failure between write and commit-rename).
//
// Commit protocol: writers stage bytes in "<path>.tmp" and publish with
// Sync() + Rename() on Close() (SpillWriter), so a half-written run is
// never visible under its committed name — a crashed or faulted attempt
// leaves either nothing or a stray .tmp that the writer unlinks itself.
//
// Unlink is deliberately never fault-injected by FaultEnv: cleanup must
// stay reliable or no faulted run could ever satisfy the "clean work_dir"
// half of the chaos dichotomy, and a failed unlink models no interesting
// recovery behavior for this runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/macros.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram::mr {

/// \brief Sequential/positional reader over one file.
class ReadableFile {
 public:
  virtual ~ReadableFile() = default;

  /// Reads up to `n` bytes into `dst`. On success `*read` holds the byte
  /// count actually read — 0 at end of file. A failed read returns
  /// IOError naming the file.
  virtual Status Read(char* dst, size_t n, size_t* read) = 0;

  /// Repositions the next Read() at absolute offset `offset`.
  virtual Status Seek(uint64_t offset) = 0;
};

/// \brief Sequential writer for one file being created.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends exactly `n` bytes, or fails with IOError naming the file.
  /// A short write (disk full) is an error, not a partial success.
  virtual Status Write(const char* data, size_t n) = 0;

  /// Pushes buffered bytes toward the file — the barrier between "data
  /// written" and "commit rename" in the writer commit protocol.
  virtual Status Sync() = 0;

  /// Flushes and closes. Idempotent via the owner (writers call it once).
  virtual Status Close() = 0;
};

/// \brief A whole file mapped read-only into memory.
///
/// The serving layer's segment readers hold one of these per shard: block
/// decoding then works over stable in-memory byte ranges with no per-query
/// read syscalls, and the page cache (not a user-space buffer) backs the
/// cold set. data() stays valid for the object's lifetime.
class MmapFile {
 public:
  virtual ~MmapFile() = default;

  /// The file's entire contents. Empty files map to an empty slice.
  virtual Slice data() const = 0;
};

/// \brief The I/O environment: how the MapReduce runtime touches files.
///
/// All methods are thread-safe (map/reduce tasks on different slots open,
/// read, and write concurrently).
class IoEnv {
 public:
  virtual ~IoEnv() = default;

  /// The production stdio passthrough (process-lifetime singleton).
  static IoEnv* Default();

  /// Opens `path` for reading. `buffer_hint` sizes the stream buffer
  /// (0 = implementation default); readers that issue many tiny reads
  /// (block header varints) pass their budget so physical reads stay
  /// large and sequential.
  virtual Status NewReadableFile(const std::string& path, size_t buffer_hint,
                                 std::unique_ptr<ReadableFile>* file) = 0;

  /// Creates/truncates `path` for writing.
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* file) = 0;

  /// Atomically renames `from` to `to` (the commit step of the
  /// write-to-temp protocol).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Removes `path`. Missing files are not an error (cleanup paths unlink
  /// opportunistically).
  virtual Status Unlink(const std::string& path) = 0;

  /// Size of `path` in bytes.
  virtual Status FileSize(const std::string& path, uint64_t* size) = 0;

  /// Maps `path` read-only into memory. The base implementation uses
  /// mmap(2) directly; environments that decorate the byte streams
  /// (FaultEnv) inherit it unchanged — serving reads verify per-block
  /// CRCs anyway, so corruption injected at *write* time still surfaces.
  virtual Status NewMmapFile(const std::string& path,
                             std::unique_ptr<MmapFile>* file);
};

/// Resolves the configured env: `env` itself, or the default passthrough.
inline IoEnv* ResolveEnv(IoEnv* env) {
  return env != nullptr ? env : IoEnv::Default();
}

// --------------------------------------------------------- fault plans --

/// \brief One deterministic injected fault, derived from a seed.
///
/// A plan names a single fault: its kind and the 1-based global operation
/// index at which it fires (counted per kind across the whole env, in
/// execution order). Exactly one fault fires per plan; an op index past
/// the job's actual operation count simply never fires — the run then
/// must complete byte-identical to a fault-free run, which is the
/// degenerate arm of the chaos dichotomy.
struct FaultPlan {
  enum class Kind : uint8_t {
    kNone = 0,
    kReadError,    // The Nth read call fails with EIO.
    kWriteError,   // The Nth write call fails with ENOSPC, nothing written.
    kShortWrite,   // The Nth write persists a prefix, then fails (torn).
    kBitFlip,      // One bit of the Nth written buffer flips *silently*.
    kCommitError,  // The Nth sync fails: data written, commit never runs.
    kRenameError,  // The Nth rename fails: temp file exists, name doesn't.
  };

  Kind kind = Kind::kNone;
  /// 1-based index of the faulted operation, counted per kind.
  uint64_t op = 0;
  /// kBitFlip: bit position within the written buffer (taken modulo the
  /// buffer's bit width when the fault fires).
  uint64_t bit = 0;

  /// Derives a plan deterministically from `seed` (SplitMix64 over the
  /// seed words): kind, op index, and bit position all follow from the
  /// seed alone, so a chaos sweep is reproducible run-to-run.
  static FaultPlan FromSeed(uint64_t seed);

  /// Human-readable form for chaos-test failure messages.
  std::string ToString() const;

  static const char* KindName(Kind kind);
};

/// \brief IoEnv decorator executing one FaultPlan against a base env.
///
/// Thread-safe: operation counters are atomics, and the fault fires
/// exactly once even when multiple tasks race past the trigger index.
/// Unlink and FileSize always pass through unfaulted (see file comment).
class FaultEnv final : public IoEnv {
 public:
  /// `base` must outlive this env (pass IoEnv::Default() in tests).
  FaultEnv(IoEnv* base, FaultPlan plan) : base_(base), plan_(plan) {}
  NGRAM_DISALLOW_COPY_AND_ASSIGN(FaultEnv);

  Status NewReadableFile(const std::string& path, size_t buffer_hint,
                         std::unique_ptr<ReadableFile>* file) override;
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Unlink(const std::string& path) override;
  Status FileSize(const std::string& path, uint64_t* size) override;

  const FaultPlan& plan() const { return plan_; }
  /// True once the planned fault has executed (error returned or bit
  /// flipped). Tests assert this to prove a scenario really exercised
  /// the injection point.
  bool fault_fired() const { return fired_.load(std::memory_order_acquire); }

  /// Operations seen so far, for calibrating op-index ranges in sweeps.
  uint64_t reads_seen() const { return reads_.load(); }
  uint64_t writes_seen() const { return writes_.load(); }
  uint64_t syncs_seen() const { return syncs_.load(); }
  uint64_t renames_seen() const { return renames_.load(); }

 private:
  friend class FaultReadableFile;
  friend class FaultWritableFile;

  /// Returns true exactly once: when `count` (post-increment value of the
  /// op counter) hits the plan's trigger for `kind`.
  bool ShouldFire(FaultPlan::Kind kind, uint64_t count);

  IoEnv* base_;
  const FaultPlan plan_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> renames_{0};
  std::atomic<bool> fired_{false};
};

}  // namespace ngram::mr
