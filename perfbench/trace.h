// The traced pass: an in-memory span recorder written out as Chrome
// trace-event JSON, plus decorators over the runtime's public seams that
// feed it — an IoEnv (every run file, job boundary and serving segment)
// and a net::Transport (the shuffle server's connections). Both decorate
// from outside src/; with tracing off the bench passes the plain
// implementations instead, so the untraced pass carries none of this.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapreduce/io_env.h"
#include "net/transport.h"
#include "util/macros.h"
#include "util/mutex.h"

namespace ngram::bench {

using SpanId = uint64_t;

/// \brief Thread-safe recorder of nested spans.
///
/// A span has a name, a category, the thread that opened it, start and
/// end times (NowSeconds()), its parent span (0 for a root), and a JSON
/// object body of arguments. Spans stay in memory until WriteChromeJson().
class Tracer {
 public:
  Tracer() = default;
  NGRAM_DISALLOW_COPY_AND_ASSIGN(Tracer);

  SpanId Begin(const std::string& name, const std::string& category,
               SpanId parent) NGRAM_EXCLUDES(mu_);
  /// Closes `id`. `args` is a JSON object body without braces
  /// ("\"bytes\": 12, \"class\": \"spill\""), merged into the span's args.
  void End(SpanId id, const std::string& args = "") NGRAM_EXCLUDES(mu_);
  /// Records an already finished span.
  SpanId Complete(const std::string& name, const std::string& category,
                  SpanId parent, double start_s, double end_s,
                  const std::string& args = "") NGRAM_EXCLUDES(mu_);

  /// Empty when every span is closed and lies within its parent's
  /// interval; else a description of the first offender.
  std::string CheckNesting() const NGRAM_EXCLUDES(mu_);
  /// Closed spans of `category` whose args contain `needle`.
  uint64_t CountSpans(const std::string& category,
                      const std::string& needle) const NGRAM_EXCLUDES(mu_);

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// opens in Perfetto or chrome://tracing. False on an I/O error.
  bool WriteChromeJson(const std::string& path) const NGRAM_EXCLUDES(mu_);

 private:
  struct Span {
    SpanId parent = 0;
    std::string name;
    std::string category;
    uint32_t tid = 0;
    double start_s = 0;
    double end_s = -1;  // < 0 while open.
    std::string args;
  };

  mutable Mutex mu_;
  std::vector<Span> spans_ NGRAM_GUARDED_BY(mu_);  // Span id = index + 1.
};

/// JSON string literal for `s` (quoted and escaped).
std::string JsonString(const std::string& s);

// ------------------------------------------------------------ I/O layer --

/// Run-file classes, from the runtime's file names: map-side spills
/// ("map-T-aA-NNNNNN.run"), map-side final merges ("map-*-merge-*"),
/// reduce-side intermediate passes ("reduce-*-merge-*"), early-shuffle
/// outputs ("early-*"), fetch-shuffle clones ("fetch-*"), and everything
/// else (serving segments, MANIFEST, job boundaries).
enum class FileClass : int {
  kSpill,
  kMapMerge,
  kReduceMerge,
  kEarly,
  kClone,
  kOther
};
inline constexpr int kNumFileClasses = 6;
const char* FileClassName(FileClass cls);
FileClass ClassifyFile(const std::string& path);

struct IoTotals {
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
  double write_s = 0;
  double read_s = 0;
  uint64_t files = 0;
};

/// \brief IoEnv decorator: per-class byte/time accounting plus one span
/// per file lifetime (creation to unlink) under the current parent span.
class TracingEnv final : public mr::IoEnv {
 public:
  /// `base` and `tracer` must outlive this env.
  TracingEnv(mr::IoEnv* base, Tracer* tracer) : base_(base), tracer_(tracer) {}
  NGRAM_DISALLOW_COPY_AND_ASSIGN(TracingEnv);

  /// The span new file spans attach to (the method call or build step).
  void set_parent(SpanId parent) { parent_.store(parent); }
  /// Ends the span of every file still alive (files the runtime keeps,
  /// such as serving segments) at the current time.
  void CloseOpenFiles() NGRAM_EXCLUDES(mu_);
  std::array<IoTotals, kNumFileClasses> Totals() const;

  Status NewReadableFile(const std::string& path, size_t buffer_hint,
                         std::unique_ptr<mr::ReadableFile>* file) override;
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<mr::WritableFile>* file) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Unlink(const std::string& path) override;
  Status FileSize(const std::string& path, uint64_t* size) override;
  Status NewMmapFile(const std::string& path,
                     std::unique_ptr<mr::MmapFile>* file) override;

  /// Bytes and busy time of one file, shared with its open handles.
  struct FileRecord {
    FileClass cls = FileClass::kOther;
    SpanId span = 0;
    bool committed = false;
    std::atomic<uint64_t> written{0};
    std::atomic<uint64_t> read{0};
    std::atomic<uint64_t> busy_ns{0};
  };
  struct ClassCounters {
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_ns{0};
    std::atomic<uint64_t> read_ns{0};
    std::atomic<uint64_t> files{0};
  };

 private:
  /// The record for `path` (".tmp" staging names share their target's),
  /// created with a fresh span when `create` and absent.
  std::shared_ptr<FileRecord> Record(const std::string& path, bool create)
      NGRAM_EXCLUDES(mu_);
  void EndSpan(const FileRecord& record, const char* how);

  mr::IoEnv* const base_;
  Tracer* const tracer_;
  std::atomic<SpanId> parent_{0};
  std::array<ClassCounters, kNumFileClasses> counters_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<FileRecord>> files_
      NGRAM_GUARDED_BY(mu_);
};

// ------------------------------------------------------------ net layer --

/// Server-side traffic seen by TracingTransport connections.
struct NetTotals {
  uint64_t connections = 0;
  uint64_t written_bytes = 0;
  uint64_t read_bytes = 0;
  double write_s = 0;
  /// kFetchRequest frames received, parsed from the inbound byte stream.
  uint64_t fetch_requests = 0;
};

/// \brief Transport decorator for the listening side of the shuffle
/// server: counts bytes and write time per accepted connection, parses
/// inbound frame headers to count fetch requests, and records one span
/// per connection (accept to end of stream) under `parent`.
class TracingTransport final : public net::Transport {
 public:
  TracingTransport(net::Transport* base, Tracer* tracer, SpanId parent)
      : base_(base), tracer_(tracer), parent_(parent) {}
  NGRAM_DISALLOW_COPY_AND_ASSIGN(TracingTransport);

  Status Listen(const std::string& address,
                std::unique_ptr<net::Listener>* listener) override;
  Status Connect(const std::string& address,
                 std::unique_ptr<net::Connection>* conn) override;

  NetTotals Totals() const;

  struct Counters {
    std::atomic<uint64_t> connections{0};
    std::atomic<uint64_t> written_bytes{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_ns{0};
    std::atomic<uint64_t> fetch_requests{0};
  };

 private:
  net::Transport* const base_;
  Tracer* const tracer_;
  const SpanId parent_;
  Counters counters_;
};

}  // namespace ngram::bench
