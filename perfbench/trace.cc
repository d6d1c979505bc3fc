#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "net/wire.h"

namespace ngram::bench {

namespace {

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string StripTmp(const std::string& path) {
  constexpr size_t kLen = 4;  // ".tmp"
  if (path.size() > kLen &&
      path.compare(path.size() - kLen, kLen, ".tmp") == 0) {
    return path.substr(0, path.size() - kLen);
  }
  return path;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------- Tracer --

SpanId Tracer::Begin(const std::string& name, const std::string& category,
                     SpanId parent) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.category = category;
  span.tid = ThreadNumber();
  span.start_s = NowSeconds();
  MutexLock lock(&mu_);
  spans_.push_back(std::move(span));
  return spans_.size();
}

void Tracer::End(SpanId id, const std::string& args) {
  const double now = NowSeconds();
  MutexLock lock(&mu_);
  Span& span = spans_[id - 1];
  span.end_s = now;
  if (!args.empty()) {
    span.args += span.args.empty() ? args : ", " + args;
  }
}

SpanId Tracer::Complete(const std::string& name, const std::string& category,
                        SpanId parent, double start_s, double end_s,
                        const std::string& args) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.category = category;
  span.tid = ThreadNumber();
  span.start_s = start_s;
  span.end_s = end_s;
  span.args = args;
  MutexLock lock(&mu_);
  spans_.push_back(std::move(span));
  return spans_.size();
}

std::string Tracer::CheckNesting() const {
  MutexLock lock(&mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string what = "span " + std::to_string(i + 1) + " '" +
                             span.category + ":" + span.name + "'";
    if (span.end_s < span.start_s) {
      return what + " was never closed";
    }
    if (span.parent == 0) {
      continue;
    }
    if (span.parent > i) {
      return what + " names a parent recorded after it";
    }
    const Span& parent = spans_[span.parent - 1];
    if (span.start_s < parent.start_s || span.end_s > parent.end_s) {
      return what + " is not inside its parent '" + parent.category + ":" +
             parent.name + "'";
    }
  }
  return "";
}

uint64_t Tracer::CountSpans(const std::string& category,
                            const std::string& needle) const {
  MutexLock lock(&mu_);
  uint64_t n = 0;
  for (const Span& span : spans_) {
    if (span.category == category && span.end_s >= span.start_s &&
        span.args.find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  MutexLock lock(&mu_);
  char times[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
             span.start_s * 1e6, (span.end_s - span.start_s) * 1e6);
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << JsonString(span.name)
        << ", \"cat\": " << JsonString(span.category)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.tid << ", "
        << times << ", \"args\": {\"span_id\": " << i + 1
        << ", \"parent_id\": " << span.parent
        << (span.args.empty() ? "" : ", ") << span.args << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ TracingEnv --

const char* FileClassName(FileClass cls) {
  switch (cls) {
    case FileClass::kSpill:
      return "spill";
    case FileClass::kMapMerge:
      return "map_merge";
    case FileClass::kReduceMerge:
      return "reduce_merge";
    case FileClass::kEarly:
      return "early";
    case FileClass::kClone:
      return "clone";
    case FileClass::kOther:
      break;
  }
  return "other";
}

FileClass ClassifyFile(const std::string& path) {
  const std::string name = Basename(StripTmp(path));
  if (StartsWith(name, "fetch-")) {
    return FileClass::kClone;
  }
  if (StartsWith(name, "early-")) {
    return FileClass::kEarly;
  }
  const bool merge = name.find("-merge-") != std::string::npos;
  if (StartsWith(name, "map-")) {
    return merge ? FileClass::kMapMerge : FileClass::kSpill;
  }
  if (StartsWith(name, "reduce-") && merge) {
    return FileClass::kReduceMerge;
  }
  return FileClass::kOther;
}

namespace {

class TracingWritableFile final : public mr::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<mr::WritableFile> base,
                      std::shared_ptr<TracingEnv::FileRecord> record,
                      TracingEnv::ClassCounters* counters)
      : base_(std::move(base)),
        record_(std::move(record)),
        counters_(counters) {}

  Status Write(const char* data, size_t n) override {
    const uint64_t begin = NowNanos();
    Status st = base_->Write(data, n);
    Charge(begin, st.ok() ? n : 0);
    return st;
  }
  Status Sync() override {
    const uint64_t begin = NowNanos();
    Status st = base_->Sync();
    Charge(begin, 0);
    return st;
  }
  Status Close() override {
    const uint64_t begin = NowNanos();
    Status st = base_->Close();
    Charge(begin, 0);
    return st;
  }

 private:
  void Charge(uint64_t begin, size_t bytes) {
    const uint64_t ns = NowNanos() - begin;
    record_->written += bytes;
    record_->busy_ns += ns;
    counters_->write_bytes += bytes;
    counters_->write_ns += ns;
  }

  std::unique_ptr<mr::WritableFile> base_;
  std::shared_ptr<TracingEnv::FileRecord> record_;
  TracingEnv::ClassCounters* counters_;
};

class TracingReadableFile final : public mr::ReadableFile {
 public:
  TracingReadableFile(std::unique_ptr<mr::ReadableFile> base,
                      std::shared_ptr<TracingEnv::FileRecord> record,
                      TracingEnv::ClassCounters* counters)
      : base_(std::move(base)),
        record_(std::move(record)),
        counters_(counters) {}

  Status Read(char* dst, size_t n, size_t* read) override {
    const uint64_t begin = NowNanos();
    Status st = base_->Read(dst, n, read);
    const uint64_t ns = NowNanos() - begin;
    const uint64_t bytes = st.ok() ? *read : 0;
    record_->read += bytes;
    record_->busy_ns += ns;
    counters_->read_bytes += bytes;
    counters_->read_ns += ns;
    return st;
  }
  Status Seek(uint64_t offset) override { return base_->Seek(offset); }

 private:
  std::unique_ptr<mr::ReadableFile> base_;
  std::shared_ptr<TracingEnv::FileRecord> record_;
  TracingEnv::ClassCounters* counters_;
};

}  // namespace

std::shared_ptr<TracingEnv::FileRecord> TracingEnv::Record(
    const std::string& path, bool create) {
  const std::string key = StripTmp(path);
  MutexLock lock(&mu_);
  auto it = files_.find(key);
  if (it != files_.end()) {
    return it->second;
  }
  auto record = std::make_shared<FileRecord>();
  record->cls = ClassifyFile(key);
  if (create) {
    record->span = tracer_->Begin(Basename(key), "file", parent_.load());
    counters_[static_cast<int>(record->cls)].files += 1;
    files_.emplace(key, record);
  }
  return record;
}

void TracingEnv::EndSpan(const FileRecord& record, const char* how) {
  char args[192];
  snprintf(args, sizeof(args),
           "\"class\": \"%s\", \"bytes_written\": %llu, \"bytes_read\": %llu, "
           "\"busy_ms\": %.3f, \"end\": \"%s\"",
           FileClassName(record.cls),
           static_cast<unsigned long long>(record.written.load()),
           static_cast<unsigned long long>(record.read.load()),
           static_cast<double>(record.busy_ns.load()) / 1e6, how);
  tracer_->End(record.span, args);
}

void TracingEnv::CloseOpenFiles() {
  MutexLock lock(&mu_);
  for (const auto& [path, record] : files_) {
    EndSpan(*record, "kept");
  }
  files_.clear();
}

std::array<IoTotals, kNumFileClasses> TracingEnv::Totals() const {
  std::array<IoTotals, kNumFileClasses> totals;
  for (int c = 0; c < kNumFileClasses; ++c) {
    const ClassCounters& counters = counters_[c];
    totals[c].write_bytes = counters.write_bytes.load();
    totals[c].read_bytes = counters.read_bytes.load();
    totals[c].write_s = static_cast<double>(counters.write_ns.load()) / 1e9;
    totals[c].read_s = static_cast<double>(counters.read_ns.load()) / 1e9;
    totals[c].files = counters.files.load();
  }
  return totals;
}

Status TracingEnv::NewReadableFile(const std::string& path,
                                   size_t buffer_hint,
                                   std::unique_ptr<mr::ReadableFile>* file) {
  std::unique_ptr<mr::ReadableFile> base;
  NGRAM_RETURN_NOT_OK(base_->NewReadableFile(path, buffer_hint, &base));
  std::shared_ptr<FileRecord> record = Record(path, /*create=*/false);
  ClassCounters* counters = &counters_[static_cast<int>(record->cls)];
  *file = std::make_unique<TracingReadableFile>(std::move(base),
                                                std::move(record), counters);
  return Status::OK();
}

Status TracingEnv::NewWritableFile(const std::string& path,
                                   std::unique_ptr<mr::WritableFile>* file) {
  std::unique_ptr<mr::WritableFile> base;
  NGRAM_RETURN_NOT_OK(base_->NewWritableFile(path, &base));
  std::shared_ptr<FileRecord> record = Record(path, /*create=*/true);
  ClassCounters* counters = &counters_[static_cast<int>(record->cls)];
  *file = std::make_unique<TracingWritableFile>(std::move(base),
                                                std::move(record), counters);
  return Status::OK();
}

Status TracingEnv::Rename(const std::string& from, const std::string& to) {
  NGRAM_RETURN_NOT_OK(base_->Rename(from, to));
  const std::string from_key = StripTmp(from);
  const std::string to_key = StripTmp(to);
  MutexLock lock(&mu_);
  auto it = files_.find(from_key);
  if (it == files_.end()) {
    return Status::OK();
  }
  std::shared_ptr<FileRecord> record = it->second;
  record->committed = true;
  if (from_key != to_key) {
    files_.erase(it);
    files_[to_key] = std::move(record);
  }
  return Status::OK();
}

Status TracingEnv::Unlink(const std::string& path) {
  Status st = base_->Unlink(path);
  const std::string key = StripTmp(path);
  const bool staging = key != path;
  MutexLock lock(&mu_);
  auto it = files_.find(key);
  // Unlinking a committed file's stale staging name leaves the file alive.
  if (it != files_.end() && !(staging && it->second->committed)) {
    EndSpan(*it->second, staging ? "abandoned" : "unlinked");
    files_.erase(it);
  }
  return st;
}

Status TracingEnv::FileSize(const std::string& path, uint64_t* size) {
  return base_->FileSize(path, size);
}

Status TracingEnv::NewMmapFile(const std::string& path,
                               std::unique_ptr<mr::MmapFile>* file) {
  return base_->NewMmapFile(path, file);
}

// ------------------------------------------------------ TracingTransport --

namespace {

class TracingConnection final : public net::Connection {
 public:
  TracingConnection(std::unique_ptr<net::Connection> base, Tracer* tracer,
                    SpanId span, TracingTransport::Counters* counters)
      : base_(std::move(base)),
        tracer_(tracer),
        span_(span),
        counters_(counters) {}
  ~TracingConnection() override { EndSpan("closed"); }

  Status Write(const char* data, size_t n) override {
    const uint64_t begin = NowNanos();
    Status st = base_->Write(data, n);
    counters_->write_ns += NowNanos() - begin;
    if (st.ok()) {
      counters_->written_bytes += n;
      written_ += n;
    }
    return st;
  }

  Status Read(char* dst, size_t n, size_t* read) override {
    Status st = base_->Read(dst, n, read);
    if (!st.ok()) {
      EndSpan("error");
    } else if (*read == 0) {
      EndSpan("eof");
    } else {
      counters_->read_bytes += *read;
      read_ += *read;
      ParseFrames(dst, *read);
    }
    return st;
  }

  void Abort() override {
    base_->Abort();
    EndSpan("abort");
  }

 private:
  /// Follows frame boundaries through the inbound stream (17-byte header:
  /// magic u32, payload_len u32 little-endian, type u8, two CRCs).
  void ParseFrames(const char* data, size_t n) {
    while (n > 0) {
      if (payload_left_ > 0) {
        const size_t skip =
            static_cast<size_t>(std::min<uint64_t>(n, payload_left_));
        payload_left_ -= skip;
        data += skip;
        n -= skip;
        continue;
      }
      const size_t take = std::min(n, net::kFrameHeaderBytes - header_have_);
      std::copy(data, data + take, header_ + header_have_);
      header_have_ += take;
      data += take;
      n -= take;
      if (header_have_ == net::kFrameHeaderBytes) {
        const auto* h = reinterpret_cast<const unsigned char*>(header_);
        payload_left_ = static_cast<uint64_t>(h[4]) | (uint64_t{h[5]} << 8) |
                        (uint64_t{h[6]} << 16) | (uint64_t{h[7]} << 24);
        if (h[8] == static_cast<unsigned char>(
                        net::MessageType::kFetchRequest)) {
          counters_->fetch_requests += 1;
          ++requests_;
        }
        header_have_ = 0;
      }
    }
  }

  void EndSpan(const char* how) {
    if (ended_.exchange(true)) {
      return;
    }
    char args[160];
    snprintf(args, sizeof(args),
             "\"bytes_written\": %llu, \"bytes_read\": %llu, "
             "\"fetch_requests\": %llu, \"end\": \"%s\"",
             static_cast<unsigned long long>(written_.load()),
             static_cast<unsigned long long>(read_.load()),
             static_cast<unsigned long long>(requests_.load()), how);
    tracer_->End(span_, args);
  }

  std::unique_ptr<net::Connection> base_;
  Tracer* const tracer_;
  const SpanId span_;
  TracingTransport::Counters* const counters_;
  std::atomic<bool> ended_{false};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> read_{0};
  std::atomic<uint64_t> requests_{0};
  // Frame parser state; only the connection's reader thread touches it.
  char header_[net::kFrameHeaderBytes] = {};
  size_t header_have_ = 0;
  uint64_t payload_left_ = 0;
};

class TracingListener final : public net::Listener {
 public:
  TracingListener(std::unique_ptr<net::Listener> base, Tracer* tracer,
                  SpanId parent, TracingTransport::Counters* counters)
      : base_(std::move(base)),
        tracer_(tracer),
        parent_(parent),
        counters_(counters) {}

  Status Accept(std::unique_ptr<net::Connection>* conn) override {
    std::unique_ptr<net::Connection> base;
    NGRAM_RETURN_NOT_OK(base_->Accept(&base));
    counters_->connections += 1;
    const SpanId span = tracer_->Begin("connection", "net", parent_);
    *conn = std::make_unique<TracingConnection>(std::move(base), tracer_,
                                                span, counters_);
    return Status::OK();
  }
  void Shutdown() override { base_->Shutdown(); }
  const std::string& address() const override { return base_->address(); }

 private:
  std::unique_ptr<net::Listener> base_;
  Tracer* const tracer_;
  const SpanId parent_;
  TracingTransport::Counters* const counters_;
};

}  // namespace

Status TracingTransport::Listen(const std::string& address,
                                std::unique_ptr<net::Listener>* listener) {
  std::unique_ptr<net::Listener> base;
  NGRAM_RETURN_NOT_OK(base_->Listen(address, &base));
  *listener = std::make_unique<TracingListener>(std::move(base), tracer_,
                                                parent_, &counters_);
  return Status::OK();
}

Status TracingTransport::Connect(const std::string& address,
                                 std::unique_ptr<net::Connection>* conn) {
  // Only the server side is traced; dialers see the fabric unchanged.
  return base_->Connect(address, conn);
}

NetTotals TracingTransport::Totals() const {
  NetTotals totals;
  totals.connections = counters_.connections.load();
  totals.written_bytes = counters_.written_bytes.load();
  totals.read_bytes = counters_.read_bytes.load();
  totals.write_s = static_cast<double>(counters_.write_ns.load()) / 1e9;
  totals.fetch_requests = counters_.fetch_requests.load();
  return totals;
}

}  // namespace ngram::bench
