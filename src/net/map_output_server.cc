#include "net/map_output_server.h"

#include <utility>

namespace ngram::net {
namespace {

/// Read-buffer hint for segment reads (smaller segments get their size).
constexpr size_t kReadBufferBytes = 256 * 1024;

}  // namespace

MapOutputServer::MapOutputServer(Options options)
    : options_(std::move(options)), env_(mr::ResolveEnv(options_.env)) {}

MapOutputServer::~MapOutputServer() { Stop(); }

Status MapOutputServer::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) {
      return Status::InvalidArgument("MapOutputServer already started");
    }
    started_ = true;
  }
  Status st = options_.transport->Listen(options_.address, &listener_);
  if (!st.ok()) {
    return st.WithContext("starting shuffle server on " + options_.address);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MapOutputServer::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopping_) {
      return;  // Never started, or a previous Stop already ran.
    }
    stopping_ = true;
  }
  if (listener_ != nullptr) {
    listener_->Shutdown();
  }
  // Unblock connection threads parked in Read between requests.
  {
    MutexLock lock(&mu_);
    for (const auto& slot : conns_) {
      slot->conn->Abort();
    }
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // After the accept loop exits nothing appends to conns_.
  std::vector<std::unique_ptr<ConnSlot>> slots;
  {
    MutexLock lock(&mu_);
    slots.swap(conns_);
  }
  for (auto& slot : slots) {
    if (slot->thread.joinable()) {
      slot->thread.join();
    }
  }
  listener_.reset();  // SocketListener unlinks its socket file here.
}

uint64_t MapOutputServer::connections_accepted() const {
  MutexLock lock(&mu_);
  return connections_accepted_;
}

uint64_t MapOutputServer::segments_served() const {
  MutexLock lock(&mu_);
  return segments_served_;
}

void MapOutputServer::AcceptLoop() {
  while (true) {
    std::unique_ptr<Connection> conn;
    Status st = listener_->Accept(&conn);
    if (!st.ok()) {
      return;  // Cancelled (shutdown) or a dead fabric: stop accepting.
    }
    auto slot = std::make_unique<ConnSlot>();
    slot->conn = std::move(conn);
    Connection* raw = slot->conn.get();
    MutexLock lock(&mu_);
    if (stopping_) {
      return;  // Drop the just-accepted connection on the floor.
    }
    ++connections_accepted_;
    slot->thread = std::thread([this, raw] { ServeConnection(raw); });
    conns_.push_back(std::move(slot));
  }
}

void MapOutputServer::ServeConnection(Connection* conn) {
  while (true) {
    MessageType type;
    std::string payload;
    bool clean_eof = false;
    Status st = ReadFrame(conn, &type, &payload, /*eof_ok=*/true,
                          &clean_eof);
    if (!st.ok() || clean_eof) {
      // Peer done, aborted, or sent garbage: drop the stream. Abort
      // rather than just stop reading — a fetcher mid-ReadFrame on this
      // stream must get a failure, not block forever on a reply this
      // handler will never write. (No-op after a clean EOF: the peer
      // already closed.)
      conn->Abort();
      return;
    }
    st = HandleRequest(type, payload, conn);
    if (!st.ok()) {
      // Reply could not be delivered; fail the stream so the fetcher's
      // pending read returns and its retry reconnects.
      conn->Abort();
      return;
    }
  }
}

Status MapOutputServer::HandleRequest(MessageType type,
                                      const std::string& payload,
                                      Connection* conn) {
  Status st;
  std::string reply;
  MessageType reply_type = MessageType::kError;
  switch (type) {
    case MessageType::kPublishRequest: {
      PublishRequest req;
      if (!DecodePublishRequest(Slice(payload), &req)) {
        st = Status::Corruption("undecodable publish request");
        break;
      }
      HandlePublish(req);
      reply_type = MessageType::kPublishOk;
      break;
    }
    case MessageType::kFetchRequest: {
      FetchRequest req;
      if (!DecodeFetchRequest(Slice(payload), &req)) {
        st = Status::Corruption("undecodable fetch request");
        break;
      }
      st = LoadSegment(req, &reply);
      if (st.ok()) {
        reply_type = MessageType::kFetchData;
        MutexLock lock(&mu_);
        ++segments_served_;
      }
      break;
    }
    default:
      st = Status::InvalidArgument("unexpected frame type on server");
      break;
  }
  if (!st.ok()) {
    reply.clear();
    EncodeError(st, &reply);
    return WriteFrame(conn, MessageType::kError, Slice(reply));
  }
  return WriteFrame(conn, reply_type, Slice(reply));
}

void MapOutputServer::HandlePublish(const PublishRequest& req) {
  MutexLock lock(&mu_);
  TaskEntry& entry = tasks_[req.task];
  entry.generation = req.generation;
  entry.runs = req.runs;
}

Status MapOutputServer::LoadSegment(const FetchRequest& req,
                                    std::string* payload) {
  std::string path;
  WireSegment seg;
  {
    MutexLock lock(&mu_);
    auto it = tasks_.find(req.task);
    if (it == tasks_.end()) {
      return Status::NotFound("no published manifest for task " +
                              std::to_string(req.task));
    }
    if (it->second.generation != req.generation) {
      return Status::OutOfRange(
          "generation mismatch for task " + std::to_string(req.task) +
          ": have " + std::to_string(it->second.generation) +
          ", fetch names " + std::to_string(req.generation));
    }
    if (req.run_index >= it->second.runs.size()) {
      return Status::NotFound("task " + std::to_string(req.task) +
                              " has no run " +
                              std::to_string(req.run_index));
    }
    const WireRun& run = it->second.runs[req.run_index];
    if (req.partition >= run.segments.size()) {
      return Status::NotFound("run " + run.path + " has no partition " +
                              std::to_string(req.partition));
    }
    path = run.path;
    seg = run.segments[req.partition];
  }
  payload->clear();
  if (seg.length == 0) {
    return Status::OK();
  }
  if (seg.length > kMaxFramePayload) {
    return Status::InvalidArgument("segment larger than max frame: " +
                                   std::to_string(seg.length));
  }
  std::unique_ptr<mr::ReadableFile> file;
  const size_t hint = seg.length < kReadBufferBytes
                           ? static_cast<size_t>(seg.length)
                           : kReadBufferBytes;
  Status st = env_->NewReadableFile(path, hint, &file);
  if (!st.ok()) {
    return st.WithContext("opening published run " + path);
  }
  st = file->Seek(seg.offset);
  if (!st.ok()) {
    return st.WithContext("seeking published run " + path);
  }
  payload->resize(seg.length);
  size_t got = 0;
  while (got < seg.length) {
    size_t chunk = 0;
    st = file->Read(&(*payload)[got], seg.length - got, &chunk);
    if (!st.ok()) {
      return st.WithContext("reading published run " + path);
    }
    if (chunk == 0) {
      return Status::Corruption(
          "published run truncated: " + path + " (segment at offset " +
          std::to_string(seg.offset) + " wants " +
          std::to_string(seg.length) + " bytes, file ended after " +
          std::to_string(got) + ")");
    }
    got += chunk;
  }
  return Status::OK();
}

}  // namespace ngram::net
