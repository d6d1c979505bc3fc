// MapOutputServer: serves committed run-file segment extents over a
// Transport (docs/architecture.md section 10).
//
// The server is a metadata store fed over the wire: a fetcher first
// *publishes* a map task's run manifest (paths, formats, per-partition
// extents, keyed by task + generation), then fetches any (run, partition)
// extent back as raw bytes. Keeping the manifest wire-fed makes the
// loopback arrangement (job publishes to its own server) and the
// two-process arrangement (`ngram_tool serve-shuffle`) the same protocol;
// the only requirement is that the server process can open the published
// paths — run files are shared through the filesystem, bytes move over
// the transport.
//
// All file reads go through the server's IoEnv, so a FaultEnv composes:
// read faults injected under the server surface to the fetcher as kError
// frames, and write-time corruption of the underlying run travels to the
// fetched clone byte-for-byte (per-block run CRCs catch it at reduce
// time, which is exactly the producer re-execution path).
//
// Generations: every publish for a task replaces its manifest — within
// one job the driver serializes a task's executions, so generations only
// grow, and across jobs the newest manifest must win (every job's first
// execution publishes generation 0). A fetch naming a non-current
// generation is answered with OutOfRange — a stale fetcher must re-plan,
// never silently read a retired generation's extents. Manifests are keyed
// by map task id alone, so a server serves one job at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mapreduce/io_env.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/macros.h"
#include "util/mutex.h"

namespace ngram::net {

class MapOutputServer {
 public:
  struct Options {
    /// Fabric to listen on. Not owned; must outlive the server.
    Transport* transport = nullptr;
    /// Address to bind (transport-specific: inproc name or socket path).
    std::string address;
    /// Environment run files are read through; nullptr = IoEnv::Default().
    mr::IoEnv* env = nullptr;
  };

  explicit MapOutputServer(Options options);
  ~MapOutputServer();
  NGRAM_DISALLOW_COPY_AND_ASSIGN(MapOutputServer);

  /// Binds the address and starts the accept loop. Call once.
  Status Start() NGRAM_EXCLUDES(mu_);

  /// Stops accepting, aborts live connections, joins every thread, and
  /// unbinds. Idempotent; the destructor calls it.
  void Stop() NGRAM_EXCLUDES(mu_);

  /// The bound address (valid after Start()).
  const std::string& address() const { return options_.address; }

  /// Connections accepted so far (tests, serve-shuffle logging).
  uint64_t connections_accepted() const NGRAM_EXCLUDES(mu_);
  /// Fetch requests answered with data so far.
  uint64_t segments_served() const NGRAM_EXCLUDES(mu_);

 private:
  struct TaskEntry {
    uint32_t generation = 0;
    std::vector<WireRun> runs;
  };
  /// One accepted connection and the thread serving it. The thread sets
  /// `done` as its last act; the accept loop then joins it and frees the
  /// slot (closing the connection) before it adds the next one, so a
  /// long-lived server holds only its live connections plus those that
  /// finished since the last accept. Stop() aborts and joins the rest.
  struct ConnSlot {
    std::unique_ptr<Connection> conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Joins and frees every slot whose thread has finished.
  void ReapFinishedConnections() NGRAM_EXCLUDES(mu_);
  void ServeConnection(Connection* conn);
  /// Handles one decoded request frame; a returned error was already
  /// answered (or the connection is dead and the caller drops it).
  Status HandleRequest(MessageType type, const std::string& payload,
                       Connection* conn) NGRAM_EXCLUDES(mu_);
  /// Installs `req` as its task's manifest.
  void HandlePublish(const PublishRequest& req) NGRAM_EXCLUDES(mu_);
  /// Reads the requested extent into `payload` (the kFetchData bytes).
  Status LoadSegment(const FetchRequest& req, std::string* payload)
      NGRAM_EXCLUDES(mu_);

  const Options options_;
  mr::IoEnv* const env_;
  std::unique_ptr<Listener> listener_;
  /// Started by Start(), joined by Stop(); no other thread touches it.
  std::thread accept_thread_;

  mutable Mutex mu_;
  bool started_ NGRAM_GUARDED_BY(mu_) = false;
  bool stopping_ NGRAM_GUARDED_BY(mu_) = false;
  std::unordered_map<uint32_t, TaskEntry> tasks_ NGRAM_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<ConnSlot>> conns_ NGRAM_GUARDED_BY(mu_);
  uint64_t connections_accepted_ NGRAM_GUARDED_BY(mu_) = 0;
  uint64_t segments_served_ NGRAM_GUARDED_BY(mu_) = 0;
};

}  // namespace ngram::net
