// ShuffleFetcher: pulls a published map task's output back over the
// transport and reassembles byte-identical local clone run files
// (docs/architecture.md section 10).
//
// Mirror() publishes the task's run manifest to the MapOutputServer,
// then fetches every partition extent of every run and concatenates the
// extents — in partition order, which *is* the source file's byte
// order — into one local clone file per source run through the
// SpillWriter commit protocol (tmp + sync + rename). Block run files
// carry no file-level trailer and spill segments cover the whole file
// back-to-back, so the clone is byte-identical to its source and the
// original segment extents describe it verbatim: merge planning, eager
// substitution, and the source-order tie-break behave exactly as they
// would over the original file. That is the determinism-under-placement
// argument in one sentence.
//
// Failure handling: each request retries over a fresh connection up to
// `request_retries` extra times (FETCH_RETRIES counts them) — that
// absorbs transient transport faults (dropped connections, truncated
// frames). What retries cannot absorb (persistent faults, a corrupt
// frame every time) fails Mirror(), which unlinks every clone it had
// committed; the caller (the map-attempt loop in job.cc) treats that as
// a failed map attempt, so persistent fetch failure consumes map
// attempts, never reduce attempts. Corruption that travels *silently*
// (the origin run was damaged on disk before serving — transit CRCs all
// pass) surfaces later at reduce time from the clone's own block CRCs,
// with the clone as the error's Status::path(); the driver looks that
// path up in its registry snapshot and re-runs the producing map task.
// Either way fetch failures map onto producer re-execution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/io_env.h"
#include "mapreduce/sort_buffer.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/macros.h"

namespace ngram::net {

class ShuffleFetcher {
 public:
  struct Options {
    /// Fabric to dial. Not owned; must outlive the fetcher.
    Transport* transport = nullptr;
    /// The MapOutputServer's address.
    std::string server_address;
    /// Directory clone run files are written into.
    std::string work_dir;
    /// Extra attempts per failed request (fresh connection each).
    uint32_t request_retries = 2;
    /// Environment clone files are written through.
    mr::IoEnv* env = nullptr;
  };

  explicit ShuffleFetcher(Options options);
  NGRAM_DISALLOW_COPY_AND_ASSIGN(ShuffleFetcher);

  /// Publishes `runs` (the committed, file-backed output of one map-task
  /// execution) under (task, generation), fetches everything back, and
  /// fills `fetched` with one clone SpillRun per source run — same
  /// segment extents, same format flags, local file paths named by
  /// `attempt_id`. On failure every committed clone is unlinked and
  /// `fetched` is empty. Thread-safe across tasks (each call owns its
  /// connections).
  Status Mirror(uint32_t task, uint32_t generation, uint64_t attempt_id,
                const std::vector<mr::SpillRun>& runs,
                std::vector<mr::SpillRun>* fetched,
                mr::TaskCounters* counters);

 private:
  /// One request/response exchange with per-request reconnect retries.
  /// `*conn` carries the live connection across calls.
  Status DoRequest(std::unique_ptr<Connection>* conn, MessageType req_type,
                   const std::string& request, MessageType want,
                   std::string* response, mr::TaskCounters* counters);

  const Options options_;
  mr::IoEnv* const env_;
};

}  // namespace ngram::net
