#include "net/shuffle_fetcher.h"

#include <utility>

#include "mapreduce/spill_writer.h"
#include "util/stopwatch.h"

namespace ngram::net {

ShuffleFetcher::ShuffleFetcher(Options options)
    : options_(std::move(options)), env_(mr::ResolveEnv(options_.env)) {}

Status ShuffleFetcher::DoRequest(std::unique_ptr<Connection>* conn,
                                 MessageType req_type,
                                 const std::string& request,
                                 MessageType want, std::string* response,
                                 mr::TaskCounters* counters) {
  Status st;
  for (uint32_t attempt = 0; attempt <= options_.request_retries;
       ++attempt) {
    if (attempt > 0) {
      // Whatever went wrong, assume the stream is poisoned: reconnect.
      conn->reset();
      counters->Increment(mr::kFetchRetries);
    }
    if (*conn == nullptr) {
      st = options_.transport->Connect(options_.server_address, conn);
      if (!st.ok()) {
        conn->reset();
        continue;
      }
    }
    st = WriteFrame(conn->get(), req_type, Slice(request));
    MessageType got = MessageType::kError;
    if (st.ok()) {
      st = ReadFrame(conn->get(), &got, response);
    }
    if (st.ok()) {
      if (got == MessageType::kError) {
        st = DecodeError(Slice(*response));
      } else if (got != want) {
        st = Status::Corruption("unexpected reply frame type " +
                                std::to_string(static_cast<int>(got)));
      }
    }
    if (st.ok()) {
      return st;
    }
  }
  return st.WithContext("shuffle fetch request to " +
                        options_.server_address + " failed after " +
                        std::to_string(1 + options_.request_retries) +
                        " attempt(s)");
}

Status ShuffleFetcher::Mirror(uint32_t task, uint32_t generation,
                              uint64_t attempt_id,
                              const std::vector<mr::SpillRun>& runs,
                              std::vector<mr::SpillRun>* fetched,
                              mr::TaskCounters* counters) {
  fetched->clear();
  if (runs.empty()) {
    return Status::OK();  // Nothing to publish, nothing to fetch.
  }
  Stopwatch clock;
  Status st = [&]() -> Status {
    PublishRequest publish;
    publish.task = task;
    publish.generation = generation;
    publish.runs.reserve(runs.size());
    for (const mr::SpillRun& run : runs) {
      if (run.in_memory()) {
        // The driver forces file-backed final flushes in fetch mode
        // (SortBuffer::Options::persist_final_flush); an in-memory run
        // here is a driver bug, not a data condition.
        return Status::Internal(
            "fetch shuffle saw an in-memory run for task " +
            std::to_string(task));
      }
      WireRun wire;
      wire.path = run.file_path;
      wire.segments.reserve(run.segments.size());
      for (const mr::RunSegment& seg : run.segments) {
        wire.segments.push_back(
            WireSegment{seg.offset, seg.length, seg.num_records});
      }
      publish.runs.push_back(std::move(wire));
    }
    std::string request;
    EncodePublishRequest(publish, &request);
    std::unique_ptr<Connection> conn;
    std::string response;
    Status rst = DoRequest(&conn, MessageType::kPublishRequest, request,
                           MessageType::kPublishOk, &response, counters);
    if (!rst.ok()) {
      return rst.WithContext("publishing map task " + std::to_string(task));
    }

    for (size_t i = 0; i < runs.size(); ++i) {
      const mr::SpillRun& src = runs[i];
      mr::SpillRun clone;
      clone.file_path = options_.work_dir + "/fetch-" +
                        std::to_string(task) + "-a" +
                        std::to_string(attempt_id) + "-" +
                        std::to_string(i) + ".run";
      mr::SpillWriter::Options wopts;
      wopts.env = options_.env;
      mr::SpillWriter writer(clone.file_path, wopts);
      rst = writer.Open();
      if (!rst.ok()) {
        return rst.WithContext("staging fetched run " + clone.file_path);
      }
      for (size_t p = 0; p < src.segments.size(); ++p) {
        const mr::RunSegment& seg = src.segments[p];
        if (seg.length == 0) {
          continue;
        }
        if (seg.offset != writer.bytes_written()) {
          // Segments of a run file are back-to-back from offset 0; a
          // hole would make the clone's extents lie about its bytes.
          writer.Abandon();
          return Status::Internal(
              "non-contiguous segment in " + src.file_path +
              ": partition " + std::to_string(p) + " at offset " +
              std::to_string(seg.offset) + ", clone cursor at " +
              std::to_string(writer.bytes_written()));
        }
        FetchRequest fetch;
        fetch.task = task;
        fetch.generation = generation;
        fetch.run_index = static_cast<uint32_t>(i);
        fetch.partition = static_cast<uint32_t>(p);
        request.clear();
        EncodeFetchRequest(fetch, &request);
        rst = DoRequest(&conn, MessageType::kFetchRequest, request,
                        MessageType::kFetchData, &response, counters);
        if (!rst.ok()) {
          writer.Abandon();
          return rst.WithContext("fetching partition " + std::to_string(p) +
                                 " of " + src.file_path);
        }
        if (response.size() != seg.length) {
          writer.Abandon();
          return Status::Corruption(
              "fetched segment size mismatch for " + src.file_path +
              " partition " + std::to_string(p) + ": want " +
              std::to_string(seg.length) + " bytes, got " +
              std::to_string(response.size()));
        }
        rst = writer.AppendRawBytes(response.data(), response.size());
        if (!rst.ok()) {
          return rst.WithContext("writing fetched run " + clone.file_path);
        }
        counters->Increment(mr::kShuffleFetchBytes, response.size());
      }
      rst = writer.Close();
      if (!rst.ok()) {
        return rst.WithContext("committing fetched run " + clone.file_path);
      }
      clone.segments = src.segments;
      fetched->push_back(std::move(clone));
    }
    return Status::OK();
  }();
  counters->Increment(mr::kFetchWaitMs,
                      static_cast<uint64_t>(clock.ElapsedMillis()));
  if (!st.ok()) {
    // Leave nothing behind: clones already committed by this call go too.
    mr::RemoveRunFiles(*fetched, options_.env);
    fetched->clear();
  }
  return st;
}

}  // namespace ngram::net
