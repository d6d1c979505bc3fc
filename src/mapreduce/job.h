// The MapReduce job driver.
//
// Execution model (mirroring Hadoop's local semantics):
//   1. The input is a RecordTable of serialized records, split into
//      contiguous byte-balanced ranges at record boundaries, one per map
//      task (byte-size splitting cuts skew when record sizes vary). Map
//      tasks run on up to `map_slots` threads; raw mappers consume
//      key/value slices directly, typed Mappers run through
//      TypedMapAdapter (one key+value decode per record). Each task owns a
//      SortBuffer whose per-partition buckets collect serialized records.
//      Past the byte budget the buckets are sorted independently under the
//      job's sort comparator and streamed through a fixed-size SpillWriter
//      buffer to a run file (partition-major); the final flush stays in
//      memory only if nothing was ever spilled. A task that ends with more
//      than JobConfig::merge_factor runs merges them (bounded fan-in,
//      combiner re-run across runs) into one run file before committing.
//   2. Reduce task r merges partition r of every map run with a loser-tree
//      k-way merge under the sort comparator — never opening more than
//      merge_factor sources at once: excess sources first go through
//      intermediate on-disk merge passes over consecutive source groups
//      (see merge.h) — and streams each key group to
//      the reducer as a zero-copy GroupValueIterator: group boundaries are
//      detected by comparing adjacent records under the grouping
//      comparator on the merger's cached key slices (no per-group key copy
//      or decode). Raw reducers consume serialized slices directly; typed
//      reducers run through TypedReduceAdapter, which decodes the leading
//      key once per group. File-backed segments are read through buffered
//      zero-copy readers honoring a one-record lookback contract.
//   3. Reducers append serialized records to a per-reducer RecordTable;
//      the output table is assembled by moving whole reducer partitions in
//      reducer order (no per-row copy); counters and phase wallclocks land
//      in JobMetrics.
//
// Job boundaries are serialized: chained pipelines (the APRIORI methods,
// the maximality post-filter) hand round k's output RecordTable straight
// to round k+1 as map input, with no typed decode/re-encode in between.
// MemoryTable overloads below adapt typed tables on and off this native
// path for user-facing code and tests.
//
// Map and reduce phases are barrier-separated, and equal keys preserve map
// emission order (stable per-bucket sort + merge ties broken by source
// index, sources ordered by map task id), so job output is fully
// deterministic for a fixed input — regardless of slot count.
// See ROADMAP.md "Shuffle architecture" for the pipeline invariants.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "encoding/serde.h"
#include "mapreduce/config.h"
#include "mapreduce/context.h"
#include "mapreduce/counters.h"
#include "mapreduce/dataset.h"
#include "mapreduce/merge.h"
#include "mapreduce/metrics.h"
#include "mapreduce/shuffle_service.h"
#include "mapreduce/sort_buffer.h"
#include "net/inproc_transport.h"
#include "net/map_output_server.h"
#include "net/shuffle_fetcher.h"
#include "net/socket_transport.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/stopwatch.h"
#include "util/temp_dir.h"
#include "util/thread_pool.h"

namespace ngram::mr {

/// \brief Base class for mappers: map(k1, v1) -> list<(k2, v2)>.
template <typename KIn, typename VIn, typename KOut, typename VOut>
class Mapper {
 public:
  using KeyIn = KIn;
  using ValueIn = VIn;
  using KeyOut = KOut;
  using ValueOut = VOut;
  using Context = MapContext<KOut, VOut>;

  virtual ~Mapper() = default;
  virtual Status Setup(Context* ctx) { return Status::OK(); }
  virtual Status Map(const KIn& key, const VIn& value, Context* ctx) = 0;
  virtual Status Cleanup(Context* ctx) { return Status::OK(); }
};

/// \brief Tag base marking mappers that consume serialized records
/// directly (used for compile-time dispatch in RunJob).
class RawMapperBase {};

/// \brief Base class for raw mappers: map input arrives as serialized
/// key/value slices off the input RecordTable, valid for the duration of
/// the Map() call (plus one further record, per the reader lookback
/// contract).
///
/// This is the native map path for chained jobs: a mapper that re-keys or
/// re-slices serialized records (the n-gram window/suffix mappers, the
/// posting-join re-keyer, the maximality reverser) emits sub-slices of its
/// input through MapContext::EmitRaw / EmitEncodedKey without a typed
/// decode or re-encode. Typed Mappers run through TypedMapAdapter.
template <typename KOut, typename VOut>
class RawMapper : public RawMapperBase {
 public:
  using KeyOut = KOut;
  using ValueOut = VOut;
  using Context = MapContext<KOut, VOut>;

  virtual ~RawMapper() = default;
  virtual Status Setup(Context* ctx) { return Status::OK(); }
  virtual Status Map(Slice key, Slice value, Context* ctx) = 0;
  virtual Status Cleanup(Context* ctx) { return Status::OK(); }
};

template <typename M>
inline constexpr bool kIsRawMapper = std::is_base_of_v<RawMapperBase, M>;

/// \brief Adapts a typed Mapper onto the raw record pipeline: decodes each
/// input record's key and value into reused typed fields (no per-record
/// allocation once warm) and forwards to the typed Map().
template <typename M>
class TypedMapAdapter final
    : public RawMapper<typename M::KeyOut, typename M::ValueOut> {
 public:
  using Context = typename M::Context;

  explicit TypedMapAdapter(std::unique_ptr<M> inner)
      : inner_(std::move(inner)) {}

  Status Setup(Context* ctx) override { return inner_->Setup(ctx); }

  Status Map(Slice key, Slice value, Context* ctx) override {
    if (!Serde<typename M::KeyIn>::Decode(key, &key_)) {
      return Status::Corruption("undecodable map input key");
    }
    if (!Serde<typename M::ValueIn>::Decode(value, &value_)) {
      return Status::Corruption("undecodable map input value");
    }
    return inner_->Map(key_, value_, ctx);
  }

  Status Cleanup(Context* ctx) override { return inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<M> inner_;
  typename M::KeyIn key_{};      // Reused across records.
  typename M::ValueIn value_{};  // Reused across records.
};

/// \brief Tag base marking reducers that consume serialized groups
/// directly (used for compile-time dispatch in RunJob).
class RawReducerBase {};

/// \brief Base class for raw reducers: one call per key group, streaming
/// the group's records zero-copy off the k-way merge.
///
/// `group->key()` is the group's leading serialized key until the first
/// NextValue() call and the last consumed record's key afterwards (see
/// RawValueIterator); values surface as serialized slices that the reducer
/// decodes only if it needs them. Unconsumed values are skipped by the
/// driver. This is the native reduce path: counting/aggregation reducers
/// that re-emit their key verbatim (or drop the group) never decode keys,
/// and SUFFIX-sigma counts group cardinality without touching value bytes.
///
/// The typed Reducer below is adapted onto this API by TypedReduceAdapter;
/// only that adapter pays a per-group key decode.
template <typename KOut, typename VOut>
class RawReducer : public RawReducerBase {
 public:
  using KeyOut = KOut;
  using ValueOut = VOut;
  using Context = ReduceContext<KOut, VOut>;

  virtual ~RawReducer() = default;
  virtual Status Setup(Context* ctx) { return Status::OK(); }
  virtual Status Reduce(GroupValueIterator* group, Context* ctx) = 0;
  /// Invoked once after the last group — SUFFIX-sigma flushes its stacks
  /// here, like the paper's cleanup() hook.
  virtual Status Cleanup(Context* ctx) { return Status::OK(); }
};

/// \brief Base class for typed reducers: reduce(k2, list<v2>) ->
/// list<(k3, v3)>. Runs on the raw pipeline through TypedReduceAdapter.
template <typename KIn, typename VIn, typename KOut, typename VOut>
class Reducer {
 public:
  using KeyIn = KIn;
  using ValueIn = VIn;
  using KeyOut = KOut;
  using ValueOut = VOut;
  using Context = ReduceContext<KOut, VOut>;
  using Values = ValueStream<VIn>;

  virtual ~Reducer() = default;
  virtual Status Setup(Context* ctx) { return Status::OK(); }
  virtual Status Reduce(const KIn& key, Values* values, Context* ctx) = 0;
  /// Invoked once after the last group — SUFFIX-sigma flushes its stacks
  /// here, like the paper's cleanup() hook.
  virtual Status Cleanup(Context* ctx) { return Status::OK(); }
};

template <typename R>
inline constexpr bool kIsRawReducer = std::is_base_of_v<RawReducerBase, R>;

/// \brief Adapts a typed Reducer onto the raw grouped pipeline.
///
/// Decodes the group's leading key once into a reused typed key (Hadoop
/// semantics: under a coarse grouping comparator the reducer sees the
/// group's *first* key in sort order) and wraps the raw iterator in a
/// lazily-decoding ValueStream.
template <typename R>
class TypedReduceAdapter final
    : public RawReducer<typename R::KeyOut, typename R::ValueOut> {
 public:
  using Context = typename R::Context;

  explicit TypedReduceAdapter(std::unique_ptr<R> inner)
      : inner_(std::move(inner)) {}

  Status Setup(Context* ctx) override { return inner_->Setup(ctx); }

  Status Reduce(GroupValueIterator* group, Context* ctx) override {
    if (!Serde<typename R::KeyIn>::Decode(group->key(), &key_)) {
      return Status::Corruption("undecodable reduce key");
    }
    typename R::Values values(group);
    Status st = inner_->Reduce(key_, &values, ctx);
    if (st.ok() && values.decode_error()) {
      st = Status::Corruption("undecodable reduce value");
    }
    return st;
  }

  Status Cleanup(Context* ctx) override { return inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<R> inner_;
  typename R::KeyIn key_{};  // Reused across groups.
};

/// Combiner that sums varint-encoded uint64 values per key (the classic
/// word-count local aggregation from Section V).
inline RawCombineFn SumCombiner() {
  return [](Slice key, RawValueIterator* values,
            RecordSink* sink) -> Status {
    uint64_t total = 0;
    while (values->NextValue()) {
      uint64_t x = 0;
      if (!Serde<uint64_t>::Decode(values->value(), &x)) {
        return Status::Corruption("SumCombiner: bad value");
      }
      total += x;
    }
    // Serde<uint64_t> wire form is a varint; encode into a stack buffer.
    char buf[kMaxVarint64Bytes];
    char* end = EncodeVarint64To(buf, total);
    return sink->Append(key, Slice(buf, static_cast<size_t>(end - buf)));
  };
}

namespace internal {

inline uint32_t DeriveNumMapTasks(const JobConfig& config,
                                  uint64_t input_rows) {
  uint32_t n = config.num_map_tasks != 0 ? config.num_map_tasks
                                         : config.map_slots * 2;
  if (input_rows == 0) {
    return 1;
  }
  if (n > input_rows) {
    n = static_cast<uint32_t>(input_rows);
  }
  return n == 0 ? 1 : n;
}

}  // namespace internal

/// Runs one MapReduce job over serialized datasets (the native overload).
///
/// \param config    runtime knobs (slots, reducers, comparator, ...).
/// \param input     serialized input records; map task i sees a contiguous
///        byte-balanced range (split at record boundaries).
/// \param make_mapper / make_reducer  factories, invoked once per task, so
///        user code can capture parameters (tau, sigma, dictionaries).
///        Mappers may be RawMapper or typed Mapper subclasses; reducers
///        RawReducer or typed Reducer — typed ones run through adapters.
/// \param output    filled with serialized reducer emissions, reducer
///        order (whole reducer partitions are moved, not copied).
/// \param combiner  optional local aggregation run during every spill.
template <typename M, typename R>
Result<JobMetrics> RunJob(
    const JobConfig& config, const RecordTable& input,
    const std::function<std::unique_ptr<M>()>& make_mapper,
    const std::function<std::unique_ptr<R>()>& make_reducer,
    RecordTable* output, RawCombineFn combiner = nullptr) {
  if constexpr (!kIsRawReducer<R>) {
    // Raw mappers declare KeyOut/ValueOut too, so the cross-check holds
    // whenever the reducer is typed.
    static_assert(std::is_same_v<typename M::KeyOut, typename R::KeyIn>,
                  "mapper key-out must equal reducer key-in");
    static_assert(std::is_same_v<typename M::ValueOut, typename R::ValueIn>,
                  "mapper value-out must equal reducer value-in");
  }
  using MKOut = typename M::KeyOut;
  using MVOut = typename M::ValueOut;

  Stopwatch job_clock;
  Counters counters;
  JobMetrics metrics;
  metrics.job_name = config.name;

  // Resolve the spill directory.
  std::string work_dir = config.work_dir;
  std::unique_ptr<TempDir> auto_dir;
  if (work_dir.empty()) {
    auto created = TempDir::Create("ngram-mr");
    if (!created.ok()) {
      return created.status();
    }
    auto_dir = std::make_unique<TempDir>(std::move(created).ValueOrDie());
    work_dir = auto_dir->path().string();
  }

  const uint32_t num_map_tasks =
      internal::DeriveNumMapTasks(config, input.num_records());
  const uint32_t num_reducers = config.num_reducers == 0 ? 1
                                                         : config.num_reducers;

  // ---------------------------------------------------------------- map --
  // Tasks are byte-balanced over the serialized input: with variable-size
  // records (posting lists, chained reducer output) equal row counts can
  // be wildly unequal work, and the byte share tracks work much closer.
  Stopwatch map_clock;
  const std::vector<RecordTable::View> splits =
      input.SplitByBytes(num_map_tasks);
  IoEnv* const io_env = ResolveEnv(config.io_env);

  // Committed map output — generation-tracked so corruption recovery and
  // the early shuffle service can both plan over stable snapshots (see
  // MapOutputRegistry in shuffle_service.h).
  MapOutputRegistry map_outputs;
  map_outputs.Resize(num_map_tasks);

  // Shuffle runs are job-private: whatever run files are still on disk
  // when the driver leaves — success or any early error return — are
  // removed, so a user-provided work_dir comes back clean.
  struct RunFileCleanup {
    MapOutputRegistry* outputs;
    IoEnv* env;
    ~RunFileCleanup() {
      // Every worker has joined by the time the guard runs, but the
      // guarded members still require the (uncontended) lock.
      MutexLock lock(&outputs->mu);
      for (const auto& task : outputs->runs) {
        if (task != nullptr) {
          RemoveRunFiles(*task, env);
        }
      }
      for (const auto& old : outputs->retired) {
        if (old != nullptr) {
          RemoveRunFiles(*old, env);
        }
      }
    }
  } run_file_cleanup{&map_outputs, io_env};

  // Fetch shuffle (JobConfig::fetch_shuffle; docs/architecture.md
  // section 10): committed map output is published to a MapOutputServer
  // and pulled back over a byte-stream transport into local clone run
  // files; the whole reduce side then plans only over the clones, exactly
  // as a remote reducer would. Clones live in their own registry with
  // their own cleanup guard; origin files are kept until job end (they
  // back re-fetches after a producer re-execution), so fetch mode holds
  // roughly 2x the shuffle bytes on disk — the price a real cluster pays
  // in network transfer, paid here in work_dir space.
  const bool fetch_shuffle = config.fetch_shuffle;
  MapOutputRegistry fetched_outputs;
  fetched_outputs.Resize(fetch_shuffle ? num_map_tasks : 0);
  RunFileCleanup fetched_file_cleanup{&fetched_outputs, io_env};

  // Transport, loopback server, and fetcher — declared after the cleanup
  // guards so the server stops (connection threads joined, no extent read
  // in flight) before any run file is unlinked.
  std::unique_ptr<net::InProcTransport> owned_inproc_transport;
  std::unique_ptr<net::SocketTransport> owned_socket_transport;
  std::unique_ptr<net::MapOutputServer> fetch_server;
  std::unique_ptr<net::ShuffleFetcher> fetcher;
  if (fetch_shuffle) {
    net::Transport* transport = nullptr;
    std::string server_address = config.shuffle_server_address;
    const bool external_server = !server_address.empty();
    if (config.shuffle_transport_override != nullptr) {
      transport = config.shuffle_transport_override;
    } else if (external_server ||
               config.shuffle_transport == ShuffleTransport::kUnixSocket) {
      // An external server address always names a Unix socket (the
      // `ngram_tool serve-shuffle` fabric).
      owned_socket_transport = std::make_unique<net::SocketTransport>();
      transport = owned_socket_transport.get();
    } else {
      owned_inproc_transport = std::make_unique<net::InProcTransport>();
      transport = owned_inproc_transport.get();
    }
    if (!external_server) {
      // Loopback: the job serves its own committed runs. Every shuffled
      // byte still crosses the transport — the fetch path under test is
      // the two-process path minus process isolation.
      server_address = owned_socket_transport != nullptr
                           ? work_dir + "/shuffle.sock"
                           : "loopback";
      net::MapOutputServer::Options server_options;
      server_options.transport = transport;
      server_options.address = server_address;
      server_options.env = io_env;
      fetch_server = std::make_unique<net::MapOutputServer>(server_options);
      Status server_st = fetch_server->Start();
      if (!server_st.ok()) {
        return server_st.WithContext(config.name +
                                     " starting loopback shuffle server");
      }
    }
    net::ShuffleFetcher::Options fetcher_options;
    fetcher_options.transport = transport;
    fetcher_options.server_address = server_address;
    fetcher_options.work_dir = work_dir;
    fetcher_options.buffer_bytes = config.spill_buffer_bytes;
    fetcher_options.env = io_env;
    fetcher = std::make_unique<net::ShuffleFetcher>(fetcher_options);
  }

  // The registry the entire reduce side — settle-wait, planning
  // snapshots, eager merging, corruption recovery — works against:
  // fetched clones in fetch mode, the origin registry otherwise. Clone
  // files are byte-identical to their origins with identical segment
  // extents at identical (task, run) positions, so merge planning, the
  // source-order tie-break, and eager-window substitution behave exactly
  // as they do fetch-off: job output is byte-identical on or off.
  MapOutputRegistry& plan_outputs =
      fetch_shuffle ? fetched_outputs : map_outputs;

  // Early shuffle (JobConfig::shuffle_slots): background workers eagerly
  // merge committed map tasks' runs while other map tasks still execute,
  // so reduce tasks find most of their intermediate passes already done
  // when the barrier falls. Declared after the cleanup guard: the service
  // destructor (which joins the workers and unlinks every eager output)
  // must run before the guard unlinks run files a worker may be reading.
  std::unique_ptr<EarlyShuffleService> shuffle;
  if (config.shuffle_slots > 0 && config.merge_factor != 0) {
    EarlyShuffleService::Options shuffle_options;
    shuffle_options.shuffle_slots = config.shuffle_slots;
    shuffle_options.num_map_tasks = num_map_tasks;
    shuffle_options.num_partitions = num_reducers;
    shuffle_options.merge_factor = config.merge_factor;
    shuffle_options.comparator = config.sort_comparator;
    shuffle_options.work_dir = work_dir;
    shuffle_options.spill_buffer_bytes = config.spill_buffer_bytes;
    shuffle_options.env = io_env;
    // In fetch mode the eager mergers read the fetched clones, like
    // every other reduce-side consumer.
    shuffle = std::make_unique<EarlyShuffleService>(shuffle_options,
                                                    &plan_outputs, &counters);
  }

  const uint32_t max_attempts = std::max(1u, config.max_task_attempts);
  auto retry_backoff = [&config](uint32_t failed_attempts) {
    if (config.task_retry_backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config.task_retry_backoff_ms * failed_attempts));
    }
  };

  // Runs one map task to completion — its own attempt-retry loop included
  // — leaving the committed runs in `*out`. Attempt ids start at
  // `attempt_base`, so a re-execution (which passes a higher base) can
  // never collide with the run names of any earlier execution. Task
  // counters flush into `sink`: the job counters for the first execution,
  // a throwaway for corruption-recovery re-executions (whose data the
  // original successful execution already counted). In fetch mode the
  // attempt additionally mirrors its committed runs through the shuffle
  // server into `*fetched_out` — a persistent fetch failure fails the
  // *map* attempt (retried with fresh output here), consuming no reduce
  // attempt, which is exactly Hadoop's fetch-failure blame assignment.
  auto run_map_task = [&](uint32_t t, uint32_t attempt_base, Counters* sink,
                          std::vector<SpillRun>* out,
                          std::vector<SpillRun>* fetched_out) -> Status {
    Status st;
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      const uint32_t attempt_id = attempt_base + attempt;
      // Each attempt starts from scratch: fresh mapper, fresh buffer,
      // fresh counters; previous partial output is discarded.
      out->clear();
      if (fetched_out != nullptr) {
        fetched_out->clear();
      }
      TaskCounters tc(sink);
      SortBuffer::Options opts;
      opts.num_partitions = num_reducers;
      opts.budget_bytes = config.sort_buffer_bytes;
      opts.comparator = config.sort_comparator;
      opts.combiner = combiner;
      opts.work_dir = work_dir;
      opts.spill_buffer_bytes = config.spill_buffer_bytes;
      // Served runs must be file-backed: force the final flush to disk in
      // fetch mode (the record stream — and so job output — is unchanged).
      opts.persist_final_flush = fetch_shuffle;
      opts.env = io_env;
      // Attempt-scoped run names: a retried attempt can never collide
      // with (and silently reuse or orphan) a discarded attempt's files.
      opts.spill_name_prefix =
          "map-" + std::to_string(t) + "-a" + std::to_string(attempt_id);
      SortBuffer buffer(opts, &tc);
      MapContext<MKOut, MVOut> ctx(config.partitioner, num_reducers,
                                   &buffer, &tc, t);
      // The record loop runs against the concrete mapper type (raw
      // mappers directly, typed ones through a stack-local adapter)
      // so every Map() call devirtualizes and inlines.
      auto run_task = [&](auto& mapper) -> Status {
        Status s = mapper.Setup(&ctx);
        std::unique_ptr<RecordReader> reader = input.NewReader(splits[t]);
        uint64_t records = 0;
        while (s.ok() && reader->Next()) {
          ++records;
          s = mapper.Map(reader->key(), reader->value(), &ctx);
        }
        tc.Increment(kMapInputRecords, records);
        // A successful attempt consumed its whole view, so the framed
        // bytes read equal the view's share of the boundary table
        // (failed attempts discard their counters either way).
        tc.Increment(kMapInputBytes, splits[t].bytes);
        if (s.ok()) {
          s = reader->status();
        }
        if (s.ok()) {
          s = mapper.Cleanup(&ctx);
        }
        ctx.FlushCounters();
        return s;
      };
      if constexpr (kIsRawMapper<M>) {
        std::unique_ptr<M> mapper = make_mapper();
        st = run_task(*mapper);
      } else {
        TypedMapAdapter<M> adapter(make_mapper());
        st = run_task(adapter);
      }
      if (st.ok()) {
        st = buffer.Finish(out);
      }
      // Map-side final merge (Hadoop's per-task spill merge): a task
      // that finished with more runs than the merge bound collapses
      // them into one partition-segmented run file, re-running the
      // combiner across runs. Reduce tasks then see at most one
      // file-backed source per map task.
      if (st.ok() && config.merge_factor != 0 &&
          out->size() > config.merge_factor) {
        ExternalMergeOptions merge_options;
        merge_options.comparator = config.sort_comparator;
        merge_options.merge_factor = config.merge_factor;
        merge_options.work_dir = work_dir;
        merge_options.name_prefix =
            "map-" + std::to_string(t) + "-a" + std::to_string(attempt_id);
        merge_options.spill_buffer_bytes = config.spill_buffer_bytes;
        merge_options.map_side = true;
        merge_options.combiner = combiner;
        merge_options.counters = &tc;
        merge_options.env = io_env;
        st = MergeMapRuns(merge_options, num_reducers, out);
      }
      // Fetch mode: publish the committed runs and pull them back through
      // the transport into clone files. Mirror cleans its own clones on
      // failure; the origin runs fall to the shared discard path below.
      // attempt_base / max_attempts is the execution count, which is
      // exactly the registry generation this execution will commit as.
      if (st.ok() && fetcher != nullptr) {
        st = fetcher->Mirror(t, /*generation=*/attempt_base / max_attempts,
                             attempt_id, *out, fetched_out, &tc);
      }
      if (st.ok()) {
        break;
      }
      tc.DiscardPending();
      RemoveRunFiles(*out, io_env);  // Discarded attempts leave no files.
      out->clear();
      if (attempt + 1 < max_attempts) {
        counters.Increment(kTaskRetries);
        NGRAM_LOG_WARN << config.name << " map task " << t << " attempt "
                       << attempt_id << " failed: " << st.ToString()
                       << "; retrying";
        retry_backoff(attempt + 1);
      }
    }
    return st;
  };

  std::vector<Status> map_status(num_map_tasks);
  {
    ThreadPool pool(config.map_slots);
    for (uint32_t t = 0; t < num_map_tasks; ++t) {
      pool.Submit([&, t] {
        auto runs = std::make_shared<std::vector<SpillRun>>();
        auto fetched = std::make_shared<std::vector<SpillRun>>();
        Status st = run_map_task(t, /*attempt_base=*/0, &counters,
                                 runs.get(),
                                 fetch_shuffle ? fetched.get() : nullptr);
        {
          MutexLock lock(&map_outputs.mu);
          map_outputs.runs[t] = std::move(runs);
          map_outputs.executions[t] = 1;
        }
        if (fetch_shuffle) {
          // Sequential locks, never nested: origin registry first, then
          // the clone registry the reduce side plans over.
          MutexLock lock(&fetched_outputs.mu);
          fetched_outputs.runs[t] = std::move(fetched);
          fetched_outputs.executions[t] = 1;
        }
        const bool committed = st.ok();
        map_status[t] = std::move(st);
        if (committed && shuffle != nullptr) {
          shuffle->NotifyMapTaskCommitted(t);
        }
      });
    }
    pool.Wait();
  }
  if (shuffle != nullptr) {
    // The barrier: no new eager merges; in-flight ones drain and the
    // workers join, so the eager output set is settled before any reduce
    // attempt (or early error return) looks at it.
    shuffle->Finish();
  }
  for (uint32_t t = 0; t < num_map_tasks; ++t) {
    if (!map_status[t].ok()) {
      return map_status[t].WithContext(config.name + " map task " +
                                       std::to_string(t));
    }
  }
  metrics.map_phase_ms = map_clock.ElapsedMillis();

  // ------------------------------------------------------------- reduce --
  Stopwatch reduce_clock;
  using KOut = typename R::KeyOut;
  using VOut = typename R::ValueOut;

  // Fetch-failure recovery (Hadoop's protocol for a reducer that cannot
  // fetch a map output): re-execute the producing map task and have the
  // discovering reducer re-plan over the regenerated run. Returns true
  // when task `t`'s runs were replaced — or already had been by another
  // reducer that hit the same corruption — so the caller should re-plan;
  // false when the task's re-execution budget is exhausted or the
  // re-execution itself failed (the corruption is then fatal).
  auto recover_producer = [&](uint32_t t, uint32_t seen_generation) -> bool {
    // All recovery bookkeeping lives on the registry the reduce side
    // plans over (`plan_outputs`): the clone registry in fetch mode, the
    // origin registry otherwise — the generations reducers snapshot are
    // the ones recovery must check and bump.
    plan_outputs.mu.Lock();
    // Another reducer may already be regenerating this task; wait it out
    // rather than re-executing the same task twice.
    while (plan_outputs.regenerating[t] != 0) {
      plan_outputs.cv.Wait();
    }
    if (plan_outputs.generation[t] != seen_generation) {
      plan_outputs.mu.Unlock();
      return true;  // Already replaced since this attempt's snapshot.
    }
    if (plan_outputs.executions[t] >= max_attempts) {
      plan_outputs.mu.Unlock();
      return false;  // Re-execution budget exhausted.
    }
    plan_outputs.regenerating[t] = 1;
    const uint32_t attempt_base = plan_outputs.executions[t] * max_attempts;
    plan_outputs.mu.Unlock();

    // Re-executions count into a throwaway sink: the original execution
    // already published this task's data counters, and the regenerated
    // output exists only once. In fetch mode the re-execution republishes
    // and re-fetches inside run_map_task, so a successful recovery yields
    // both fresh origin runs and fresh clones.
    Counters scratch;
    auto regenerated = std::make_shared<std::vector<SpillRun>>();
    auto refetched = std::make_shared<std::vector<SpillRun>>();
    Status rst = run_map_task(t, attempt_base, &scratch, regenerated.get(),
                              fetch_shuffle ? refetched.get() : nullptr);

    const bool replaced = rst.ok();
    if (fetch_shuffle) {
      // Origin registry first — sequential locks, never nested. The
      // regenerated origin runs back any future re-fetch of this task.
      MutexLock lock(&map_outputs.mu);
      ++map_outputs.executions[t];
      if (replaced) {
        map_outputs.retired.push_back(std::move(map_outputs.runs[t]));
        map_outputs.runs[t] = std::move(regenerated);
        ++map_outputs.generation[t];
      }
    }
    plan_outputs.mu.Lock();
    plan_outputs.regenerating[t] = 0;
    ++plan_outputs.executions[t];
    if (replaced) {
      // Retire the corrupt generation instead of destroying it: stale
      // reduce attempts may still hold pointers into it. Its files are
      // removed with everything else at job end.
      plan_outputs.retired.push_back(std::move(plan_outputs.runs[t]));
      plan_outputs.runs[t] =
          fetch_shuffle ? std::move(refetched) : std::move(regenerated);
      ++plan_outputs.generation[t];
      counters.Increment(kMapReexecutions);
      counters.Increment(kCorruptRunsRecovered);
    } else {
      // Fetch mode: a failed re-execution's clones were already cleaned
      // by Mirror / the attempt loop, so only origin files remain here.
      RemoveRunFiles(*regenerated, io_env);
      NGRAM_LOG_WARN << config.name << " map task " << t
                     << " re-execution failed: " << rst.ToString();
    }
    plan_outputs.mu.Unlock();
    plan_outputs.cv.SignalAll();
    if (replaced && shuffle != nullptr) {
      // The retired generation may back eager intermediates; invalidate
      // them so no later attempt substitutes stale-generation data. (The
      // files stay on disk until the service is destroyed — a stale
      // attempt may still be reading them, same rule as retired runs.)
      shuffle->InvalidateTask(t);
    }
    return replaced;
  };

  // Attributes a Corruption status to the map task whose committed run
  // file the message names (readers always name the file — the
  // error-context contract). -1 when no producer matches, e.g. corruption
  // in an attempt-private intermediate, which a plain retry rewrites.
  auto find_producer =
      [](const std::string& message,
         const std::vector<std::shared_ptr<std::vector<SpillRun>>>& snapshot)
      -> int {
    for (size_t t = 0; t < snapshot.size(); ++t) {
      for (const SpillRun& run : *snapshot[t]) {
        if (!run.file_path.empty() &&
            message.find(run.file_path) != std::string::npos) {
          return static_cast<int>(t);
        }
      }
    }
    return -1;
  };

  std::vector<RecordTable> reducer_outputs(num_reducers);
  std::vector<Status> reduce_status(num_reducers);
  {
    ThreadPool pool(config.reduce_slots);
    for (uint32_t r = 0; r < num_reducers; ++r) {
      pool.Submit([&, r] {
        Status st;
        uint32_t failures = 0;     // Failed attempts (recoveries excluded).
        uint32_t recoveries = 0;   // Producer re-plans this task triggered.
        uint32_t attempt_seq = 0;  // Unique attempt id, re-plans included.
        while (true) {
          // Snapshot the current run generations (shared_ptrs + flat
          // pointer list in task-id order, the determinism contract).
          // The snapshot keeps every planned-over run object alive even
          // if a producer is re-executed under this attempt — the
          // attempt then fails on the corrupt bytes and re-plans; it
          // never reads freed memory.
          std::vector<std::shared_ptr<std::vector<SpillRun>>> snapshot;
          std::vector<uint32_t> generations;
          {
            MutexLock lock(&plan_outputs.mu);
            // Plan only over settled generations: a merge planned while
            // a regeneration is mid-flight would mix the snapshot it
            // wants with files about to be retired.
            for (;;) {
              bool settled = true;
              for (const uint8_t regen : plan_outputs.regenerating) {
                if (regen != 0) {
                  settled = false;
                  break;
                }
              }
              if (settled) {
                break;
              }
              plan_outputs.cv.Wait();
            }
            snapshot = plan_outputs.runs;
            generations = plan_outputs.generation;
          }
          // Assemble the attempt's sources in map-task-id order,
          // substituting each still-valid eager intermediate for the
          // consecutive task range it covers (substitution at the
          // window's position preserves the source-order tie-break —
          // see shuffle_service.h). The shared_ptrs in `eager` keep the
          // outputs alive for the attempt even if they are invalidated
          // mid-attempt.
          std::vector<std::shared_ptr<const EarlyMergeOutput>> eager;
          if (shuffle != nullptr) {
            eager = shuffle->OutputsFor(r, generations);
          }
          std::vector<const SpillRun*> attempt_runs;
          size_t next_eager = 0;
          for (uint32_t t = 0; t < num_map_tasks; ++t) {
            if (next_eager < eager.size() &&
                eager[next_eager]->first_task == t) {
              attempt_runs.push_back(&eager[next_eager]->run);
              t = eager[next_eager]->last_task;
              ++next_eager;
              continue;
            }
            for (const SpillRun& run : *snapshot[t]) {
              attempt_runs.push_back(&run);
            }
          }

          reducer_outputs[r].Clear();
          TaskCounters tc(&counters);
          // Bounded fan-in: intermediate passes merge consecutive groups
          // of at most merge_factor sources to disk until one final pass
          // of <= merge_factor sources can feed the reducer — fds and
          // read buffers stay O(merge_factor), not O(runs).
          ExternalMergeOptions merge_options;
          merge_options.comparator = config.sort_comparator;
          merge_options.merge_factor = config.merge_factor;
          merge_options.work_dir = work_dir;
          merge_options.name_prefix = "reduce-" + std::to_string(r) + "-a" +
                                      std::to_string(attempt_seq);
          merge_options.spill_buffer_bytes = config.spill_buffer_bytes;
          merge_options.counters = &tc;
          merge_options.env = io_env;
          ReduceMergeResult merge_inputs;
          Stopwatch barrier_clock;
          st = PrepareReduceMerge(merge_options, attempt_runs, r,
                                  &merge_inputs);
          // Post-barrier source-prep latency: the intermediate passes
          // this task still owed after the map barrier — what
          // shuffle_slots exists to shrink. Failed attempts discard it
          // with the rest of their counters.
          tc.Increment(kBarrierWaitMs,
                       static_cast<uint64_t>(barrier_clock.ElapsedMillis()));
          KWayMerger merger(std::move(merge_inputs.sources),
                            config.sort_comparator);
          const RawComparator* grouping = config.EffectiveGrouping();
          // When grouping order == sort order, cached sort prefixes are
          // conclusive for group-boundary detection.
          const bool grouping_is_sort = grouping == config.sort_comparator;

          ReduceContext<KOut, VOut> rctx(&reducer_outputs[r], &tc, r);
          std::unique_ptr<RawReducer<KOut, VOut>> reducer;
          if constexpr (kIsRawReducer<R>) {
            reducer = make_reducer();
          } else {
            reducer =
                std::make_unique<TypedReduceAdapter<R>>(make_reducer());
          }
          if (st.ok()) {
            st = reducer->Setup(&rctx);
          }

          uint64_t task_input_groups = 0;
          uint64_t task_input_records = 0;
          bool have_record = st.ok() && merger.Next();
          while (st.ok() && have_record) {
            // The merger sits on the group's first record; the iterator
            // streams the group zero-copy and detects the boundary on
            // cached key slices — no per-group key copy or decode here.
            GroupValueIterator group(&merger, grouping, grouping_is_sort);
            ++task_input_groups;
            st = reducer->Reduce(&group, &rctx);
            if (st.ok()) {
              group.SkipRemaining();
            }
            task_input_records += group.consumed();
            have_record = group.next_group_ready();
          }
          tc.Increment(kReduceInputGroups, task_input_groups);
          tc.Increment(kReduceInputRecords, task_input_records);
          if (st.ok() && !merger.status().ok()) {
            st = merger.status();
          }
          if (st.ok()) {
            st = reducer->Cleanup(&rctx);
          }
          // Intermediate merge outputs are attempt-private scratch: gone
          // as soon as the attempt is over, successful or not.
          RemoveFiles(merge_inputs.intermediate_files, io_env);
          ++attempt_seq;
          if (st.ok()) {
            // Partition-skew visibility: the heaviest reduce task.
            tc.UpdateSharedMax(kReduceInputRecordsMax, task_input_records);
            break;
          }
          tc.DiscardPending();
          reducer_outputs[r].Clear();
          // Corruption naming a producer's committed run: replace that
          // run and re-plan. A successful recovery does not consume one
          // of this task's attempts — it is the producer's failure — but
          // is bounded on its own (per-producer execution budget plus at
          // most max_attempts recoveries per reduce task), so corrupt
          // regenerations cannot loop forever.
          if (st.IsCorruption() && recoveries < max_attempts) {
            // Corruption inside an eager intermediate itself (it went bad
            // on disk after its merge): drop the output and re-plan from
            // the committed runs — re-reading the doomed file could never
            // succeed. Bounded without an attempt budget: invalidation
            // only shrinks the (post-Finish) output set.
            if (shuffle != nullptr &&
                shuffle->InvalidateOutputNamedIn(st.message())) {
              NGRAM_LOG_WARN << config.name << " reduce task " << r
                             << ": dropped corrupt eager intermediate ("
                             << st.ToString()
                             << "); re-planning from the committed runs";
              continue;
            }
            const int victim = find_producer(st.message(), snapshot);
            if (victim >= 0 &&
                recover_producer(static_cast<uint32_t>(victim),
                                 generations[static_cast<size_t>(victim)])) {
              ++recoveries;
              NGRAM_LOG_WARN << config.name << " reduce task " << r
                             << ": replaced corrupt run of map task "
                             << victim << " (" << st.ToString()
                             << "); re-planning";
              continue;
            }
          }
          if (++failures >= max_attempts) {
            break;
          }
          counters.Increment(kTaskRetries);
          NGRAM_LOG_WARN << config.name << " reduce task " << r
                         << " attempt " << attempt_seq - 1
                         << " failed: " << st.ToString() << "; retrying";
          retry_backoff(failures);
        }
        reduce_status[r] = std::move(st);
      });
    }
    pool.Wait();
  }
  for (uint32_t r = 0; r < num_reducers; ++r) {
    if (!reduce_status[r].ok()) {
      return reduce_status[r].WithContext(config.name + " reduce task " +
                                          std::to_string(r));
    }
  }
  metrics.reduce_phase_ms = reduce_clock.ElapsedMillis();

  // Assemble the output by moving whole reducer partitions, in reducer
  // order — no per-row copy and no counting pre-pass (tables track their
  // own sizes).
  output->Clear();
  for (auto& part : reducer_outputs) {
    output->AppendTable(std::move(part));
  }

  metrics.counters = counters.Snapshot();
  metrics.wallclock_ms = job_clock.ElapsedMillis() + config.job_overhead_ms;
  NGRAM_LOG_INFO << "job '" << config.name << "' done in "
                 << metrics.wallclock_ms << " ms: "
                 << metrics.Counter(kMapOutputRecords) << " map records, "
                 << metrics.Counter(kMapOutputBytes) << " map bytes, "
                 << output->num_records() << " output rows";
  return metrics;
}

/// Serialized input, typed output: runs the native job and decodes the
/// output table once (the end-of-pipeline drain).
template <typename M, typename R>
Result<JobMetrics> RunJob(
    const JobConfig& config, const RecordTable& input,
    const std::function<std::unique_ptr<M>()>& make_mapper,
    const std::function<std::unique_ptr<R>()>& make_reducer,
    MemoryTable<typename R::KeyOut, typename R::ValueOut>* output,
    RawCombineFn combiner = nullptr) {
  RecordTable raw_output;
  auto metrics = RunJob<M, R>(config, input, make_mapper, make_reducer,
                              &raw_output, combiner);
  if (!metrics.ok()) {
    return metrics;
  }
  NGRAM_RETURN_NOT_OK(DecodeTable(raw_output, output)
                          .WithContext(config.name + " output decode"));
  return metrics;
}

/// Typed input, serialized output: encodes the input once, then runs the
/// native job (chained pipelines keep the output serialized).
template <typename M, typename R>
Result<JobMetrics> RunJob(
    const JobConfig& config,
    const MemoryTable<typename M::KeyIn, typename M::ValueIn>& input,
    const std::function<std::unique_ptr<M>()>& make_mapper,
    const std::function<std::unique_ptr<R>()>& make_reducer,
    RecordTable* output, RawCombineFn combiner = nullptr) {
  const RecordTable raw_input = EncodeTable(input);
  return RunJob<M, R>(config, raw_input, make_mapper, make_reducer, output,
                      combiner);
}

/// Typed input and output: the convenience shim for user code and tests.
template <typename M, typename R>
Result<JobMetrics> RunJob(
    const JobConfig& config,
    const MemoryTable<typename M::KeyIn, typename M::ValueIn>& input,
    const std::function<std::unique_ptr<M>()>& make_mapper,
    const std::function<std::unique_ptr<R>()>& make_reducer,
    MemoryTable<typename R::KeyOut, typename R::ValueOut>* output,
    RawCombineFn combiner = nullptr) {
  const RecordTable raw_input = EncodeTable(input);
  return RunJob<M, R>(config, raw_input, make_mapper, make_reducer, output,
                      combiner);
}

}  // namespace ngram::mr
