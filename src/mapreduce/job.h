// The MapReduce job API: mapper/reducer bases, typed adapters, and RunJob,
// a typed shim over the one non-template driver in job.cc.
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
// docs/architecture.md sections 5-7 describe driver, recovery, invariants.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>

#include "encoding/serde.h"
#include "mapreduce/config.h"
#include "mapreduce/context.h"
#include "mapreduce/counters.h"
#include "mapreduce/dataset.h"
#include "mapreduce/merge.h"
#include "mapreduce/metrics.h"
#include "mapreduce/sort_buffer.h"
#include "util/result.h"

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

/// One map task attempt: a fresh mapper over the task's split (the reader)
/// into the sort buffer, charging MAP_INPUT_RECORDS and the emit counters.
using MapTaskFn = std::function<Status(RecordReader*, SortBuffer*,
                                       TaskCounters*, uint32_t task)>;

/// One reduce task attempt: streams every key group of the merger through
/// a fresh reducer into the output table, charging REDUCE_INPUT_* (and on
/// success REDUCE_INPUT_RECORDS_MAX).
using ReduceTaskFn = std::function<Status(KWayMerger*, RecordTable*,
                                          TaskCounters*, uint32_t reducer)>;

/// A fresh mapper (reducer) for one attempt: raw ones as made, typed ones
/// in their adapter — either way a concrete type the loops call directly.
template <typename M>
auto MakeRawMapper(const std::function<std::unique_ptr<M>()>& make) {
  if constexpr (kIsRawMapper<M>) {
    return make();
  } else {
    return std::make_unique<TypedMapAdapter<M>>(make());
  }
}
template <typename R>
auto MakeRawReducer(const std::function<std::unique_ptr<R>()>& make) {
  if constexpr (kIsRawReducer<R>) {
    return make();
  } else {
    return std::make_unique<TypedReduceAdapter<R>>(make());
  }
}

/// The job driver in job.cc, compiled once for all mapper/reducer pairs.
/// It calls the task bodies once per task attempt, never per record.
Result<JobMetrics> RunJobDriver(const JobConfig& config,
                                const RecordTable& input,
                                const MapTaskFn& map_task,
                                const ReduceTaskFn& reduce_task,
                                RecordTable* output,
                                const RawCombineFn& combiner);

}  // namespace internal

/// Runs one MapReduce job over serialized datasets (the native overload).
///
/// \param config    runtime knobs (slots, reducers, comparator, ...).
/// \param input     serialized input records; map task i sees a contiguous
///        byte-balanced range (split at record boundaries).
/// \param make_mapper / make_reducer  factories, invoked once per task
///        attempt, so user code can capture parameters (tau, sigma,
///        dictionaries). Mappers may be RawMapper or typed Mapper
///        subclasses; reducers RawReducer or typed Reducer — typed ones
///        run through adapters.
/// \param output    filled with serialized reducer emissions, reducer
///        order (whole reducer partitions are moved, not copied).
/// \param combiner  optional local aggregation run during every spill.
///
/// Binds the record and group loops to the concrete mapper and reducer
/// types, so a final class's Map() and Reduce() calls devirtualize, and
/// hands them to internal::RunJobDriver.
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
  const internal::MapTaskFn map_task =
      [&](RecordReader* reader, SortBuffer* buffer, TaskCounters* counters,
          uint32_t task) -> Status {
    MapContext<typename M::KeyOut, typename M::ValueOut> ctx(
        config.partitioner, buffer->num_partitions(), buffer, counters, task);
    const auto mapper = internal::MakeRawMapper(make_mapper);
    Status st = mapper->Setup(&ctx);
    uint64_t records = 0;
    while (st.ok() && reader->Next()) {
      ++records;
      st = mapper->Map(reader->key(), reader->value(), &ctx);
    }
    counters->Increment(kMapInputRecords, records);
    if (st.ok()) {
      st = reader->status();
    }
    if (st.ok()) {
      st = mapper->Cleanup(&ctx);
    }
    ctx.FlushCounters();
    return st;
  };
  const internal::ReduceTaskFn reduce_task =
      [&](KWayMerger* merger, RecordTable* out, TaskCounters* counters,
          uint32_t r) -> Status {
    ReduceContext<typename R::KeyOut, typename R::ValueOut> ctx(out, counters,
                                                                r);
    const RawComparator* grouping = config.EffectiveGrouping();
    // When grouping order == sort order, cached sort prefixes are
    // conclusive for group-boundary detection.
    const bool grouping_is_sort = grouping == config.sort_comparator;
    const auto reducer = internal::MakeRawReducer(make_reducer);
    Status st = reducer->Setup(&ctx);
    uint64_t groups = 0;
    uint64_t records = 0;
    bool have_record = st.ok() && merger->Next();
    while (st.ok() && have_record) {
      // The merger sits on the group's first record; the iterator streams
      // the group zero-copy and detects the boundary on cached key slices
      // — no per-group key copy or decode here.
      GroupValueIterator group(merger, grouping, grouping_is_sort);
      ++groups;
      st = reducer->Reduce(&group, &ctx);
      if (st.ok()) {
        group.SkipRemaining();
      }
      records += group.consumed();
      have_record = group.next_group_ready();
    }
    counters->Increment(kReduceInputGroups, groups);
    counters->Increment(kReduceInputRecords, records);
    if (st.ok()) {
      st = merger->status();
    }
    if (st.ok()) {
      st = reducer->Cleanup(&ctx);
    }
    if (st.ok()) {
      // Partition-skew visibility: the heaviest reduce task.
      counters->UpdateSharedMax(kReduceInputRecordsMax, records);
    }
    return st;
  };
  return internal::RunJobDriver(config, input, map_task, reduce_task, output,
                                combiner);
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
