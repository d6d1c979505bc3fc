// Shared mapper/reducer pieces for the counting-style methods (NAIVE and
// APRIORI-SCAN): values are either occurrence counts (collection-frequency
// mode; combinable) or document ids (document-frequency mode).
#pragma once

#include <memory>
#include <unordered_set>

#include "core/input.h"
#include "core/options.h"
#include "core/stats.h"
#include "mapreduce/job.h"

namespace ngram {

/// Raw reducer for (n-gram, value) pairs. In collection mode, values are
/// partial counts and are summed (Algorithm 1's |l| generalized to combined
/// counts); in document mode, values are doc ids and distinct ones are
/// counted. Emits (n-gram, frequency) when frequency >= tau.
///
/// Runs on the raw grouped pipeline end to end: values are decoded
/// straight off the merge stream's slices, and n-gram keys are never
/// decoded at all — groups that pass the threshold re-emit their key bytes
/// verbatim through EmitRaw (sound because both comparators used here,
/// bytewise and reverse-lex, make grouping-equal keys byte-identical, and
/// group->key() stays valid across the drain). Infrequent n-grams (the
/// vast majority under a selective tau) are counted and dropped without a
/// single key decode or copy.
class CountReducer final : public mr::RawReducer<TermSequence, uint64_t> {
 public:
  CountReducer(uint64_t tau, FrequencyMode mode) : tau_(tau), mode_(mode) {}

  Status Reduce(mr::GroupValueIterator* group, Context* ctx) override {
    uint64_t frequency = 0;
    if (mode_ == FrequencyMode::kCollection) {
      while (group->NextValue()) {
        uint64_t v = 0;
        if (!Serde<uint64_t>::Decode(group->value(), &v)) {
          return Status::Corruption("CountReducer: bad count value");
        }
        frequency += v;
      }
    } else {
      distinct_.clear();
      while (group->NextValue()) {
        uint64_t did = 0;
        if (!Serde<uint64_t>::Decode(group->value(), &did)) {
          return Status::Corruption("CountReducer: bad doc-id value");
        }
        distinct_.insert(did);
      }
      frequency = distinct_.size();
    }
    if (frequency >= tau_) {
      // Serde<uint64_t> wire form is a varint; encode into a stack buffer.
      char buf[kMaxVarint64Bytes];
      char* end = EncodeVarint64To(buf, frequency);
      return ctx->EmitRaw(group->key(),
                          Slice(buf, static_cast<size_t>(end - buf)));
    }
    return Status::OK();
  }

 private:
  const uint64_t tau_;
  const FrequencyMode mode_;
  std::unordered_set<uint64_t> distinct_;  // Reused across groups.
};

/// Decodes a serialized (n-gram, frequency) job output into the run's
/// statistics table — the single typed decode at the end of a chained
/// pipeline.
inline Status DrainCounts(const mr::RecordTable& table,
                          NgramStatistics* stats) {
  stats->entries.reserve(stats->entries.size() + table.num_records());
  auto reader = table.NewReader();
  while (reader->Next()) {
    TermSequence seq;
    uint64_t frequency = 0;
    if (!Serde<TermSequence>::Decode(reader->key(), &seq) ||
        !Serde<uint64_t>::Decode(reader->value(), &frequency)) {
      return Status::Corruption("DrainCounts: bad (n-gram, count) row");
    }
    stats->Add(std::move(seq), frequency);
  }
  return reader->status();
}

/// Value a counting mapper emits for one n-gram occurrence: a unit count in
/// collection mode (so the SumCombiner can pre-aggregate), the document id
/// in document mode.
inline uint64_t CountingValue(FrequencyMode mode, uint64_t doc_id) {
  return mode == FrequencyMode::kCollection ? 1 : doc_id;
}

/// Base MapReduce job settings derived from the run options.
inline mr::JobConfig MakeBaseJobConfig(const NgramJobOptions& options,
                                       const std::string& name) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers = options.num_reducers;
  config.map_slots = options.map_slots;
  config.reduce_slots = options.reduce_slots;
  config.num_map_tasks = options.num_map_tasks;
  config.sort_buffer_bytes = options.sort_buffer_bytes;
  config.merge_factor = options.merge_factor;
  config.shuffle_slots = options.shuffle_slots;
  config.job_overhead_ms = options.job_overhead_ms;
  config.work_dir = options.work_dir;
  config.max_task_attempts = options.max_task_attempts;
  config.io_env = options.io_env;
  config.fetch_shuffle = options.fetch_shuffle;
  config.shuffle_server_address = options.shuffle_server_address;
  return config;
}

}  // namespace ngram
