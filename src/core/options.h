// Options controlling an n-gram statistics run: the paper's two problem
// parameters (tau, sigma), the method, and the runtime knobs.
#pragma once

#include <cstdint>
#include <string>

namespace ngram::mr {
class IoEnv;
}

namespace ngram {

/// The four methods evaluated in the paper (Sections III and IV).
enum class Method {
  kNaive,         // Algorithm 1: word-count over all n-grams.
  kAprioriScan,   // Algorithm 2: repeated scans + dictionary pruning.
  kAprioriIndex,  // Algorithm 3: positional index + posting-list joins.
  kSuffixSigma,   // Algorithm 4: suffix sorting & aggregation (this paper).
};

const char* MethodName(Method method);

/// How SUFFIX-sigma's reducer aggregates prefix frequencies.
///
/// kStacks is the paper's contribution: two stacks, lazy aggregation,
/// early emission, bookkeeping bounded by the suffix length. kHashMap is
/// the strawman Section IV argues against ("enumerate all prefixes of a
/// received suffix and aggregate their collection frequencies in main
/// memory (e.g., using a hashmap)"): nothing can be emitted early and the
/// bookkeeping grows with the number of distinct n-grams — kept here for
/// the ablation benchmark (see BOOKKEEPING_PEAK_ENTRIES).
enum class SuffixAggregation {
  kStacks,
  kHashMap,
};

/// What the frequencies count (Section II-A): collection frequency
/// (occurrences; the paper's default) or document frequency (documents
/// containing the n-gram; "all methods can easily be modified").
enum class FrequencyMode {
  kCollection,
  kDocument,
};

struct NgramJobOptions {
  /// Minimum collection frequency: only n-grams occurring >= tau times are
  /// reported.
  uint64_t tau = 1;

  /// Maximum n-gram length; 0 means unbounded (the paper's sigma = inf).
  uint32_t sigma = 5;

  Method method = Method::kSuffixSigma;
  FrequencyMode frequency_mode = FrequencyMode::kCollection;

  /// Section V "Document Splits": split fragments at terms with unigram
  /// cf < tau before enumerating n-grams. Benefits all methods.
  bool document_splits = true;

  /// Section V local aggregation: run a combiner in NAIVE / APRIORI-SCAN.
  /// (SUFFIX-sigma keeps doc-id values, as in the paper, and APRIORI-INDEX
  /// aggregates in its mapper already.)
  bool use_combiner = true;

  /// APRIORI-INDEX phase boundary K: lengths <= K are indexed by scanning,
  /// longer ones by posting joins. The paper calibrated K = 4.
  uint32_t apriori_index_k = 4;

  /// SUFFIX-sigma reducer bookkeeping (kStacks = the paper's design;
  /// kHashMap = the Section IV strawman, collection-frequency mode only).
  SuffixAggregation suffix_aggregation = SuffixAggregation::kStacks;

  /// Task fault tolerance: maximum attempts per map/reduce task. Also
  /// bounds how often a map task is re-executed when a reducer finds its
  /// persisted run corrupt (fetch-failure recovery).
  uint32_t max_task_attempts = 1;

  /// I/O environment for every run file (not owned; nullptr = the stdio
  /// default). Chaos tooling passes a FaultEnv here (mapreduce/io_env.h)
  /// to exercise fault recovery end to end.
  mr::IoEnv* io_env = nullptr;

  // ------------------------------------------------- MapReduce runtime --
  uint32_t num_reducers = 8;
  uint32_t map_slots = 4;
  uint32_t reduce_slots = 4;
  uint32_t num_map_tasks = 0;  // 0 = auto.
  size_t sort_buffer_bytes = 64ULL << 20;

  /// Maximum merge fan-in anywhere in the shuffle (Hadoop's
  /// `io.sort.factor`): spill-heavy tasks merge runs in bounded passes
  /// instead of opening every run at once. 0 = unbounded.
  uint32_t merge_factor = 16;

  /// Background eager-merge workers that overlap reduce-side intermediate
  /// merge passes with map execution (the early shuffle,
  /// mapreduce/shuffle_service.h). 0 = off. Output is byte-identical on
  /// or off; ignored when merge_factor == 0.
  uint32_t shuffle_slots = 0;

  /// Fixed per-job overhead (ms) modelling Hadoop job launch/teardown; the
  /// "administrative fix cost" that penalizes multi-job methods.
  double job_overhead_ms = 0.0;

  /// Fetch shuffle (mapreduce/config.h; docs/architecture.md section 10):
  /// pull every map output through a byte-stream transport into local
  /// clone run files and plan the reduce side only over the clones.
  /// Output is byte-identical on or off.
  bool fetch_shuffle = false;

  /// Non-empty: dial an external `ngram_tool serve-shuffle` server at
  /// this Unix-socket path instead of starting a loopback server (which
  /// runs over in-process pipes). Requires fetch_shuffle; the job fails
  /// with InvalidArgument without it.
  std::string shuffle_server_address;

  /// Memory budget for reducer-side buffered state before it spills to
  /// disk: APRIORI-INDEX's join buffers become block runs
  /// (index/spillable_vector.h), APRIORI-SCAN's dictionary a write-only
  /// KVStore log (kvstore/kvstore.h).
  size_t reducer_memory_budget_bytes = 256ULL << 20;

  /// Spill directory (shuffle runs, join-buffer runs, dictionary logs).
  /// Empty = private temp dir.
  std::string work_dir;

  uint32_t sigma_or_max() const {
    return sigma == 0 ? UINT32_MAX : sigma;
  }
};

}  // namespace ngram
