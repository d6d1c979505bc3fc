// StatsService: the query API the serving layer exposes to concurrent
// callers — Count, TopKCompletions, Perplexity — over one atomic snapshot
// of a ShardedStatsStore.
//
// Concurrency model (the HITgram-style interactive platform shape):
//   * A snapshot (ShardedStatsStore + the StupidBackoffModel scoring
//     through it) is immutable once built.
//   * The service holds one `shared_ptr<const Snapshot>` published with
//     release semantics; every query does one acquire-load and then works
//     exclusively on that snapshot — queries in flight during a Reload()
//     finish against the snapshot they started with, and the old store
//     unmaps only when its last query drops the reference.
//   * No query ever takes a service-level lock. The only mutex anywhere
//     on the read path is the BlockCache's LRU mutex (and a cache of
//     capacity 0 removes even that).
//
// Error contract: a bit flip in a segment or manifest surfaces as
// Corruption naming the file — never as a wrong count, ranking, or
// perplexity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/block_cache.h"
#include "lm/language_model.h"
#include "serve/sharded_store.h"
#include "text/corpus.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/result.h"

namespace ngram::serve {

/// One scored completion: the continuation term and its stored frequency.
struct Completion {
  TermId term = 0;
  uint64_t count = 0;
  bool operator==(const Completion& o) const {
    return term == o.term && count == o.count;
  }
};

class StatsService {
 public:
  /// Opens a service over serving directory `dir`. `lm_options` shapes
  /// the Perplexity/backoff scoring; its order is clamped to the stored
  /// max order.
  static Result<std::unique_ptr<StatsService>> Open(
      const std::string& dir, ServingOptions options = {},
      lm::LanguageModelOptions lm_options = {});

  NGRAM_DISALLOW_COPY_AND_ASSIGN(StatsService);

  /// Frequency of `ngram`; 0 when absent (tau cut it off or it never
  /// occurred — indistinguishable by design, as in the batch output).
  Result<uint64_t> Count(const TermSequence& ngram) const;

  /// The stored n-grams extending `prefix` by exactly one term, ordered
  /// by descending count then ascending term id, at most `k`. Unlike the
  /// model's TopContinuations this does not back off — it reports exactly
  /// what the statistics contain, so results are comparable bytewise
  /// across methods and shard counts. Scans every one-term extension but
  /// keeps only the best k: O(n log k) time and O(k) memory for n
  /// extensions; `k == 0` returns an empty list without scanning.
  Result<std::vector<Completion>> TopKCompletions(const TermSequence& prefix,
                                                  size_t k) const;

  /// Stupid-backoff perplexity of `text` under the served statistics.
  Result<double> Perplexity(const Corpus& text) const;

  /// Perplexity of a single sentence (a one-sentence convenience for
  /// interactive callers).
  Result<double> SentencePerplexity(const TermSequence& sentence) const;

  /// Counters of the snapshot's block cache.
  kv::BlockCacheStats CacheStats() const;

  /// Re-opens `dir` (or the original directory when empty) and atomically
  /// swaps the snapshot. Queries already in flight finish on the old one.
  /// Concurrent Reloads are serialized (build-then-publish under
  /// `reload_mu_`), so the published snapshot is always the latest
  /// successful build rather than whichever racing build swapped last.
  Status Reload(const std::string& dir = "") NGRAM_EXCLUDES(reload_mu_);

  /// The current snapshot's store (for inspection and tests).
  std::shared_ptr<const ShardedStatsStore> store() const;

 private:
  struct Snapshot {
    std::shared_ptr<const ShardedStatsStore> store;
    /// Model scoring through `store`; unset when the store holds no
    /// unigrams (Perplexity then returns InvalidArgument).
    std::unique_ptr<lm::StupidBackoffModel> model;
  };

  StatsService(std::string dir, ServingOptions options,
               lm::LanguageModelOptions lm_options)
      : dir_(std::move(dir)),
        options_(std::move(options)),
        lm_options_(lm_options) {}

  static Result<std::shared_ptr<const Snapshot>> BuildSnapshot(
      const std::string& dir, const ServingOptions& options,
      lm::LanguageModelOptions lm_options);

  /// Acquire-loads the current snapshot (the only read-path touch point).
  std::shared_ptr<const Snapshot> snapshot() const {
    return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  }

  const std::string dir_;
  const ServingOptions options_;
  const lm::LanguageModelOptions lm_options_;
  /// Serializes Reload(): held across the snapshot build AND the publish
  /// so two concurrent reloads cannot publish out of build order. Never
  /// touched by queries — the read path stays lock-free.
  Mutex reload_mu_;
  /// The atomic shard table: swapped wholesale by Reload(). Atomic
  /// shared_ptr load/store, not GUARDED_BY(reload_mu_): readers load it
  /// without any lock; reload_mu_ only orders the writers.
  std::shared_ptr<const Snapshot> snapshot_;
};

}  // namespace ngram::serve
