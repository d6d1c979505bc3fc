#include "serve/stats_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "encoding/sequence.h"

namespace ngram::serve {

namespace {

/// Smallest byte string greater than every string prefixed by `prefix`:
/// increment the last byte, dropping trailing 0xFF bytes first. An empty
/// result means no such string exists (all-0xFF prefix) — callers pass it
/// to ScanRange, where empty upper = unbounded.
std::string PrefixSuccessor(const std::string& prefix) {
  std::string successor = prefix;
  while (!successor.empty()) {
    if (static_cast<unsigned char>(successor.back()) != 0xFF) {
      successor.back() = static_cast<char>(
          static_cast<unsigned char>(successor.back()) + 1);
      return successor;
    }
    successor.pop_back();
  }
  return successor;
}

/// Invokes `fn(term, count)` for every stored n-gram extending `prefix` by
/// exactly one term, in ascending term-byte order. The encoded keys in
/// [P, successor(P)) are exactly the keys byte-prefixed by P (the codec is
/// prefix-preserving and varint boundaries self-delimit, see manifest.h);
/// one-term extensions are those whose remainder parses as one varint.
Status ScanContinuations(const ShardedStatsStore& store,
                         const TermSequence& prefix,
                         const std::function<void(TermId, uint64_t)>& fn) {
  std::string lower;
  SequenceCodec::Encode(prefix, &lower);
  const std::string upper = PrefixSuccessor(lower);
  return store.ScanRange(
      Slice(lower), Slice(upper), [&](Slice key, uint64_t count) {
        Slice rest(key.data() + lower.size(), key.size() - lower.size());
        SequenceReader reader(rest);
        TermId term = 0;
        if (reader.Next(&term) && reader.AtEnd()) {
          fn(term, count);
        }
        return true;  // Longer extensions intersperse; keep scanning.
      });
}

/// FrequencySource over an open sharded store — what lets the
/// StupidBackoffModel score interactive queries without ever
/// materializing the statistics table.
class ServedFrequencySource final : public lm::FrequencySource {
 public:
  explicit ServedFrequencySource(
      std::shared_ptr<const ShardedStatsStore> store)
      : store_(std::move(store)) {}

  uint64_t FrequencyOf(const TermSequence& seq,
                       Status* status) const override {
    std::string key;
    SequenceCodec::Encode(seq, &key);
    uint64_t count = 0;
    Status st = store_->Count(Slice(key), &count);
    if (!st.ok()) {
      if (status != nullptr) {
        *status = std::move(st);
      }
      return 0;
    }
    return count;
  }

  Status ForEachContinuation(
      const TermSequence& prefix,
      const std::function<void(TermId, uint64_t)>& fn) const override {
    return ScanContinuations(*store_, prefix, fn);
  }

 private:
  std::shared_ptr<const ShardedStatsStore> store_;
};

}  // namespace

Result<std::shared_ptr<const StatsService::Snapshot>>
StatsService::BuildSnapshot(const std::string& dir,
                            const ServingOptions& options,
                            lm::LanguageModelOptions lm_options) {
  auto snapshot = std::make_shared<Snapshot>();
  NGRAM_ASSIGN_OR_RETURN(snapshot->store,
                         ShardedStatsStore::Open(dir, options));
  const Manifest& manifest = snapshot->store->manifest();
  if (manifest.total_unigrams > 0) {
    lm_options.order = std::min(
        lm_options.order, std::max<uint32_t>(1, manifest.max_order));
    NGRAM_ASSIGN_OR_RETURN(
        lm::StupidBackoffModel model,
        lm::StupidBackoffModel::BuildFromSource(
            std::make_shared<ServedFrequencySource>(snapshot->store),
            lm_options, manifest.total_unigrams));
    snapshot->model =
        std::make_unique<lm::StupidBackoffModel>(std::move(model));
  }
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

Result<std::unique_ptr<StatsService>> StatsService::Open(
    const std::string& dir, ServingOptions options,
    lm::LanguageModelOptions lm_options) {
  std::unique_ptr<StatsService> service(
      new StatsService(dir, std::move(options), lm_options));
  NGRAM_ASSIGN_OR_RETURN(
      auto snapshot,
      BuildSnapshot(service->dir_, service->options_, lm_options));
  std::atomic_store_explicit(&service->snapshot_, std::move(snapshot),
                             std::memory_order_release);
  return service;
}

Result<uint64_t> StatsService::Count(const TermSequence& ngram) const {
  if (ngram.empty()) {
    return Status::InvalidArgument("ngram must be non-empty");
  }
  const std::shared_ptr<const Snapshot> snap = snapshot();
  std::string key;
  SequenceCodec::Encode(ngram, &key);
  uint64_t count = 0;
  NGRAM_RETURN_NOT_OK(snap->store->Count(Slice(key), &count));
  return count;
}

Result<std::vector<Completion>> StatsService::TopKCompletions(
    const TermSequence& prefix, size_t k) const {
  std::vector<Completion> best;
  if (k == 0) {
    return best;
  }
  // Ranks by count desc, then term asc. Terms are distinct within one
  // prefix, so this is a strict total order and the k best are unique.
  const auto better = [](const Completion& a, const Completion& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.term < b.term;
  };
  // A k-sized heap under `better` keeps the worst kept completion on top:
  // a candidate that does not beat it is dropped after one comparison.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  NGRAM_RETURN_NOT_OK(ScanContinuations(
      *snap->store, prefix, [&](TermId term, uint64_t count) {
        const Completion candidate{term, count};
        if (best.size() < k) {
          best.push_back(candidate);
          std::push_heap(best.begin(), best.end(), better);
        } else if (better(candidate, best.front())) {
          std::pop_heap(best.begin(), best.end(), better);
          best.back() = candidate;
          std::push_heap(best.begin(), best.end(), better);
        }
      }));
  std::sort_heap(best.begin(), best.end(), better);
  return best;
}

Result<double> StatsService::Perplexity(const Corpus& text) const {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  if (snap->model == nullptr) {
    return Status::InvalidArgument(
        "store holds no unigrams; perplexity is undefined");
  }
  Status status;
  const double perplexity = snap->model->Perplexity(text, &status);
  NGRAM_RETURN_NOT_OK(status);
  return perplexity;
}

Result<double> StatsService::SentencePerplexity(
    const TermSequence& sentence) const {
  Corpus corpus;
  corpus.docs.emplace_back();
  corpus.docs.back().sentences.push_back(sentence);
  return Perplexity(corpus);
}

kv::BlockCacheStats StatsService::CacheStats() const {
  return snapshot()->store->CacheStats();
}

Status StatsService::Reload(const std::string& dir) {
  MutexLock lock(&reload_mu_);
  NGRAM_ASSIGN_OR_RETURN(
      auto snapshot,
      BuildSnapshot(dir.empty() ? dir_ : dir, options_, lm_options_));
  std::atomic_store_explicit(&snapshot_, std::move(snapshot),
                             std::memory_order_release);
  return Status::OK();
}

std::shared_ptr<const ShardedStatsStore> StatsService::store() const {
  return snapshot()->store;
}

}  // namespace ngram::serve
