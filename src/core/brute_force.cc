#include "core/brute_force.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "core/input.h"

namespace ngram {

namespace {

/// Invokes fn(ngram) for every n-gram of every sentence (length <= sigma).
template <typename Fn>
void ForEachNgram(const Corpus& corpus, uint32_t sigma, Fn fn) {
  const uint64_t max_len = sigma == 0 ? UINT64_MAX : sigma;
  TermSequence ngram;
  for (const auto& doc : corpus.docs) {
    for (const auto& sentence : doc.sentences) {
      for (size_t b = 0; b < sentence.size(); ++b) {
        ngram.clear();
        for (size_t e = b; e < sentence.size() && (e - b) < max_len; ++e) {
          ngram.push_back(sentence[e]);
          fn(doc, ngram);
        }
      }
    }
  }
}

/// Invokes fn(|piece|) for every piece a mapper sees: one input row per
/// sentence, split by ForEachPieceRange exactly as the mappers split it.
template <typename Fn>
void ForEachMapperPiece(const Corpus& corpus, uint64_t tau,
                        bool document_splits, Fn fn) {
  const UnigramFrequencies unigram_cf = ComputeUnigramFrequencies(corpus);
  for (const auto& doc : corpus.docs) {
    for (const auto& sentence : doc.sentences) {
      ForEachPieceRange(sentence, document_splits, unigram_cf, tau,
                        [&](size_t b, size_t e) { fn(e - b); });
    }
  }
}

/// True iff `sub` occurs as a contiguous subsequence of `seq`.
bool ContainsSubsequence(const TermSequence& seq, const TermSequence& sub) {
  if (sub.size() > seq.size()) {
    return false;
  }
  for (size_t j = 0; j + sub.size() <= seq.size(); ++j) {
    bool match = true;
    for (size_t i = 0; i < sub.size(); ++i) {
      if (seq[j + i] != sub[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      return true;
    }
  }
  return false;
}

}  // namespace

NgramStatistics BruteForceCounts(const Corpus& corpus, uint64_t tau,
                                 uint32_t sigma) {
  std::map<TermSequence, uint64_t> counts;
  ForEachNgram(corpus, sigma,
               [&](const Document&, const TermSequence& g) { ++counts[g]; });
  NgramStatistics stats;
  for (const auto& [seq, cf] : counts) {
    if (cf >= tau) {
      stats.Add(seq, cf);
    }
  }
  stats.SortCanonical();
  return stats;
}

NgramStatistics BruteForceDocumentFrequencies(const Corpus& corpus,
                                              uint64_t tau, uint32_t sigma) {
  std::map<TermSequence, std::set<uint64_t>> docs;
  ForEachNgram(corpus, sigma, [&](const Document& d, const TermSequence& g) {
    docs[g].insert(d.id);
  });
  NgramStatistics stats;
  for (const auto& [seq, dset] : docs) {
    if (dset.size() >= tau) {
      stats.Add(seq, dset.size());
    }
  }
  stats.SortCanonical();
  return stats;
}

NgramStatistics BruteForceMaximal(const Corpus& corpus, uint64_t tau,
                                  uint32_t sigma) {
  NgramStatistics frequent = BruteForceCounts(corpus, tau, sigma);
  NgramStatistics maximal;
  for (const auto& [r, cf] : frequent.entries) {
    bool has_frequent_super = false;
    for (const auto& [s, cf_s] : frequent.entries) {
      if (s.size() > r.size() && ContainsSubsequence(s, r)) {
        has_frequent_super = true;
        break;
      }
    }
    if (!has_frequent_super) {
      maximal.Add(r, cf);
    }
  }
  maximal.SortCanonical();
  return maximal;
}

NgramStatistics BruteForceClosed(const Corpus& corpus, uint64_t tau,
                                 uint32_t sigma) {
  NgramStatistics frequent = BruteForceCounts(corpus, tau, sigma);
  NgramStatistics closed;
  for (const auto& [r, cf] : frequent.entries) {
    bool has_equal_super = false;
    for (const auto& [s, cf_s] : frequent.entries) {
      if (s.size() > r.size() && cf_s == cf && ContainsSubsequence(s, r)) {
        has_equal_super = true;
        break;
      }
    }
    if (!has_equal_super) {
      closed.Add(r, cf);
    }
  }
  closed.SortCanonical();
  return closed;
}

std::map<TermSequence, TimeSeries> BruteForceTimeSeries(const Corpus& corpus,
                                                        uint64_t tau,
                                                        uint32_t sigma) {
  std::map<TermSequence, TimeSeries> series;
  ForEachNgram(corpus, sigma, [&](const Document& d, const TermSequence& g) {
    series[g].Add(d.year, 1);
  });
  for (auto it = series.begin(); it != series.end();) {
    if (it->second.Total() < tau) {
      it = series.erase(it);
    } else {
      ++it;
    }
  }
  return series;
}

uint64_t BruteForceNaiveMapOutputRecords(const Corpus& corpus, uint64_t tau,
                                         uint32_t sigma,
                                         bool document_splits) {
  uint64_t records = 0;
  ForEachMapperPiece(corpus, tau, document_splits, [&](size_t len) {
    const size_t max_n = sigma == 0 ? len : std::min<size_t>(sigma, len);
    for (size_t n = 1; n <= max_n; ++n) {
      records += len - n + 1;
    }
  });
  return records;
}

uint64_t BruteForceSuffixSigmaMapOutputRecords(const Corpus& corpus,
                                               uint64_t tau,
                                               bool document_splits) {
  uint64_t records = 0;
  ForEachMapperPiece(corpus, tau, document_splits,
                     [&](size_t len) { records += len; });
  return records;
}

}  // namespace ngram
