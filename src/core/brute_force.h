// Single-threaded reference implementations ("oracles") used by the tests
// to validate every MapReduce method: plain counting, document frequency,
// maximality, closedness, and time series, all by direct enumeration.
#pragma once

#include <cstdint>
#include <map>

#include "core/stats.h"
#include "core/timeseries.h"
#include "text/corpus.h"

namespace ngram {

/// All n-grams with |s| <= sigma (0 = unbounded) and cf(s) >= tau, by
/// direct enumeration over every sentence. Canonically sorted.
NgramStatistics BruteForceCounts(const Corpus& corpus, uint64_t tau,
                                 uint32_t sigma);

/// Document-frequency variant: df(s) >= tau.
NgramStatistics BruteForceDocumentFrequencies(const Corpus& corpus,
                                              uint64_t tau, uint32_t sigma);

/// Maximal n-grams: r with cf(r) >= tau and no strict super-n-gram s
/// (within the sigma bound) with cf(s) >= tau.
NgramStatistics BruteForceMaximal(const Corpus& corpus, uint64_t tau,
                                  uint32_t sigma);

/// Closed n-grams: r with cf(r) >= tau and no strict super-n-gram s with
/// cf(s) = cf(r).
NgramStatistics BruteForceClosed(const Corpus& corpus, uint64_t tau,
                                 uint32_t sigma);

/// Per-n-gram occurrence time series over document years (Section VI-B),
/// for n-grams with total cf >= tau.
std::map<TermSequence, TimeSeries> BruteForceTimeSeries(const Corpus& corpus,
                                                        uint64_t tau,
                                                        uint32_t sigma);

// Work oracles: the exact MAP_OUTPUT_RECORDS of a method's job, counted
// over the pieces its mappers see — one input row per sentence, split at
// terms with cf < tau when `document_splits` is on (ForEachPieceRange in
// core/input.h). Output equality cannot see wasted or skipped work; these
// counts can.

/// NAIVE (Algorithm 1): every n-gram with n <= sigma (0 = unbounded) of
/// every piece, i.e. the sum over pieces of
/// sum_{n=1..sigma} max(0, |piece| - n + 1).
uint64_t BruteForceNaiveMapOutputRecords(const Corpus& corpus, uint64_t tau,
                                         uint32_t sigma,
                                         bool document_splits);

/// SUFFIX-sigma (Algorithm 4): one truncated suffix per position, i.e.
/// the sum over pieces of |piece|.
uint64_t BruteForceSuffixSigmaMapOutputRecords(const Corpus& corpus,
                                               uint64_t tau,
                                               bool document_splits);

}  // namespace ngram
