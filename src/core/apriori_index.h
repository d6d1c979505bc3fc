// APRIORI-INDEX (Algorithm 3): incrementally builds a positional inverted
// index of frequent n-grams.
//
// Phase 1 (k <= K): one job per k scans the input; Mapper #1 aggregates
// per-document positions locally and emits one (k-gram, posting) pair per
// document, Reducer #1 assembles posting lists and keeps frequent k-grams.
// Both run raw. The mapper reads each serialized sentence row through a
// FragmentCursor: its k-gram keys are sub-slices of the input bytes, and it
// groups the row's equal windows by sorting their start indices in reused
// buffers. The reducer streams posting slices into a PostingListBuilder,
// takes the frequency from its counts, and re-emits a frequent k-gram's key
// bytes beside the built list. No k-gram or posting is decoded.
//
// Phase 2 (k > K): one job per k over the previous iteration's output.
// Mapper #2 emits every frequent (k-1)-gram twice — keyed by its prefix
// (tagged r-seq) and by its suffix (tagged l-seq) — each carrying its
// posting list. Reducer #2 joins every compatible (l-seq m, r-seq n) pair
// positionally to form the k-gram m || last(n). Past the reducer memory
// budget the buffered posting lists spill to block runs read back through
// the job's IoEnv (index/spillable_vector.h; Section V).
//
// Rounds chain serialized, and each round's output is drained once: every
// frequent n-gram's key is decoded into the statistics, with its frequency
// read off the posting list's counts. RunAprioriIndex stops there;
// RunAprioriIndexWithIndex also decodes every list into the positional
// index it returns.
#pragma once

#include "core/input.h"
#include "core/options.h"
#include "core/stats.h"
#include "index/posting.h"
#include "mapreduce/dataset.h"
#include "util/result.h"

namespace ngram {

/// The inverted index produced as a by-product: frequent n-gram ->
/// positional posting list ("can be used to quickly determine the locations
/// of a specific frequent n-gram", Section III-B).
using PositionalIndex = mr::MemoryTable<TermSequence, PostingList>;

struct AprioriIndexResult {
  NgramRun run;
  PositionalIndex index;
};

Result<AprioriIndexResult> RunAprioriIndexWithIndex(
    const CorpusContext& ctx, const NgramJobOptions& options);

/// Statistics-only entry point (symmetric with the other methods): builds
/// no index and decodes no position.
Result<NgramRun> RunAprioriIndex(const CorpusContext& ctx,
                                 const NgramJobOptions& options);

}  // namespace ngram
