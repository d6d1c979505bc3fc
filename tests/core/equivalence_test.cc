// Property tests: every method must produce exactly the brute-force result
// for any (corpus, tau, sigma) — including sigma = 0 (unbounded), document
// splitting on/off, combiner on/off, and document-frequency mode.
#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/maximality.h"
#include "core/runner.h"
#include "testing/test_util.h"

namespace ngram {
namespace {

struct EquivalenceCase {
  Method method;
  uint64_t tau;
  uint32_t sigma;
  uint64_t seed;
  bool document_splits;
};

std::string CaseName(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  const auto& c = info.param;
  std::string name = MethodName(c.method);
  name += "_tau" + std::to_string(c.tau);
  name += "_sigma" + std::to_string(c.sigma);
  name += "_seed" + std::to_string(c.seed);
  name += c.document_splits ? "_splits" : "_nosplits";
  for (auto& ch : name) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return name;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, MatchesBruteForce) {
  const EquivalenceCase& c = GetParam();
  const Corpus corpus = testing::RandomCorpus(c.seed, 25, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);

  NgramJobOptions options = testing::TestOptions(c.method, c.tau, c.sigma);
  options.document_splits = c.document_splits;
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  NgramStatistics expected = BruteForceCounts(corpus, c.tau, c.sigma);
  run->stats.SortCanonical();
  EXPECT_TRUE(run->stats.SameAs(expected))
      << ::testing::PrintToString(run->stats.DiffAgainst(expected));
}

std::vector<EquivalenceCase> MakeCases() {
  std::vector<EquivalenceCase> cases;
  const Method methods[] = {Method::kNaive, Method::kAprioriScan,
                            Method::kAprioriIndex, Method::kSuffixSigma};
  for (Method method : methods) {
    for (uint64_t tau : {1, 2, 5}) {
      for (uint32_t sigma : {1u, 3u, 5u, 0u}) {
        cases.push_back({method, tau, sigma, /*seed=*/41, true});
      }
    }
    // Splitting disabled, second seed.
    cases.push_back({method, 3, 4, 42, false});
    cases.push_back({method, 2, 0, 43, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// ------------------------------------------------------ document freq --

class DocFrequencyTest : public ::testing::TestWithParam<Method> {};

TEST_P(DocFrequencyTest, MatchesBruteForceDocumentFrequencies) {
  const Corpus corpus = testing::RandomCorpus(55, 20, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = testing::TestOptions(GetParam(), 2, 3);
  options.frequency_mode = FrequencyMode::kDocument;
  // Document splitting keys off *collection* unigram frequencies; keep the
  // run faithful to the df problem by disabling it.
  options.document_splits = false;
  options.use_combiner = false;
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  NgramStatistics expected = BruteForceDocumentFrequencies(corpus, 2, 3);
  EXPECT_TRUE(run->stats.SameAs(expected))
      << ::testing::PrintToString(run->stats.DiffAgainst(expected));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DocFrequencyTest,
                         ::testing::Values(Method::kNaive,
                                           Method::kAprioriScan,
                                           Method::kAprioriIndex,
                                           Method::kSuffixSigma),
                         [](const auto& info) {
                           std::string name = MethodName(info.param);
                           for (auto& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// ----------------------------------------------- pairwise cross-checks --

TEST(EquivalenceTest, AllMethodsAgreeOnLargerCorpus) {
  const Corpus corpus = testing::RandomCorpus(77, 120, 10, 4, 16);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramStatistics reference;
  bool have_reference = false;
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run =
        ComputeNgramStatistics(ctx, testing::TestOptions(method, 4, 6));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    run->stats.SortCanonical();
    if (!have_reference) {
      reference = std::move(run->stats);
      have_reference = true;
      EXPECT_GT(reference.size(), 0u);
    } else {
      EXPECT_TRUE(run->stats.SameAs(reference)) << MethodName(method);
    }
  }
}

TEST(EquivalenceTest, SpillPathsDoNotChangeResults) {
  const Corpus corpus = testing::RandomCorpus(88, 60, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method : {Method::kNaive, Method::kSuffixSigma}) {
    NgramJobOptions big = testing::TestOptions(method, 2, 4);
    big.sort_buffer_bytes = 64 << 20;
    NgramJobOptions tiny = testing::TestOptions(method, 2, 4);
    tiny.sort_buffer_bytes = 2048;  // Many spills.
    auto a = ComputeNgramStatistics(ctx, big);
    auto b = ComputeNgramStatistics(ctx, tiny);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(b->metrics.TotalCounter(mr::kSpillFiles), 0u);
    EXPECT_TRUE(a->stats.SameAs(b->stats)) << MethodName(method);
  }
}

TEST(EquivalenceTest, SlotCountDoesNotChangeResults) {
  const Corpus corpus = testing::RandomCorpus(99, 40, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramStatistics reference;
  bool have_reference = false;
  for (uint32_t slots : {1u, 2u, 4u}) {
    NgramJobOptions options =
        testing::TestOptions(Method::kSuffixSigma, 2, 5);
    options.map_slots = slots;
    options.reduce_slots = slots;
    options.num_reducers = slots * 2;
    auto run = ComputeNgramStatistics(ctx, options);
    ASSERT_TRUE(run.ok());
    run->stats.SortCanonical();
    if (!have_reference) {
      reference = std::move(run->stats);
      have_reference = true;
    } else {
      EXPECT_TRUE(run->stats.SameAs(reference)) << "slots=" << slots;
    }
  }
}

TEST(EquivalenceTest, CombinerOnOffAgree) {
  const Corpus corpus = testing::RandomCorpus(101, 50, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method : {Method::kNaive, Method::kAprioriScan}) {
    NgramJobOptions with = testing::TestOptions(method, 3, 4);
    with.use_combiner = true;
    NgramJobOptions without = testing::TestOptions(method, 3, 4);
    without.use_combiner = false;
    auto a = ComputeNgramStatistics(ctx, with);
    auto b = ComputeNgramStatistics(ctx, without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a->stats.SameAs(b->stats)) << MethodName(method);
    // The combiner reduces reduce-side input records.
    EXPECT_LE(a->metrics.TotalCounter(mr::kReduceInputRecords),
              b->metrics.TotalCounter(mr::kReduceInputRecords));
  }
}

/// Asserts a single-job method's work oracle: NAIVE and SUFFIX-sigma
/// emit exactly the map records brute_force counts over the same pieces.
/// Other methods have no oracle yet and pass trivially.
void ExpectExactMapOutputRecords(const Corpus& corpus,
                                 const NgramJobOptions& options,
                                 const mr::RunMetrics& metrics) {
  uint64_t expected = 0;
  if (options.method == Method::kNaive) {
    expected = BruteForceNaiveMapOutputRecords(
        corpus, options.tau, options.sigma, options.document_splits);
  } else if (options.method == Method::kSuffixSigma) {
    expected = BruteForceSuffixSigmaMapOutputRecords(
        corpus, options.tau, options.document_splits);
  } else {
    return;
  }
  EXPECT_EQ(metrics.map_output_records(), expected)
      << MethodName(options.method)
      << " merge_factor=" << options.merge_factor;
}

TEST(EquivalenceTest, CompressionOnOffAgreeAcrossMethodsAndMergeFactors) {
  // Compression on: 2 KiB sort buffers push every shuffled byte through
  // the block run format — spills, map-side final merges, reduce-side
  // intermediate passes. Off: the reference run's records never leave
  // memory. Every method must produce identical statistics either way,
  // across small-bound, bounded, and unbounded merge fan-in, and NAIVE
  // and SUFFIX-sigma must emit exactly the map records their work
  // oracles count.
  const Corpus corpus = testing::RandomCorpus(99, 60, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    NgramJobOptions unspilled = testing::TestOptions(method, 2, 4);
    unspilled.sort_buffer_bytes = 64 << 20;
    auto reference = ComputeNgramStatistics(ctx, unspilled);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(reference->metrics.TotalCounter(mr::kSpillFiles), 0u);
    ExpectExactMapOutputRecords(corpus, unspilled, reference->metrics);
    for (uint32_t merge_factor : {2u, 16u, 0u}) {
      NgramJobOptions spilled = unspilled;
      spilled.sort_buffer_bytes = 2048;
      spilled.merge_factor = merge_factor;
      auto run = ComputeNgramStatistics(ctx, spilled);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_GT(run->metrics.TotalCounter(mr::kSpillFiles), 0u);
      EXPECT_TRUE(run->stats.SameAs(reference->stats))
          << MethodName(method) << " merge_factor=" << merge_factor;
      ExpectExactMapOutputRecords(corpus, spilled, run->metrics);
    }
  }
}

TEST(EquivalenceTest, EarlyShuffleOnOffAgreeAcrossMethods) {
  // The early shuffle only changes *when* intermediate merge passes run,
  // never what they produce: with spill-heavy buffers and a small merge
  // factor (so eager windows actually form and merge), every method must
  // produce identical statistics with overlap on or off.
  const Corpus corpus = testing::RandomCorpus(103, 60, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    NgramJobOptions with = testing::TestOptions(method, 2, 4);
    with.sort_buffer_bytes = 2048;
    with.merge_factor = 4;
    with.shuffle_slots = 2;
    NgramJobOptions without = with;
    without.shuffle_slots = 0;
    auto a = ComputeNgramStatistics(ctx, with);
    auto b = ComputeNgramStatistics(ctx, without);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_GT(a->metrics.TotalCounter(mr::kSpillFiles), 0u);
    EXPECT_TRUE(a->stats.SameAs(b->stats)) << MethodName(method);
  }
}

TEST(EquivalenceTest, CompressionOnOffAgreeForMaximalAndClosed) {
  // As above for the maximality and closedness post-filters: spilled
  // through the block format vs never leaving memory.
  const Corpus corpus = testing::RandomCorpus(111, 50, 6, 3, 12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  using Variant = Result<NgramRun> (*)(const CorpusContext&,
                                       const NgramJobOptions&);
  for (Variant variant : {static_cast<Variant>(&RunSuffixSigmaMaximal),
                          static_cast<Variant>(&RunSuffixSigmaClosed)}) {
    NgramJobOptions unspilled =
        testing::TestOptions(Method::kSuffixSigma, 2, 4);
    unspilled.sort_buffer_bytes = 64 << 20;
    NgramJobOptions spilled = unspilled;
    spilled.sort_buffer_bytes = 2048;
    auto a = variant(ctx, spilled);
    auto b = variant(ctx, unspilled);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_GT(a->metrics.TotalCounter(mr::kSpillFiles), 0u);
    EXPECT_EQ(b->metrics.TotalCounter(mr::kSpillFiles), 0u);
    EXPECT_TRUE(a->stats.SameAs(b->stats));
  }
}

TEST(EquivalenceTest, CompressedRunsShrinkSuffixSigmaSpills) {
  // On spill-heavy SUFFIX-sigma runs — rev-lex-sorted truncated suffixes
  // whose neighbors share long byte prefixes — the block format writes
  // measurably fewer at-rest bytes than the records' in-memory framing.
  const Corpus corpus = testing::RandomCorpus(123, 120, 10, 4, 16);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = testing::TestOptions(Method::kSuffixSigma, 2, 5);
  options.sort_buffer_bytes = 2048;  // Many spills.
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const uint64_t raw = run->metrics.TotalCounter(mr::kRunBytesRaw);
  const uint64_t written = run->metrics.TotalCounter(mr::kRunBytesWritten);
  ASSERT_GT(raw, 0u);
  EXPECT_LT(written, raw);
}

}  // namespace
}  // namespace ngram
