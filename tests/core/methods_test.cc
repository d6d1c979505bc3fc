// Per-method behaviour on the paper's running example, plus the
// method-specific cost properties the paper derives analytically.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/apriori_index.h"
#include "core/apriori_scan.h"
#include "core/naive.h"
#include "core/runner.h"
#include "core/suffix_sigma.h"
#include "corpus/running_example.h"
#include "testing/test_util.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

using testing::TestOptions;

NgramStatistics ExpectedRunningExample() {
  NgramStatistics expected;
  for (const auto& [seq, cf] : RunningExampleExpectedCounts()) {
    expected.Add(seq, cf);
  }
  expected.SortCanonical();
  return expected;
}

class RunningExampleMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(RunningExampleMethodTest, ProducesPaperOutput) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  const NgramJobOptions options = TestOptions(GetParam(), 3, 3);
  auto run = ComputeNgramStatistics(ctx, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  NgramStatistics expected = ExpectedRunningExample();
  EXPECT_TRUE(run->stats.SameAs(expected))
      << ::testing::PrintToString(run->stats.DiffAgainst(expected));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RunningExampleMethodTest,
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

TEST(NaiveMethodTest, RecordCountEqualsSumOfEmittedNgrams) {
  // Without combiner and without splits, NAIVE emits one record per n-gram
  // occurrence: sum_{|s|<=sigma} cf(s). For the running example with
  // sigma=3: 15 unigrams + 12 bigrams + 9 trigrams = 36.
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kNaive, 3, 3);
  options.use_combiner = false;
  options.document_splits = false;
  auto run = RunNaive(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.map_output_records(), 36u);
  EXPECT_EQ(run->metrics.num_jobs(), 1);
}

TEST(SuffixSigmaMethodTest, RecordCountEqualsTermOccurrences) {
  // The paper's analysis: exactly one record per term occurrence (15 for
  // the running example, splits disabled).
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kSuffixSigma, 3, 3);
  options.document_splits = false;
  auto run = RunSuffixSigma(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.map_output_records(), 15u);
  EXPECT_EQ(run->metrics.num_jobs(), 1);
}

TEST(SuffixSigmaMethodTest, TransfersFewerBytesThanNaive) {
  const Corpus corpus = testing::RandomCorpus(8, 60, 8, 4, 14);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kSuffixSigma, 2, 5);
  options.document_splits = false;
  NgramJobOptions naive_options = options;
  naive_options.method = Method::kNaive;
  naive_options.use_combiner = false;
  auto suffix = RunSuffixSigma(ctx, options);
  auto naive = RunNaive(ctx, naive_options);
  ASSERT_TRUE(suffix.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_LT(suffix->metrics.map_output_records(),
            naive->metrics.map_output_records());
  EXPECT_LT(suffix->metrics.map_output_bytes(),
            naive->metrics.map_output_bytes());
}

TEST(AprioriScanMethodTest, OneJobPerLengthUntilEmpty) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  // tau=3, sigma=5: lengths 1..3 are frequent, length 4 job comes back
  // empty -> 4 jobs.
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 3, 5);
  auto run = RunAprioriScan(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.num_jobs(), 4);
}

TEST(AprioriScanMethodTest, StopsAtSigmaEvenIfMoreFrequent) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 3, 2);
  auto run = RunAprioriScan(ctx, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.num_jobs(), 2);
  EXPECT_EQ(run->stats.MaxLength(), 2u);
}

TEST(AprioriScanMethodTest, PruningEmitsFewerRecordsThanNaive) {
  const Corpus corpus = testing::RandomCorpus(9, 60, 8, 4, 14);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 5, 4);
  options.use_combiner = false;
  options.document_splits = false;
  NgramJobOptions naive_options = options;
  naive_options.method = Method::kNaive;
  auto scan = RunAprioriScan(ctx, options);
  auto naive = RunNaive(ctx, naive_options);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(naive.ok());
  // S_NP subset of S: APRIORI-SCAN can never shuffle more records.
  EXPECT_LE(scan->metrics.map_output_records(),
            naive->metrics.map_output_records());
}

TEST(AprioriScanMethodTest, DictionaryCountersRecorded) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kAprioriScan, 3, 3);
  auto run = RunAprioriScan(ctx, options);
  ASSERT_TRUE(run.ok());
  ASSERT_GE(run->metrics.jobs.size(), 2u);
  // Job k=2 used the dictionary of 3 frequent unigrams.
  EXPECT_EQ(run->metrics.jobs[1].Counter(kDictionaryEntries), 3u);
  EXPECT_GT(run->metrics.jobs[1].Counter(kDictionaryBytes), 0u);
}

TEST(AprioriIndexMethodTest, ProducesPositionalIndex) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  NgramJobOptions options = TestOptions(Method::kAprioriIndex, 3, 3);
  options.apriori_index_k = 2;
  auto result = RunAprioriIndexWithIndex(ctx, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Find <a x b> in the index: paper says d1:[0], d2:[1], d3:[2].
  const TermSequence axb = {kTermA, kTermX, kTermB};
  const PostingList* found = nullptr;
  for (const auto& [seq, list] : result->index.rows) {
    if (seq == axb) {
      found = &list;
    }
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->postings.size(), 3u);
  EXPECT_EQ(found->postings[0].doc_id, 1u);
  EXPECT_EQ(found->postings[0].positions, (std::vector<uint32_t>{0}));
  EXPECT_EQ(found->postings[1].doc_id, 2u);
  EXPECT_EQ(found->postings[1].positions, (std::vector<uint32_t>{1}));
  EXPECT_EQ(found->postings[2].doc_id, 3u);
  EXPECT_EQ(found->postings[2].positions, (std::vector<uint32_t>{2}));
}

TEST(AprioriIndexMethodTest, KBoundaryVariantsAgree) {
  const Corpus corpus = testing::RandomCorpus(10, 40, 6, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramStatistics reference;
  for (uint32_t k : {1u, 2u, 3u, 4u, 6u}) {
    NgramJobOptions options = TestOptions(Method::kAprioriIndex, 3, 5);
    options.apriori_index_k = k;
    auto run = RunAprioriIndex(ctx, options);
    ASSERT_TRUE(run.ok()) << "K=" << k << ": " << run.status().ToString();
    if (k == 1) {
      reference = std::move(run->stats);
      reference.SortCanonical();
    } else {
      EXPECT_TRUE(run->stats.SameAs(reference)) << "K=" << k;
    }
  }
}

TEST(AprioriIndexMethodTest, TinyReducerBudgetSpillsAndStaysCorrect) {
  const Corpus corpus = testing::RandomCorpus(11, 40, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  NgramJobOptions options = TestOptions(Method::kAprioriIndex, 2, 5);
  options.apriori_index_k = 2;
  options.reducer_memory_budget_bytes = 128;  // Force KV-store spill.
  auto spilled = RunAprioriIndex(ctx, options);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  options.reducer_memory_budget_bytes = 256 << 20;
  auto in_memory = RunAprioriIndex(ctx, options);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_TRUE(spilled->stats.SameAs(in_memory->stats));
}

TEST(AprioriMethodsTest, RerunInOneWorkDirStartsFreshAndLeavesItEmpty) {
  // Both APRIORI methods spill reducer-side state (APRIORI-SCAN's
  // dictionary, APRIORI-INDEX's join buffers) to KV stores under
  // work_dir. A rerun in the same work_dir must see none of the first
  // run's stores, and no run may leave its own behind.
  const Corpus corpus = testing::RandomCorpus(11, 40, 5, 3, 10);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  auto dir = TempDir::Create("apriori-work-dir");
  ASSERT_TRUE(dir.ok());
  for (Method method : {Method::kAprioriScan, Method::kAprioriIndex}) {
    NgramJobOptions options = TestOptions(method, 2, 5);
    options.apriori_index_k = 2;
    options.reducer_memory_budget_bytes = 128;  // Force KV-store spill.
    options.work_dir = dir->path().string();
    std::vector<NgramRun> runs;
    for (int i = 0; i < 2; ++i) {
      auto run = ComputeNgramStatistics(ctx, options);
      ASSERT_TRUE(run.ok()) << MethodName(method) << ": "
                            << run.status().ToString();
      EXPECT_TRUE(std::filesystem::is_empty(dir->path()))
          << MethodName(method) << " run " << i << " left files behind";
      runs.push_back(std::move(run).ValueOrDie());
    }
    EXPECT_TRUE(runs[0].stats.SameAs(runs[1].stats)) << MethodName(method);
    ASSERT_EQ(runs[0].metrics.jobs.size(), runs[1].metrics.jobs.size());
    for (size_t j = 0; j < runs[0].metrics.jobs.size(); ++j) {
      auto first = runs[0].metrics.jobs[j].counters;
      auto second = runs[1].metrics.jobs[j].counters;
      first.erase(mr::kBarrierWaitMs);  // Wallclock, not data.
      second.erase(mr::kBarrierWaitMs);
      EXPECT_EQ(first, second) << MethodName(method) << " job " << j;
    }
  }
}

TEST(MethodsTest, EmptyCorpusYieldsEmptyStats) {
  const Corpus corpus;
  const CorpusContext ctx = BuildCorpusContext(corpus);
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run = ComputeNgramStatistics(ctx, TestOptions(method, 1, 3));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    EXPECT_TRUE(run->stats.empty()) << MethodName(method);
  }
}

TEST(MethodsTest, TauAboveAllFrequenciesYieldsEmpty) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run = ComputeNgramStatistics(ctx, TestOptions(method, 100, 3));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    EXPECT_TRUE(run->stats.empty()) << MethodName(method);
  }
}

TEST(MethodsTest, SigmaOneGivesUnigramsOnly) {
  const CorpusContext ctx = BuildCorpusContext(RunningExampleCorpus());
  for (Method method :
       {Method::kNaive, Method::kAprioriScan, Method::kAprioriIndex,
        Method::kSuffixSigma}) {
    auto run = ComputeNgramStatistics(ctx, TestOptions(method, 3, 1));
    ASSERT_TRUE(run.ok()) << MethodName(method);
    EXPECT_EQ(run->stats.size(), 3u) << MethodName(method);
    EXPECT_EQ(run->stats.MaxLength(), 1u) << MethodName(method);
  }
}

}  // namespace
}  // namespace ngram
