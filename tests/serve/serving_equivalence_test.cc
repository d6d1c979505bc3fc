// Cross-method serving equivalence: shards built from the output of every
// method (NAIVE, APRIORI-SCAN, APRIORI-INDEX, SUFFIX-sigma) on a
// fig6-style synthetic corpus must answer Count and TopKCompletions
// byte-identically — across methods, shard counts {1, 3, 8}, and cache
// sizes {tiny, unbounded}. The serving layer must not introduce any
// dependence on how the statistics were computed or how they are
// partitioned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "corpus/synthetic.h"
#include "serve/serving_builder.h"
#include "serve/stats_service.h"
#include "testing/test_util.h"
#include "util/temp_dir.h"

namespace ngram::serve {
namespace {

constexpr uint64_t kTau = 3;
constexpr uint32_t kSigma = 5;

const Corpus& Fig6Corpus() {
  static const Corpus corpus =
      GenerateSyntheticCorpus(NytLikeOptions(250, 42));
  return corpus;
}

/// Statistics computed by `method` on the fig6 corpus, canonically sorted.
NgramStatistics ComputeWith(Method method) {
  const CorpusContext ctx = BuildCorpusContext(Fig6Corpus());
  auto run = ComputeNgramStatistics(
      ctx, ngram::testing::TestOptions(method, kTau, kSigma));
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  run->stats.SortCanonical();
  return std::move(run->stats);
}

struct ServingCase {
  Method method;
  uint32_t num_shards;
  size_t cache_bytes;
};

std::string CaseName(const ::testing::TestParamInfo<ServingCase>& info) {
  const auto& c = info.param;
  std::string name = MethodName(c.method);
  name += "_shards" + std::to_string(c.num_shards);
  name += c.cache_bytes == 0              ? "_nocache"
          : c.cache_bytes < (1u << 20)    ? "_tinycache"
                                          : "_bigcache";
  for (auto& ch : name) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return name;
}

class ServingEquivalenceTest : public ::testing::TestWithParam<ServingCase> {
};

/// The reference: NAIVE output served from a single uncached shard.
const NgramStatistics& ReferenceStats() {
  static const NgramStatistics stats = ComputeWith(Method::kNaive);
  return stats;
}

/// Reference answers precomputed once from the statistics table.
struct Reference {
  std::vector<std::pair<TermSequence, uint64_t>> counts;
  /// Every one-term extension of each distinct prefix, best first; the
  /// top-k answer is the first k entries.
  std::map<TermSequence, std::vector<Completion>> completions;
  size_t longest_list = 0;
  double perplexity = 0.0;
};

const Reference& Ref() {
  static const Reference ref = [] {
    Reference r;
    const NgramStatistics& stats = ReferenceStats();
    r.counts.assign(stats.entries.begin(), stats.entries.end());
    // Completions per distinct prefix (each entry minus its last term)
    // straight from the table: one-term extensions ranked by count desc,
    // term asc, the whole list kept.
    for (const auto& [seq, cf] : stats.entries) {
      TermSequence prefix(seq.begin(), seq.end() - 1);
      r.completions[prefix].push_back(Completion{seq.back(), cf});
    }
    for (auto& [prefix, completions] : r.completions) {
      std::sort(completions.begin(), completions.end(),
                [](const Completion& a, const Completion& b) {
                  if (a.count != b.count) {
                    return a.count > b.count;
                  }
                  return a.term < b.term;
                });
      r.longest_list = std::max(r.longest_list, completions.size());
    }
    return r;
  }();
  return ref;
}

TEST_P(ServingEquivalenceTest, CountTopKAndPerplexityMatchReference) {
  const ServingCase& c = GetParam();
  const NgramStatistics stats = ComputeWith(c.method);
  // Methods agree (established by PR 1-4's equivalence suite); both sides
  // are canonically sorted, so entry vectors compare directly.
  ASSERT_TRUE(stats.entries == ReferenceStats().entries);

  auto dir = TempDir::Create("serving-equivalence");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  BuildServingOptions build;
  build.num_shards = c.num_shards;
  build.block_bytes = 512;  // Small blocks: several per shard.
  ASSERT_TRUE(
      BuildServingShards(stats, dir->path().string(), build).ok());

  ServingOptions serving;
  serving.cache_bytes = c.cache_bytes;
  auto service = StatsService::Open(dir->path().string(), serving);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const Reference& ref = Ref();
  // Every stored n-gram answers its exact frequency. With a tiny cache
  // this also churns eviction on every block boundary.
  for (const auto& [seq, cf] : ref.counts) {
    auto count = (*service)->Count(seq);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(*count, cf) << SequenceToDebugString(seq);
  }
  // Absent n-grams answer zero, not an error.
  for (const auto& [seq, cf] : ref.counts) {
    TermSequence absent = seq;
    absent.push_back(999983);  // Far beyond the vocabulary.
    auto count = (*service)->Count(absent);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(*count, 0u);
  }
  // Top-k completions are byte-identical to the first k entries of the
  // table-derived reference for every stored prefix (including the empty
  // prefix = top unigrams), for k from none to more than any list holds.
  for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{10},
                         ref.longest_list + 2}) {
    for (const auto& [prefix, all] : ref.completions) {
      const std::vector<Completion> expected(
          all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(k, all.size())));
      auto completions = (*service)->TopKCompletions(prefix, k);
      ASSERT_TRUE(completions.ok()) << completions.status().ToString();
      ASSERT_EQ(*completions, expected)
          << SequenceToDebugString(prefix) << " k=" << k;
    }
  }
  // Perplexity of a held-out slice is identical across every
  // configuration (same counts -> same arithmetic, bit for bit).
  Corpus held_out;
  held_out.docs.assign(Fig6Corpus().docs.begin(),
                       Fig6Corpus().docs.begin() + 10);
  auto perplexity = (*service)->Perplexity(held_out);
  ASSERT_TRUE(perplexity.ok()) << perplexity.status().ToString();
  EXPECT_GT(*perplexity, 0.0);
  static double first_perplexity = 0.0;
  if (first_perplexity == 0.0) {
    first_perplexity = *perplexity;
  }
  EXPECT_DOUBLE_EQ(*perplexity, first_perplexity);
}

std::vector<ServingCase> MakeCases() {
  std::vector<ServingCase> cases;
  const Method methods[] = {Method::kNaive, Method::kAprioriScan,
                            Method::kAprioriIndex, Method::kSuffixSigma};
  for (Method method : methods) {
    for (uint32_t shards : {1u, 3u, 8u}) {
      // Tiny cache (evicts constantly) and effectively unbounded.
      for (size_t cache_bytes : {size_t{2048}, size_t{256} << 20}) {
        cases.push_back({method, shards, cache_bytes});
      }
    }
  }
  // Cache fully disabled: the pure mmap-decode path.
  cases.push_back({Method::kSuffixSigma, 3, 0});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ServingEquivalenceTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

}  // namespace
}  // namespace ngram::serve
