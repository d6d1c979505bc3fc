// APRIORI-INDEX's positional index against a brute-force oracle, across
// the knobs that change how its rounds split, spill and group their work.
#include "core/apriori_index.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "testing/test_util.h"

namespace ngram {
namespace {

using Index = std::map<TermSequence, PostingList>;

uint64_t Frequency(const PostingList& list, FrequencyMode mode) {
  return mode == FrequencyMode::kCollection ? list.TotalOccurrences()
                                            : list.DocumentFrequency();
}

/// Every n-gram of length <= sigma whose frequency reaches tau, with its
/// positional posting list, by direct enumeration. Positions follow
/// BuildCorpusContext: each sentence of a document starts one position
/// past the end of the previous one.
Index BruteForceIndex(const Corpus& corpus, uint64_t tau, uint32_t sigma,
                      FrequencyMode mode) {
  std::map<TermSequence, std::map<uint64_t, std::vector<uint32_t>>> found;
  for (const Document& doc : corpus.docs) {
    uint32_t base = 0;
    for (const TermSequence& sentence : doc.sentences) {
      for (size_t b = 0; b < sentence.size(); ++b) {
        TermSequence ngram;
        for (size_t e = b; e < sentence.size() && e - b < sigma; ++e) {
          ngram.push_back(sentence[e]);
          found[ngram][doc.id].push_back(base + static_cast<uint32_t>(b));
        }
      }
      base += static_cast<uint32_t>(sentence.size()) + 1;
    }
  }
  Index index;
  for (auto& [ngram, docs] : found) {
    PostingList list;
    for (auto& [doc_id, positions] : docs) {
      list.postings.push_back({doc_id, std::move(positions)});
    }
    if (Frequency(list, mode) >= tau) {
      index.emplace(ngram, std::move(list));
    }
  }
  return index;
}

class AprioriIndexOracleTest
    : public ::testing::TestWithParam<std::tuple<FrequencyMode, uint32_t>> {
};

TEST_P(AprioriIndexOracleTest, IndexMatchesBruteForce) {
  const FrequencyMode mode = std::get<0>(GetParam());
  const uint32_t k = std::get<1>(GetParam());
  // Three terms over multi-sentence documents: k-grams repeat inside a
  // sentence (postings with several positions), and a document posts once
  // per sentence (postings the reducer merges).
  const Corpus corpus = testing::RandomCorpus(
      /*seed=*/31, /*num_docs=*/20, /*vocab=*/3, /*max_sentences=*/4,
      /*max_sentence_len=*/12);
  const CorpusContext ctx = BuildCorpusContext(corpus);
  constexpr uint64_t kTau = 3;
  constexpr uint32_t kSigma = 5;
  const Index expected = BruteForceIndex(corpus, kTau, kSigma, mode);
  ASSERT_FALSE(expected.empty());
  NgramStatistics expected_stats;
  for (const auto& [seq, list] : expected) {
    expected_stats.Add(seq, Frequency(list, mode));
  }

  for (const bool splits : {true, false}) {
    for (const size_t sort_buffer : {size_t{2} << 10, size_t{64} << 20}) {
      for (const uint32_t map_tasks : {1u, 8u}) {
        SCOPED_TRACE("splits=" + std::to_string(splits) +
                     " sort_buffer=" + std::to_string(sort_buffer) +
                     " map_tasks=" + std::to_string(map_tasks));
        NgramJobOptions options =
            testing::TestOptions(Method::kAprioriIndex, kTau, kSigma);
        options.apriori_index_k = k;
        options.frequency_mode = mode;
        options.document_splits = splits;
        options.sort_buffer_bytes = sort_buffer;
        options.num_map_tasks = map_tasks;

        auto with_index = RunAprioriIndexWithIndex(ctx, options);
        ASSERT_TRUE(with_index.ok()) << with_index.status().ToString();
        Index got;
        for (const auto& [seq, list] : with_index->index.rows) {
          EXPECT_TRUE(got.emplace(seq, list).second)
              << "twice in the index: " << SequenceToDebugString(seq);
        }
        EXPECT_EQ(got.size(), expected.size());
        for (const auto& [seq, list] : expected) {
          const auto it = got.find(seq);
          ASSERT_TRUE(it != got.end())
              << "missing: " << SequenceToDebugString(seq);
          EXPECT_TRUE(it->second == list) << SequenceToDebugString(seq);
        }
        EXPECT_TRUE(with_index->run.stats.SameAs(expected_stats));

        auto stats_only = RunAprioriIndex(ctx, options);
        ASSERT_TRUE(stats_only.ok()) << stats_only.status().ToString();
        EXPECT_TRUE(stats_only->stats.SameAs(with_index->run.stats));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndK, AprioriIndexOracleTest,
    ::testing::Combine(::testing::Values(FrequencyMode::kCollection,
                                         FrequencyMode::kDocument),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == FrequencyMode::kCollection
                             ? "cf"
                             : "df") +
             "_K" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ngram
