#include "index/posting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/random.h"

namespace ngram {
namespace {

PostingList MakeList(
    std::initializer_list<std::pair<uint64_t, std::vector<uint32_t>>> items) {
  PostingList list;
  for (const auto& [doc, positions] : items) {
    list.postings.push_back({doc, positions});
  }
  return list;
}

TEST(PostingJoinTest, PaperExample) {
  // Section III-B: <a x> : <d1:[0], d2:[1], d3:[2]> joined with
  // <x b> : <d1:[1], d2:[2], d3:[0,3]> yields
  // <a x b> : <d1:[0], d2:[1], d3:[2]>.
  const PostingList ax = MakeList({{1, {0}}, {2, {1}}, {3, {2}}});
  const PostingList xb = MakeList({{1, {1}}, {2, {2}}, {3, {0, 3}}});
  const PostingList joined = JoinAdjacent(ax, xb);
  EXPECT_EQ(joined, MakeList({{1, {0}}, {2, {1}}, {3, {2}}}));
  EXPECT_EQ(joined.TotalOccurrences(), 3u);
}

TEST(PostingJoinTest, NoCommonDocuments) {
  const PostingList a = MakeList({{1, {0}}, {3, {5}}});
  const PostingList b = MakeList({{2, {1}}, {4, {6}}});
  EXPECT_TRUE(JoinAdjacent(a, b).postings.empty());
}

TEST(PostingJoinTest, CommonDocNoAdjacentPositions) {
  const PostingList a = MakeList({{1, {0, 10}}});
  const PostingList b = MakeList({{1, {5, 20}}});
  EXPECT_TRUE(JoinAdjacent(a, b).postings.empty());
}

TEST(PostingJoinTest, OverlappingOccurrences) {
  // "aaa" within "aaaa": positions of "aa" are {0,1,2}; joining "aa" with
  // "aa" gives "aaa" at {0,1}.
  const PostingList aa = MakeList({{7, {0, 1, 2}}});
  const PostingList joined = JoinAdjacent(aa, aa);
  EXPECT_EQ(joined, MakeList({{7, {0, 1}}}));
}

TEST(PostingJoinTest, MixedDocsPartialMatches) {
  const PostingList left = MakeList({{1, {0}}, {2, {3, 7}}, {5, {1}}});
  const PostingList right = MakeList({{2, {4, 9}}, {5, {3}}, {9, {0}}});
  const PostingList joined = JoinAdjacent(left, right);
  EXPECT_EQ(joined, MakeList({{2, {3}}}));
}

TEST(PostingJoinTest, EmptyInputs) {
  const PostingList empty;
  const PostingList a = MakeList({{1, {0}}});
  EXPECT_TRUE(JoinAdjacent(empty, a).postings.empty());
  EXPECT_TRUE(JoinAdjacent(a, empty).postings.empty());
}

TEST(PostingListTest, FrequencyHelpers) {
  const PostingList list = MakeList({{1, {0, 2}}, {4, {1}}});
  EXPECT_EQ(list.TotalOccurrences(), 3u);
  EXPECT_EQ(list.DocumentFrequency(), 2u);
}

std::string EncodePosting(const Posting& posting) {
  std::string out;
  Serde<Posting>::Encode(posting, &out);
  return out;
}

std::string EncodeList(const PostingList& list) {
  std::string out;
  Serde<PostingList>::Encode(list, &out);
  return out;
}

/// Feeds `postings` to `builder` in the given order and returns the
/// encoded list.
std::string Build(const std::vector<Posting>& postings,
                  PostingListBuilder* builder) {
  builder->Clear();
  for (const Posting& posting : postings) {
    EXPECT_TRUE(builder->Add(EncodePosting(posting)).ok());
  }
  builder->Finish();
  std::string out;
  builder->EncodeTo(&out);
  return out;
}

/// The reference reducer: sort the postings by (doc, positions), then
/// merge each document's postings and sort the merged positions.
PostingList SortAndMerge(std::vector<Posting> postings) {
  std::sort(postings.begin(), postings.end(),
            [](const Posting& a, const Posting& b) {
              if (a.doc_id != b.doc_id) {
                return a.doc_id < b.doc_id;
              }
              return a.positions < b.positions;
            });
  PostingList list;
  for (auto& posting : postings) {
    if (!list.postings.empty() &&
        list.postings.back().doc_id == posting.doc_id) {
      auto& dst = list.postings.back().positions;
      dst.insert(dst.end(), posting.positions.begin(),
                 posting.positions.end());
      std::sort(dst.begin(), dst.end());
    } else {
      list.postings.push_back(std::move(posting));
    }
  }
  return list;
}

TEST(PostingSerdeTest, ImpossibleCountsAreRejected) {
  // Counts of 2^60 over a few bytes — positions of one posting, postings
  // of a list, positions of a list's posting — are rejected before
  // anything is reserved: every element takes at least one byte.
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  std::string posting;
  PutVarint64(&posting, 7);      // doc id
  PutVarint64(&posting, kHuge);  // position count
  posting += "\x01\x01";
  Posting p;
  EXPECT_FALSE(Serde<Posting>::Decode(Slice(posting), &p));

  std::string huge_list;
  PutVarint64(&huge_list, kHuge);  // posting count
  huge_list += "\x01\x01";
  std::string huge_positions;
  PutVarint64(&huge_positions, 1);      // posting count
  PutVarint64(&huge_positions, 7);      // doc delta
  PutVarint64(&huge_positions, kHuge);  // position count
  huge_positions += "\x01\x01";
  for (const std::string& list : {huge_list, huge_positions}) {
    PostingList out;
    EXPECT_FALSE(Serde<PostingList>::Decode(Slice(list), &out));
  }
}

TEST(PostingListBuilderTest, InOrderInputConcatenates) {
  PostingListBuilder builder;
  EXPECT_EQ(Build({{1, {0, 3}}, {2, {1}}, {5, {2, 4, 9}}}, &builder),
            EncodeList(MakeList({{1, {0, 3}}, {2, {1}}, {5, {2, 4, 9}}})));
}

TEST(PostingListBuilderTest, DocumentSplitOverSentencesMerges) {
  // One posting per sentence of document 1; positions continue across
  // the sentence gaps.
  PostingListBuilder builder;
  EXPECT_EQ(Build({{1, {0, 2}}, {1, {5}}, {1, {7, 8}}, {3, {1}}}, &builder),
            EncodeList(MakeList({{1, {0, 2, 5, 7, 8}}, {3, {1}}})));
}

TEST(PostingListBuilderTest, ShuffledInputMatchesSortAndMerge) {
  Rng rng(7);
  PostingListBuilder builder;  // Reused across lists, as in a reducer.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Posting> postings(1 + rng.Uniform(12));
    for (Posting& posting : postings) {
      posting.doc_id = 1 + rng.Uniform(5);  // Documents repeat.
      uint32_t position = static_cast<uint32_t>(rng.Uniform(6));
      for (uint64_t n = rng.Uniform(4); n > 0; --n) {  // Maybe empty.
        posting.positions.push_back(position);
        position += static_cast<uint32_t>(rng.Uniform(4));  // Repeats too.
      }
    }
    const std::string expected = EncodeList(SortAndMerge(postings));
    for (size_t i = postings.size(); i > 1; --i) {
      std::swap(postings[i - 1], postings[rng.Uniform(i)]);
    }
    EXPECT_EQ(Build(postings, &builder), expected) << "trial " << trial;
    // The in-order feed of the same list yields the same bytes.
    EXPECT_EQ(Build(SortAndMerge(postings).postings, &builder), expected)
        << "trial " << trial;
  }
}

TEST(PostingListBuilderTest, DocumentAndCollectionFrequencies) {
  // <9> at 0, 1, 2 and 7 of document 4 and at 3 of document 6, with
  // document 4's second sentence arriving last.
  PostingListBuilder builder;
  const std::string bytes =
      Build({{4, {0, 1, 2}}, {6, {3}}, {4, {7}}}, &builder);
  EXPECT_EQ(builder.DocumentFrequency(), 2u);
  EXPECT_EQ(builder.TotalOccurrences(), 5u);
  EXPECT_EQ(bytes, EncodeList(MakeList({{4, {0, 1, 2, 7}}, {6, {3}}})));

  uint64_t documents = 0, occurrences = 0;
  ASSERT_TRUE(ReadPostingListCounts(bytes, &documents, &occurrences));
  EXPECT_EQ(documents, 2u);
  EXPECT_EQ(occurrences, 5u);
}

TEST(PostingListBuilderTest, TruncatedOrOverlongValuesAreCorruption) {
  const std::string good = EncodePosting({3, {1, 4, 300}});
  PostingListBuilder builder;
  ASSERT_TRUE(builder.Add(good).ok());
  for (size_t len = 0; len < good.size(); ++len) {
    builder.Clear();
    EXPECT_TRUE(builder.Add(Slice(good.data(), len)).IsCorruption())
        << "truncated to " << len;
  }
  builder.Clear();
  EXPECT_TRUE(builder.Add(good + "x").IsCorruption());
  // A count no remaining byte could hold.
  std::string huge;
  PutVarint64(&huge, 3);
  PutVarint64(&huge, uint64_t{1} << 40);
  builder.Clear();
  EXPECT_TRUE(builder.Add(huge).IsCorruption());

  const std::string list = EncodeList(MakeList({{1, {0, 2}}, {4, {300}}}));
  uint64_t documents = 0, occurrences = 0;
  for (size_t len = 0; len < list.size(); ++len) {
    EXPECT_FALSE(ReadPostingListCounts(Slice(list.data(), len), &documents,
                                       &occurrences))
        << "truncated to " << len;
  }
  EXPECT_FALSE(ReadPostingListCounts(list + "x", &documents, &occurrences));
}

}  // namespace
}  // namespace ngram
