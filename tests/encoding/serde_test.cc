#include "encoding/serde.h"

#include <gtest/gtest.h>

#include "core/input.h"
#include "core/timeseries.h"
#include "index/posting.h"

namespace ngram {
namespace {

template <typename T>
T RoundTrip(const T& value) {
  std::string buf;
  Serde<T>::Encode(value, &buf);
  T out{};
  EXPECT_TRUE(Serde<T>::Decode(Slice(buf), &out));
  return out;
}

TEST(SerdeTest, PrimitiveRoundTrips) {
  EXPECT_EQ(RoundTrip<uint32_t>(0u), 0u);
  EXPECT_EQ(RoundTrip<uint32_t>(123456u), 123456u);
  EXPECT_EQ(RoundTrip<uint64_t>(1ULL << 50), 1ULL << 50);
  EXPECT_EQ(RoundTrip<int64_t>(-12345), -12345);
  EXPECT_EQ(RoundTrip<std::string>(std::string("abc\0def", 7)),
            std::string("abc\0def", 7));
}

TEST(SerdeTest, PrimitiveRejectsTrailingGarbage) {
  std::string buf;
  Serde<uint64_t>::Encode(7, &buf);
  buf.push_back('x');
  uint64_t out = 0;
  EXPECT_FALSE(Serde<uint64_t>::Decode(Slice(buf), &out));
}

TEST(SerdeTest, TermSequenceRoundTrip) {
  const TermSequence seq = {5, 500, 50000};
  EXPECT_EQ(RoundTrip(seq), seq);
}

TEST(SerdeTest, PairRoundTrip) {
  const std::pair<uint64_t, int64_t> p{42, -7};
  EXPECT_EQ(RoundTrip(p), p);
  const std::pair<TermSequence, uint64_t> q{{1, 2, 3}, 99};
  EXPECT_EQ(RoundTrip(q), q);
}

TEST(SerdeTest, NestedPairRoundTrip) {
  const std::pair<std::pair<uint64_t, uint64_t>, std::string> v{{1, 2},
                                                                "xyz"};
  EXPECT_EQ(RoundTrip(v), v);
}

TEST(SerdeTest, VectorRoundTrip) {
  const std::vector<uint64_t> v = {1, 1000, 100000};
  EXPECT_EQ(RoundTrip(v), v);
  const std::vector<std::string> s = {"a", "", "ccc"};
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(SerdeTest, PostingRoundTrip) {
  Posting p;
  p.doc_id = 123456789;
  p.positions = {0, 1, 17, 100000};
  EXPECT_EQ(RoundTrip(p), p);
}

TEST(SerdeTest, PostingListRoundTrip) {
  PostingList list;
  list.postings.push_back({10, {1, 5}});
  list.postings.push_back({11, {0}});
  list.postings.push_back({1000, {7, 8, 9}});
  EXPECT_EQ(RoundTrip(list), list);
  EXPECT_EQ(list.TotalOccurrences(), 6u);
  EXPECT_EQ(list.DocumentFrequency(), 3u);
}

TEST(SerdeTest, EmptyPostingListRoundTrip) {
  PostingList list;
  EXPECT_EQ(RoundTrip(list), list);
}

TEST(SerdeTest, FragmentRoundTrip) {
  Fragment f;
  f.base = 42;
  f.terms = {9, 8, 7};
  EXPECT_EQ(RoundTrip(f), f);
}

TEST(SerdeTest, TimeSeriesRoundTrip) {
  TimeSeries ts;
  ts.Add(1987, 3);
  ts.Add(2007, 1);
  ts.Add(1990, 5);
  EXPECT_EQ(RoundTrip(ts), ts);
}

TEST(SerdeTest, VectorRejectsImpossibleCount) {
  // A count of 2^60 elements over a few bytes is rejected before anything
  // is reserved: every element carries at least its length byte.
  std::string buf;
  PutVarint64(&buf, uint64_t{1} << 60);
  buf += "\x01x\x01y";
  std::vector<std::string> out;
  EXPECT_FALSE(Serde<std::vector<std::string>>::Decode(Slice(buf), &out));
}

TEST(SerdeTest, PostingListDeltaEncodingIsCompact) {
  // Dense doc ids and positions should cost ~1 byte each.
  PostingList list;
  for (uint64_t d = 1000; d < 1100; ++d) {
    list.postings.push_back({d, {5}});
  }
  std::string buf;
  Serde<PostingList>::Encode(list, &buf);
  EXPECT_LT(buf.size(), 100 * 5u);
}

TEST(SerdeTest, CorruptPostingListRejected) {
  PostingList list;
  list.postings.push_back({10, {1, 5}});
  std::string buf;
  Serde<PostingList>::Encode(list, &buf);
  PostingList out;
  EXPECT_FALSE(
      Serde<PostingList>::Decode(Slice(buf.data(), buf.size() - 1), &out));
}

}  // namespace
}  // namespace ngram
