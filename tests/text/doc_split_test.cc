// Document splitting at infrequent terms (Section V, "Document Splits"):
// a fragment like <c b a z b a c> with cf(z) < tau splits into <c b a> and
// <b a c>. The cases drive ForEachPieceRange, the splitter every mapper
// runs.
#include <gtest/gtest.h>

#include <vector>

#include "core/input.h"

namespace ngram {
namespace {

/// The pieces ForEachPieceRange cuts `doc` into, as term sequences.
std::vector<TermSequence> SplitPieces(const TermSequence& doc,
                                      const UnigramFrequencies& freq,
                                      uint64_t tau) {
  std::vector<TermSequence> pieces;
  ForEachPieceRange(doc, /*document_splits=*/true, freq, tau,
                    [&](size_t begin, size_t end) {
                      pieces.emplace_back(doc.begin() + begin,
                                          doc.begin() + end);
                    });
  return pieces;
}

TEST(DocSplitTest, PaperExample) {
  // Section V: <c b a z b a c> with infrequent z splits into <c b a> and
  // <b a c>. Terms: c=1, b=2, a=3, z=4.
  const TermSequence doc = {1, 2, 3, 4, 2, 3, 1};
  UnigramFrequencies freq = {0, 10, 10, 10, 1};  // cf(z)=1 < tau.
  const auto pieces = SplitPieces(doc, freq, /*tau=*/3);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], (TermSequence{1, 2, 3}));
  EXPECT_EQ(pieces[1], (TermSequence{2, 3, 1}));
}

TEST(DocSplitTest, NoInfrequentTermsKeepsWhole) {
  const TermSequence doc = {1, 2, 3};
  UnigramFrequencies freq = {0, 5, 5, 5};
  const auto pieces = SplitPieces(doc, freq, 3);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], doc);
}

TEST(DocSplitTest, AllInfrequentYieldsNothing) {
  const TermSequence doc = {1, 2, 3};
  UnigramFrequencies freq = {0, 1, 1, 1};
  EXPECT_TRUE(SplitPieces(doc, freq, 5).empty());
}

TEST(DocSplitTest, ConsecutiveInfrequentTermsNoEmptyPieces) {
  const TermSequence doc = {1, 9, 9, 9, 2};
  UnigramFrequencies freq = {0, 5, 5, 0, 0, 0, 0, 0, 0, 1};
  const auto pieces = SplitPieces(doc, freq, 3);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], (TermSequence{1}));
  EXPECT_EQ(pieces[1], (TermSequence{2}));
}

TEST(DocSplitTest, TermIdBeyondTableTreatedInfrequent) {
  const TermSequence doc = {1, 99, 1};
  UnigramFrequencies freq = {0, 5};
  const auto pieces = SplitPieces(doc, freq, 2);
  ASSERT_EQ(pieces.size(), 2u);
}

TEST(ForEachPieceTest, TracksBaseOffsets) {
  Fragment fragment;
  fragment.base = 100;
  fragment.terms = {1, 2, 9, 3};
  UnigramFrequencies freq = {0, 5, 5, 5, 0, 0, 0, 0, 0, 1};
  std::vector<Fragment> pieces;
  ForEachPiece(fragment, /*document_splits=*/true, freq, /*tau=*/3,
               [&](const Fragment& p) { pieces.push_back(p); });
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].base, 100u);
  EXPECT_EQ(pieces[0].terms, (TermSequence{1, 2}));
  EXPECT_EQ(pieces[1].base, 103u);  // Position of term 3 in doc space.
  EXPECT_EQ(pieces[1].terms, (TermSequence{3}));
}

TEST(ForEachPieceTest, DisabledPassesThrough) {
  Fragment fragment;
  fragment.base = 7;
  fragment.terms = {1, 9, 1};
  UnigramFrequencies freq = {0, 5, 0, 0, 0, 0, 0, 0, 0, 0};
  std::vector<Fragment> pieces;
  ForEachPiece(fragment, /*document_splits=*/false, freq, /*tau=*/3,
               [&](const Fragment& p) { pieces.push_back(p); });
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], fragment);
}

TEST(ForEachPieceTest, TauOneNeverSplits) {
  Fragment fragment;
  fragment.terms = {1, 2, 3};
  UnigramFrequencies freq = {0, 1, 1, 1};
  std::vector<Fragment> pieces;
  ForEachPiece(fragment, true, freq, /*tau=*/1,
               [&](const Fragment& p) { pieces.push_back(p); });
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].terms, fragment.terms);
}

}  // namespace
}  // namespace ngram
