// Positional postings for APRIORI-INDEX: every frequent n-gram carries an
// inverted list of (document, sorted positions). Joining the posting lists
// of a k-gram's two constituent (k-1)-grams (offset by one position) yields
// the k-gram's posting list — the core of Algorithm 3, Reducer #2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "encoding/serde.h"
#include "encoding/varint.h"
#include "util/slice.h"
#include "util/status.h"

namespace ngram {

/// Occurrences of one n-gram within one document.
struct Posting {
  uint64_t doc_id = 0;
  std::vector<uint32_t> positions;  // Start offsets, strictly ascending.

  bool operator==(const Posting& o) const {
    return doc_id == o.doc_id && positions == o.positions;
  }
};

/// A full inverted list, sorted by doc_id.
struct PostingList {
  std::vector<Posting> postings;

  /// Collection frequency represented by this list: total number of
  /// occurrences across documents.
  uint64_t TotalOccurrences() const {
    uint64_t n = 0;
    for (const auto& p : postings) {
      n += p.positions.size();
    }
    return n;
  }

  /// Document frequency: number of documents with >= 1 occurrence.
  uint64_t DocumentFrequency() const { return postings.size(); }

  bool operator==(const PostingList& o) const {
    return postings == o.postings;
  }
};

/// Positional merge-join: occurrences of the k-gram whose first (k-1)-gram
/// is `left` and whose last (k-1)-gram is `right`; i.e. keeps positions p of
/// `left` such that `right` has an occurrence at p + 1.
PostingList JoinAdjacent(const PostingList& left, const PostingList& right);

/// Wire format: doc ids delta-encoded across postings; positions
/// delta-encoded within a posting.
template <>
struct Serde<Posting> {
  static void Encode(const Posting& p, std::string* out) {
    PutVarint64(out, p.doc_id);
    PutVarint64(out, p.positions.size());
    uint32_t prev = 0;
    for (uint32_t pos : p.positions) {
      PutVarint32(out, pos - prev);
      prev = pos;
    }
  }
  static bool Decode(Slice in, Posting* p) {
    p->positions.clear();
    uint64_t n = 0;
    // Each position delta takes at least one byte.
    if (!GetVarint64(&in, &p->doc_id) || !GetVarint64(&in, &n) ||
        n > in.size()) {
      return false;
    }
    uint32_t prev = 0;
    p->positions.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t delta = 0;
      if (!GetVarint32(&in, &delta)) {
        return false;
      }
      prev += delta;
      p->positions.push_back(prev);
    }
    return in.empty();
  }
};

/// \brief Assembles one n-gram's posting list straight from a stream of
/// Serde<Posting>-encoded values and appends its Serde<PostingList>
/// encoding — no Posting or PostingList is materialized.
///
/// APRIORI-INDEX phase 1 feeds a reduce group here. Values normally arrive
/// in (doc, position) order (input rows are in document order and merge
/// ties break by map task), so the builder just concatenates the postings
/// of one document into reused flat buffers. It never assumes that order:
/// any out-of-order value makes Finish() sort and merge, whose result —
/// per document, the sorted union of every posting's positions — is the
/// same either way. Buffers are reused across Clear() calls.
class PostingListBuilder {
 public:
  /// Starts a new list.
  void Clear();

  /// Adds one Serde<Posting> value; Corruption on a truncated or overlong
  /// one (the list is then garbage until the next Clear()).
  Status Add(Slice posting);

  /// Call after the last Add(): sorts and merges the list if the values
  /// arrived out of order. The accessors below require it.
  void Finish();

  /// Collection frequency: occurrences across all documents.
  uint64_t TotalOccurrences() const { return positions_.size(); }
  /// Document frequency: documents with a posting.
  uint64_t DocumentFrequency() const { return docs_.size(); }

  /// Appends the Serde<PostingList> encoding of the list to `out`.
  void EncodeTo(std::string* out) const;

 private:
  /// One document's positions: positions_[begin, end).
  struct DocRange {
    uint64_t doc_id;
    size_t begin;
    size_t end;
  };

  std::vector<DocRange> docs_;
  std::vector<uint32_t> positions_;
  bool in_order_ = true;
  // Sort-and-merge scratch, reused across lists.
  std::vector<DocRange> sorted_docs_;
  std::vector<uint32_t> sorted_positions_;
};

/// Reads the document count and total occurrence count of a
/// Serde<PostingList> encoding, skipping the positions without storing
/// them. Returns false on malformed input.
bool ReadPostingListCounts(Slice list, uint64_t* documents,
                           uint64_t* occurrences);

template <>
struct Serde<PostingList> {
  static void Encode(const PostingList& list, std::string* out) {
    PutVarint64(out, list.postings.size());
    uint64_t prev_doc = 0;
    for (const auto& p : list.postings) {
      PutVarint64(out, p.doc_id - prev_doc);
      prev_doc = p.doc_id;
      PutVarint64(out, p.positions.size());
      uint32_t prev_pos = 0;
      for (uint32_t pos : p.positions) {
        PutVarint32(out, pos - prev_pos);
        prev_pos = pos;
      }
    }
  }
  static bool Decode(Slice in, PostingList* list) {
    list->postings.clear();
    uint64_t n = 0;
    // Each posting and position delta takes at least one byte.
    if (!GetVarint64(&in, &n) || n > in.size()) {
      return false;
    }
    list->postings.reserve(n);
    uint64_t prev_doc = 0;
    for (uint64_t i = 0; i < n; ++i) {
      Posting p;
      uint64_t doc_delta = 0, count = 0;
      if (!GetVarint64(&in, &doc_delta) || !GetVarint64(&in, &count) ||
          count > in.size()) {
        return false;
      }
      prev_doc += doc_delta;
      p.doc_id = prev_doc;
      p.positions.reserve(count);
      uint32_t prev_pos = 0;
      for (uint64_t j = 0; j < count; ++j) {
        uint32_t delta = 0;
        if (!GetVarint32(&in, &delta)) {
          return false;
        }
        prev_pos += delta;
        p.positions.push_back(prev_pos);
      }
      list->postings.push_back(std::move(p));
    }
    return in.empty();
  }
};

}  // namespace ngram
