#include "index/posting.h"

#include <algorithm>

namespace ngram {

PostingList JoinAdjacent(const PostingList& left, const PostingList& right) {
  PostingList result;
  size_t i = 0, j = 0;
  while (i < left.postings.size() && j < right.postings.size()) {
    const Posting& l = left.postings[i];
    const Posting& r = right.postings[j];
    if (l.doc_id < r.doc_id) {
      ++i;
    } else if (l.doc_id > r.doc_id) {
      ++j;
    } else {
      Posting joined;
      joined.doc_id = l.doc_id;
      // Two-pointer scan: keep p in l.positions with p + 1 in r.positions.
      size_t a = 0, b = 0;
      while (a < l.positions.size() && b < r.positions.size()) {
        const uint32_t want = l.positions[a] + 1;
        if (r.positions[b] < want) {
          ++b;
        } else if (r.positions[b] > want) {
          ++a;
        } else {
          joined.positions.push_back(l.positions[a]);
          ++a;
          ++b;
        }
      }
      if (!joined.positions.empty()) {
        result.postings.push_back(std::move(joined));
      }
      ++i;
      ++j;
    }
  }
  return result;
}

void PostingListBuilder::Clear() {
  docs_.clear();
  positions_.clear();
  in_order_ = true;
}

Status PostingListBuilder::Add(Slice in) {
  uint64_t doc_id = 0, count = 0;
  // Every position delta takes at least one byte, which bounds `count`
  // before anything is sized from it.
  if (!GetVarint64(&in, &doc_id) || !GetVarint64(&in, &count) ||
      count > in.size()) {
    return Status::Corruption("posting: truncated header");
  }
  if (docs_.empty() || docs_.back().doc_id != doc_id) {
    if (!docs_.empty() && doc_id < docs_.back().doc_id) {
      in_order_ = false;
    }
    docs_.push_back({doc_id, positions_.size(), positions_.size()});
  }
  DocRange& doc = docs_.back();
  // Positions decode exactly as Serde<Posting> does (uint32 running sum);
  // one falling below its predecessor in the document breaks the order.
  uint32_t position = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(&in, &delta)) {
      return Status::Corruption("posting: truncated positions");
    }
    position += delta;
    if (doc.end > doc.begin && position < positions_.back()) {
      in_order_ = false;
    }
    positions_.push_back(position);
    doc.end = positions_.size();
  }
  if (!in.empty()) {
    return Status::Corruption("posting: trailing bytes");
  }
  return Status::OK();
}

void PostingListBuilder::Finish() {
  if (in_order_) {
    return;
  }
  // Sort-and-merge: group the ranges by document (ties by arrival, so the
  // result is a pure function of the input), concatenate each document's
  // positions, and sort them.
  sorted_docs_.assign(docs_.begin(), docs_.end());
  std::sort(sorted_docs_.begin(), sorted_docs_.end(),
            [](const DocRange& a, const DocRange& b) {
              return a.doc_id != b.doc_id ? a.doc_id < b.doc_id
                                          : a.begin < b.begin;
            });
  docs_.clear();
  sorted_positions_.clear();
  for (const DocRange& range : sorted_docs_) {
    if (docs_.empty() || docs_.back().doc_id != range.doc_id) {
      docs_.push_back(
          {range.doc_id, sorted_positions_.size(), sorted_positions_.size()});
    }
    sorted_positions_.insert(sorted_positions_.end(),
                             positions_.begin() + range.begin,
                             positions_.begin() + range.end);
    docs_.back().end = sorted_positions_.size();
  }
  for (const DocRange& doc : docs_) {
    std::sort(sorted_positions_.begin() + doc.begin,
              sorted_positions_.begin() + doc.end);
  }
  positions_.swap(sorted_positions_);
  in_order_ = true;
}

void PostingListBuilder::EncodeTo(std::string* out) const {
  // Serde<PostingList> wire form, written from the flat buffers.
  PutVarint64(out, docs_.size());
  uint64_t prev_doc = 0;
  for (const DocRange& doc : docs_) {
    PutVarint64(out, doc.doc_id - prev_doc);
    prev_doc = doc.doc_id;
    PutVarint64(out, doc.end - doc.begin);
    uint32_t prev_pos = 0;
    for (size_t i = doc.begin; i < doc.end; ++i) {
      PutVarint32(out, positions_[i] - prev_pos);
      prev_pos = positions_[i];
    }
  }
}

bool ReadPostingListCounts(Slice list, uint64_t* documents,
                           uint64_t* occurrences) {
  uint64_t docs = 0;
  if (!GetVarint64(&list, &docs)) {
    return false;
  }
  uint64_t total = 0;
  for (uint64_t i = 0; i < docs; ++i) {
    uint64_t doc_delta = 0, count = 0;
    if (!GetVarint64(&list, &doc_delta) || !GetVarint64(&list, &count) ||
        count > list.size()) {
      return false;
    }
    total += count;
    for (uint64_t j = 0; j < count; ++j) {
      uint32_t delta = 0;
      if (!GetVarint32(&list, &delta)) {
        return false;
      }
    }
  }
  *documents = docs;
  *occurrences = total;
  return list.empty();
}

}  // namespace ngram
