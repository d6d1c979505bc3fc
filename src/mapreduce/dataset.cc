#include "mapreduce/dataset.h"

#include <cassert>

#include "encoding/varint.h"

namespace ngram::mr {

namespace {

/// Zero-copy reader over a contiguous record range of a RecordTable.
/// Chunk bytes are stable while the table is being read, so key/value
/// slices stay valid for the reader's lifetime (lookback holds trivially).
class RecordTableReader final : public RecordReader {
 public:
  RecordTableReader(const std::vector<std::string>* chunks,
                    RecordTable::View view)
      : chunks_(chunks), view_(view), chunk_(view.begin_chunk) {
    if (!view_.empty() && chunk_ < chunks_->size()) {
      cur_ = ChunkRange(chunk_);
    }
  }

  bool Next() override {
    while (cur_.empty()) {
      if (chunk_ >= view_.end_chunk || view_.empty()) {
        return false;
      }
      ++chunk_;
      cur_ = ChunkRange(chunk_);
    }
    uint64_t klen = 0, vlen = 0;
    // Checked term by term: a summed klen + vlen can wrap past the bound.
    if (!GetVarint64(&cur_, &klen) || !GetVarint64(&cur_, &vlen) ||
        klen > cur_.size() || vlen > cur_.size() - klen) {
      status_ = Status::Corruption("malformed RecordTable record");
      cur_ = Slice();
      return false;
    }
    key_ = Slice(cur_.data(), klen);
    value_ = Slice(cur_.data() + klen, vlen);
    cur_.RemovePrefix(klen + vlen);
    return true;
  }

 private:
  Slice ChunkRange(size_t chunk) const {
    const std::string& data = (*chunks_)[chunk];
    const size_t begin = chunk == view_.begin_chunk ? view_.begin_offset : 0;
    const size_t end = chunk == view_.end_chunk ? view_.end_offset
                                                : data.size();
    return Slice(data.data() + begin, end - begin);
  }

  const std::vector<std::string>* chunks_;
  const RecordTable::View view_;
  size_t chunk_;
  Slice cur_;  // Unread bytes of the current chunk's range.
};

}  // namespace

void RecordTable::Append(Slice key, Slice value) {
  if (chunks_.empty() || chunks_.back().size() >= kChunkBytes) {
    chunks_.emplace_back();
  }
  byte_size_ += AppendRecord(&chunks_.back(), key, value);
  ++num_records_;
}

void RecordTable::AppendTable(RecordTable&& other) {
  for (std::string& chunk : other.chunks_) {
    if (!chunk.empty()) {
      chunks_.push_back(std::move(chunk));
    }
  }
  num_records_ += other.num_records_;
  byte_size_ += other.byte_size_;
  other.Clear();
}

void RecordTable::Clear() {
  chunks_.clear();
  num_records_ = 0;
  byte_size_ = 0;
}

RecordTable::View RecordTable::WholeView() const {
  View view;
  if (!chunks_.empty()) {
    view.end_chunk = chunks_.size() - 1;
    view.end_offset = chunks_.back().size();
  }
  view.bytes = byte_size_;
  return view;
}

std::vector<RecordTable::View> RecordTable::SplitByBytes(
    uint32_t num_shards) const {
  if (num_shards <= 1 || empty()) {
    // No boundaries to find: skip the frame walk entirely.
    std::vector<View> views(std::max(1u, num_shards));
    views[0] = WholeView();
    return views;
  }
  std::vector<View> views(num_shards);

  // Cursor over record boundaries: (chunk, offset, global framed offset).
  size_t chunk = 0;
  size_t offset = 0;
  uint64_t global = 0;

  // Parses the frame at the cursor and advances past it. The table only
  // ever holds frames it wrote itself, so malformed data is a programming
  // error, not an input condition.
  auto advance_one = [&] {
    Slice rest(chunks_[chunk].data() + offset,
               chunks_[chunk].size() - offset);
    const char* frame_start = rest.data();
    uint64_t klen = 0, vlen = 0;
    const bool ok = GetVarint64(&rest, &klen) && GetVarint64(&rest, &vlen);
    assert(ok && klen + vlen <= rest.size());
    (void)ok;
    const size_t framed =
        static_cast<size_t>(rest.data() - frame_start) + klen + vlen;
    offset += framed;
    global += framed;
    if (offset == chunks_[chunk].size() && chunk + 1 < chunks_.size()) {
      ++chunk;
      offset = 0;
    }
  };

  for (uint32_t i = 0; i < num_shards; ++i) {
    View& view = views[i];
    view.begin_chunk = chunk;
    view.begin_offset = offset;
    const uint64_t before = global;
    const uint64_t target = byte_size_ * (i + 1) / num_shards;
    while (global < target) {
      advance_one();
    }
    view.end_chunk = chunk;
    view.end_offset = offset;
    view.bytes = global - before;
  }
  // The last target equals byte_size_, so the loop above consumed every
  // record; the final view always ends at the table's end.
  return views;
}

std::unique_ptr<RecordReader> RecordTable::NewReader() const {
  return NewReader(WholeView());
}

std::unique_ptr<RecordReader> RecordTable::NewReader(const View& view) const {
  return std::make_unique<RecordTableReader>(&chunks_, view);
}

}  // namespace ngram::mr
