#include "mapreduce/dataset.h"

#include <cassert>
#include <cstring>

#include "encoding/varint.h"
#include "mapreduce/runfile.h"

namespace ngram::mr {

namespace {

// Self-describing header of a serialized RecordTable: magic, version, the
// at-rest format of the record region (always kTableBlockFormat), and the
// expected record/byte counts. The counts are what make a *cleanly
// truncated* file detectable: per-block CRCs catch flipped bits, but a
// file that lost whole trailing blocks (partial copy, disk-full crash)
// still reads as a valid shorter stream — Load() cross-checks what it
// decoded against the header.
constexpr char kTableMagic[4] = {'N', 'G', 'R', 'T'};
constexpr uint8_t kTableVersion = 1;
// Format byte naming the block run format (runfile.h), the only one
// Load() accepts.
constexpr uint8_t kTableBlockFormat = 1;
// magic[4] version format pad[2] num_records[8] byte_size[8].
constexpr size_t kTableHeaderBytes = 24;

void AppendFixed64(std::string* out, uint64_t v) {
  PutFixed32(out, static_cast<uint32_t>(v & 0xffffffffu));
  PutFixed32(out, static_cast<uint32_t>(v >> 32));
}

uint64_t DecodeFixed64At(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

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

Status RecordTable::Save(const std::string& path, IoEnv* env) const {
  RunWriterOptions options;
  options.env = env;
  options.preamble.assign(kTableMagic, sizeof(kTableMagic));
  options.preamble.push_back(static_cast<char>(kTableVersion));
  options.preamble.push_back(static_cast<char>(kTableBlockFormat));
  options.preamble.append(2, '\0');
  AppendFixed64(&options.preamble, num_records_);
  AppendFixed64(&options.preamble, byte_size_);
  RunWriter writer(path, options);
  NGRAM_RETURN_NOT_OK(writer.Open());
  auto reader = NewReader();
  while (reader->Next()) {
    NGRAM_RETURN_NOT_OK(writer.Append(reader->key(), reader->value()));
  }
  NGRAM_RETURN_NOT_OK(reader->status());
  return writer.Close();  // Failure unlinks the partial file.
}

Status RecordTable::Load(const std::string& path, RecordTable* table,
                         IoEnv* env) {
  env = ResolveEnv(env);
  uint64_t file_size = 0;
  NGRAM_RETURN_NOT_OK(
      env->FileSize(path, &file_size).WithContext("load table"));
  if (file_size < kTableHeaderBytes) {
    return Status::Corruption("table file " + path + " shorter than header");
  }
  char header[kTableHeaderBytes];
  {
    std::unique_ptr<ReadableFile> f;
    NGRAM_RETURN_NOT_OK(
        env->NewReadableFile(path, 0, &f).WithContext("load table"));
    size_t got = 0;
    NGRAM_RETURN_NOT_OK(f->Read(header, sizeof(header), &got)
                            .WithContext("read table header"));
    if (got != sizeof(header)) {
      return Status::Corruption("truncated table header reading " + path);
    }
  }
  if (memcmp(header, kTableMagic, sizeof(kTableMagic)) != 0) {
    return Status::Corruption("bad table magic in " + path);
  }
  if (static_cast<uint8_t>(header[4]) != kTableVersion) {
    return Status::Corruption("unsupported table version in " + path);
  }
  if (static_cast<uint8_t>(header[5]) != kTableBlockFormat) {
    return Status::Corruption("unsupported table format byte in " + path);
  }
  const uint64_t expected_records = DecodeFixed64At(header + 8);
  const uint64_t expected_bytes = DecodeFixed64At(header + 16);

  table->Clear();
  FileRecordReader reader(path, kTableHeaderBytes,
                          file_size - kTableHeaderBytes,
                          FileRecordReader::kDefaultBufferBytes, env);
  while (reader.Next()) {
    table->Append(reader.key(), reader.value());
  }
  NGRAM_RETURN_NOT_OK(reader.status());
  if (table->num_records() != expected_records ||
      table->byte_size() != expected_bytes) {
    // Structurally valid but shorter (or longer) than what Save() wrote:
    // whole trailing blocks/records were dropped or appended.
    return Status::Corruption(
        "table " + path + " holds " + std::to_string(table->num_records()) +
        " records / " + std::to_string(table->byte_size()) +
        " bytes, header promises " + std::to_string(expected_records) +
        " / " + std::to_string(expected_bytes));
  }
  return Status::OK();
}

}  // namespace ngram::mr
