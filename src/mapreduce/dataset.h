// Job-boundary datasets.
//
// RecordTable is the native boundary between chained MapReduce jobs: an
// arena-backed table of serialized (key, value) records in the same framed
// wire form the shuffle uses, so round k's reducer output feeds round k+1's
// mappers as slices — no typed decode/re-encode at the boundary. Reduce
// contexts append to it without materializing typed rows, map input reads
// it through the zero-copy RecordReader contract (one-record lookback
// included), and the driver splits map tasks over it by serialized byte
// size instead of row count.
//
// MemoryTable, the typed in-memory dataset of (key, value) rows, remains
// as the convenience boundary for user-facing code and tests; RunJob
// adapts it onto RecordTable with one encode/decode pass per job edge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "encoding/serde.h"
#include "mapreduce/record.h"
#include "util/macros.h"
#include "util/status.h"

namespace ngram::mr {

template <typename K, typename V>
struct MemoryTable {
  using Row = std::pair<K, V>;

  std::vector<Row> rows;

  void Add(K key, V value) {
    rows.emplace_back(std::move(key), std::move(value));
  }

  uint64_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  void Clear() { rows.clear(); }
};

/// \brief Serialized (key, value) dataset: the native job boundary.
///
/// Records are framed ([klen][vlen][key][value], see record.h) back-to-back
/// in chunked arenas. Appends go to the active chunk; a full chunk is
/// sealed and never reallocated again, so concatenating tables
/// (AppendTable) moves whole arenas instead of copying rows. Readers
/// surface key/value slices pointing straight into the arenas.
///
/// Write-then-read discipline: create readers and views only once the
/// table is no longer being appended to (the active chunk may reallocate
/// while it grows). The job driver observes this naturally — reducers
/// finish writing before the next job's map phase opens readers. Once
/// reading starts, chunk bytes are stable for the table's lifetime, so
/// reader slices remain valid across any number of Next() calls — the
/// one-record lookback contract holds trivially.
class RecordTable {
 public:
  /// Soft chunk size: a chunk past this many bytes is sealed and a new one
  /// started. One record larger than this still lands in a single chunk
  /// (records never span chunks).
  static constexpr size_t kChunkBytes = 1 << 20;

  RecordTable() = default;
  RecordTable(RecordTable&&) = default;
  RecordTable& operator=(RecordTable&&) = default;
  NGRAM_DISALLOW_COPY_AND_ASSIGN(RecordTable);

  /// Appends one serialized record.
  void Append(Slice key, Slice value);

  /// Splices every record of `other` onto the end of this table, in order,
  /// by moving its chunk arenas — O(chunks), no per-record work. `other`
  /// is left empty.
  void AppendTable(RecordTable&& other);

  uint64_t num_records() const { return num_records_; }
  /// Total framed bytes (the byte size map-task splitting balances).
  uint64_t byte_size() const { return byte_size_; }
  bool empty() const { return num_records_ == 0; }
  void Clear();

  /// A contiguous record range of the table (map task input split).
  /// Offsets always sit on record boundaries.
  struct View {
    size_t begin_chunk = 0;
    size_t begin_offset = 0;
    size_t end_chunk = 0;  // Inclusive chunk index; range ends at
    size_t end_offset = 0; // end_offset within it (exclusive byte bound).
    uint64_t bytes = 0;    // Framed bytes covered by the view.

    bool empty() const { return bytes == 0; }
  };

  /// The whole table as one view.
  View WholeView() const;

  /// Splits the table into exactly `num_shards` contiguous views,
  /// byte-balanced: shard i ends at the first record boundary at or past
  /// global byte offset `byte_size * (i+1) / num_shards`. Together the
  /// views cover every record exactly once; trailing views may be empty
  /// when single records exceed a shard's byte share.
  std::vector<View> SplitByBytes(uint32_t num_shards) const;

  /// Zero-copy readers. Slices stay valid for the table's lifetime.
  std::unique_ptr<RecordReader> NewReader() const;
  std::unique_ptr<RecordReader> NewReader(const View& view) const;

 private:
  friend class RecordTableReader;

  std::vector<std::string> chunks_;
  uint64_t num_records_ = 0;
  uint64_t byte_size_ = 0;
};

/// Encodes one typed row onto a RecordTable through `scratch` (reused by
/// the caller across rows; no per-row allocation once warm).
template <typename K, typename V>
inline void AppendTypedRow(RecordTable* table, const K& key, const V& value,
                           std::string* scratch) {
  scratch->clear();
  Serde<K>::Encode(key, scratch);
  const size_t key_len = scratch->size();
  Serde<V>::Encode(value, scratch);
  table->Append(Slice(scratch->data(), key_len),
                Slice(scratch->data() + key_len, scratch->size() - key_len));
}

/// Serializes a typed table into a RecordTable (the typed-input shim of
/// RunJob; chained drivers keep their tables serialized instead).
template <typename K, typename V>
inline RecordTable EncodeTable(const MemoryTable<K, V>& typed) {
  RecordTable table;
  std::string scratch;
  for (const auto& [key, value] : typed.rows) {
    AppendTypedRow(&table, key, value, &scratch);
  }
  return table;
}

/// Decodes every record of `table` into typed rows (the typed-output shim
/// of RunJob and the final drain of chained pipelines).
template <typename K, typename V>
inline Status DecodeTable(const RecordTable& table, MemoryTable<K, V>* out) {
  out->Clear();
  out->rows.reserve(table.num_records());
  auto reader = table.NewReader();
  while (reader->Next()) {
    K key;
    V value;
    if (!Serde<K>::Decode(reader->key(), &key) ||
        !Serde<V>::Decode(reader->value(), &value)) {
      return Status::Corruption("undecodable serialized table row");
    }
    out->rows.emplace_back(std::move(key), std::move(value));
  }
  return reader->status();
}

}  // namespace ngram::mr
