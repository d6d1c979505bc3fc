#include "index/sequence_set.h"

#include "encoding/varint.h"
#include "mapreduce/partitioner.h"
#include "util/logging.h"

namespace ngram {

namespace {
constexpr size_t kInitialBuckets = 1024;
constexpr double kMaxLoadFactor = 0.7;

uint64_t HashEncoded(Slice encoded) {
  return mr::HashPartitioner::Hash(encoded);
}
}  // namespace

SequenceSet::SequenceSet(Options options) : options_(std::move(options)) {
  buckets_.assign(kInitialBuckets, 0);
  tags_.assign(kInitialBuckets, 0);
}

SequenceSet::~SequenceSet() {
  if (store_ != nullptr) {
    store_.reset();
    kv::KVStore::Destroy(options_.spill_dir);
  }
}

size_t SequenceSet::MemoryBytes() const {
  return arena_.size() + buckets_.size() * sizeof(uint64_t) + tags_.size();
}

bool SequenceSet::FindInMemory(Slice encoded, uint64_t hash,
                               size_t* bucket) const {
  const size_t mask = buckets_.size() - 1;
  const uint8_t tag = Tag(hash);
  size_t b = static_cast<size_t>(hash) & mask;
  for (;;) {
    const uint64_t slot = buckets_[b];
    if (slot == 0) {
      *bucket = b;
      return false;
    }
    // The 1-byte hash tag rejects almost every non-matching occupied
    // bucket without chasing into the arena (the mapper's APRIORI probe
    // is this function's hot caller).
    if (tags_[b] == tag) {
      // Decode the arena entry at offset slot - 1.
      Slice entry(arena_.data() + (slot - 1), arena_.size() - (slot - 1));
      uint64_t len = 0;
      GetVarint64(&entry, &len);
      if (Slice(entry.data(), len) == encoded) {
        *bucket = b;
        return true;
      }
    }
    b = (b + 1) & mask;
  }
}

void SequenceSet::GrowBuckets() {
  std::vector<uint64_t> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, 0);
  tags_.assign(buckets_.size(), 0);
  const size_t mask = buckets_.size() - 1;
  // Rehash by replaying arena entries (offsets in `old` point into arena_).
  for (uint64_t slot : old) {
    if (slot == 0) {
      continue;
    }
    Slice entry(arena_.data() + (slot - 1), arena_.size() - (slot - 1));
    uint64_t len = 0;
    GetVarint64(&entry, &len);
    const uint64_t hash = HashEncoded(Slice(entry.data(), len));
    size_t b = static_cast<size_t>(hash) & mask;
    while (buckets_[b] != 0) {
      b = (b + 1) & mask;
    }
    buckets_[b] = slot;
    tags_[b] = Tag(hash);
  }
}

Status SequenceSet::SpillToStore() {
  auto opened = kv::KVStore::OpenEmpty(options_.spill_dir);
  if (!opened.ok()) {
    return opened.status();
  }
  store_ = std::move(opened).ValueOrDie();
  NGRAM_LOG_INFO << "SequenceSet spilling " << in_memory_size_
                 << " sequences (" << MemoryBytes() << " bytes) to "
                 << options_.spill_dir;
  // Move every arena entry into the store.
  Slice cursor(arena_);
  while (!cursor.empty()) {
    uint64_t len = 0;
    if (!GetVarint64(&cursor, &len)) {
      return Status::Corruption("SequenceSet arena corrupt");
    }
    NGRAM_RETURN_NOT_OK(store_->Put(Slice(cursor.data(), len), Slice()));
    cursor.RemovePrefix(len);
  }
  arena_.clear();
  arena_.shrink_to_fit();
  buckets_.assign(kInitialBuckets, 0);
  tags_.assign(kInitialBuckets, 0);
  in_memory_size_ = 0;
  return Status::OK();
}

Status SequenceSet::Insert(Slice encoded) {
  if (store_ != nullptr) {
    if (!store_->Contains(encoded)) {
      NGRAM_RETURN_NOT_OK(store_->Put(encoded, Slice()));
      ++size_;
    }
    return Status::OK();
  }
  const uint64_t hash = HashEncoded(encoded);
  size_t bucket = 0;
  if (FindInMemory(encoded, hash, &bucket)) {
    return Status::OK();
  }
  const uint64_t offset = arena_.size();
  PutVarint64(&arena_, encoded.size());
  arena_.append(encoded.data(), encoded.size());
  buckets_[bucket] = offset + 1;
  tags_[bucket] = Tag(hash);
  ++size_;
  ++in_memory_size_;
  if (static_cast<double>(in_memory_size_) >
      kMaxLoadFactor * static_cast<double>(buckets_.size())) {
    GrowBuckets();
  }
  if (MemoryBytes() > options_.memory_budget_bytes) {
    if (options_.spill_dir.empty()) {
      return Status::ResourceExhausted(
          "SequenceSet over budget and no spill_dir configured");
    }
    NGRAM_RETURN_NOT_OK(SpillToStore());
  }
  return Status::OK();
}

Status SequenceSet::InsertSequence(const TermSequence& seq) {
  std::string encoded;
  SequenceCodec::Encode(seq, &encoded);
  return Insert(Slice(encoded));
}

bool SequenceSet::Contains(Slice encoded) const {
  if (store_ != nullptr) {
    return store_->Contains(encoded);
  }
  const uint64_t hash = HashEncoded(encoded);
  size_t bucket = 0;
  return FindInMemory(encoded, hash, &bucket);
}

bool SequenceSet::ContainsRange(const TermSequence& seq, size_t begin,
                                size_t end, std::string* scratch) const {
  scratch->clear();
  SequenceCodec::EncodeRange(seq, begin, end, scratch);
  return Contains(Slice(*scratch));
}

}  // namespace ngram
