// Memory-budgeted containers that migrate to the disk KV store when full —
// the mechanism the paper prescribes for APRIORI reducers whose buffered
// posting lists or dictionaries exceed main memory (Section V).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "encoding/serde.h"
#include "kvstore/kvstore.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/result.h"

namespace ngram::kv {

/// \brief An append-only sequence of T with a memory budget.
///
/// Items are kept in memory until `memory_budget_bytes` of serialized size
/// accumulates; from then on every item (including the already-buffered
/// ones) lives in the KV store under its sequence number. Iteration replays
/// items in insertion order either way, so callers are oblivious to where
/// the data resides.
template <typename T>
class SpillableVector {
 public:
  /// `store_dir` is only touched if a spill actually happens. The spill
  /// starts it empty, and Clear() or destruction deletes it.
  SpillableVector(std::string store_dir, size_t memory_budget_bytes,
                  KVStoreOptions kv_options = {})
      : store_dir_(std::move(store_dir)),
        memory_budget_bytes_(memory_budget_bytes),
        kv_options_(kv_options) {}
  ~SpillableVector() { Clear(); }

  NGRAM_DISALLOW_COPY_AND_ASSIGN(SpillableVector);

  Status Append(const T& item) {
    std::string encoded;
    Serde<T>::Encode(item, &encoded);
    if (store_ == nullptr &&
        memory_bytes_ + encoded.size() <= memory_budget_bytes_) {
      memory_bytes_ += encoded.size();
      in_memory_.push_back(std::move(encoded));
      ++size_;
      return Status::OK();
    }
    NGRAM_RETURN_NOT_OK(EnsureSpilled());
    NGRAM_RETURN_NOT_OK(store_->Put(IndexKey(size_), encoded));
    ++size_;
    return Status::OK();
  }

  uint64_t size() const { return size_; }
  bool spilled() const { return store_ != nullptr; }

  /// Calls `fn(item)` for items [0, size) in insertion order.
  Status ForEach(const std::function<Status(const T&)>& fn) {
    std::string buf;
    T item;
    for (uint64_t i = 0; i < size_; ++i) {
      Slice encoded;
      if (store_ == nullptr) {
        encoded = Slice(in_memory_[i]);
      } else {
        NGRAM_RETURN_NOT_OK(store_->Get(IndexKey(i), &buf));
        encoded = Slice(buf);
      }
      if (!Serde<T>::Decode(encoded, &item)) {
        return Status::Corruption("SpillableVector: undecodable item " +
                                  std::to_string(i));
      }
      NGRAM_RETURN_NOT_OK(fn(item));
    }
    return Status::OK();
  }

  /// Random access; O(1) in memory, one KV read when spilled.
  Status At(uint64_t i, T* out) {
    if (i >= size_) {
      return Status::OutOfRange("index " + std::to_string(i));
    }
    if (store_ == nullptr) {
      if (!Serde<T>::Decode(Slice(in_memory_[i]), out)) {
        return Status::Corruption("SpillableVector: undecodable item");
      }
      return Status::OK();
    }
    std::string buf;
    NGRAM_RETURN_NOT_OK(store_->Get(IndexKey(i), &buf));
    if (!Serde<T>::Decode(Slice(buf), out)) {
      return Status::Corruption("SpillableVector: undecodable item");
    }
    return Status::OK();
  }

  void Clear() {
    in_memory_.clear();
    memory_bytes_ = 0;
    size_ = 0;
    if (store_ != nullptr) {
      store_.reset();
      KVStore::Destroy(store_dir_);
    }
  }

 private:
  static std::string IndexKey(uint64_t i) {
    // Fixed-width big-endian so keys are unique; order is irrelevant.
    std::string key(8, '\0');
    for (int b = 7; b >= 0; --b) {
      key[b] = static_cast<char>(i & 0xff);
      i >>= 8;
    }
    return key;
  }

  Status EnsureSpilled() {
    if (store_ != nullptr) {
      return Status::OK();
    }
    auto opened = KVStore::OpenEmpty(store_dir_, kv_options_);
    if (!opened.ok()) {
      return opened.status();
    }
    store_ = std::move(opened).ValueOrDie();
    NGRAM_LOG_DEBUG << "SpillableVector spilling to " << store_dir_ << " ("
                    << in_memory_.size() << " buffered items)";
    for (uint64_t i = 0; i < in_memory_.size(); ++i) {
      NGRAM_RETURN_NOT_OK(store_->Put(IndexKey(i), in_memory_[i]));
    }
    in_memory_.clear();
    memory_bytes_ = 0;
    return Status::OK();
  }

  const std::string store_dir_;
  const size_t memory_budget_bytes_;
  const KVStoreOptions kv_options_;
  std::vector<std::string> in_memory_;  // Serialized items while unspilled.
  size_t memory_bytes_ = 0;
  uint64_t size_ = 0;
  std::unique_ptr<KVStore> store_;
};

}  // namespace ngram::kv
