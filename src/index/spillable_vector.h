// SpillableVector: a memory-budgeted, append-only sequence — APRIORI-INDEX's
// phase-2 join buffers, whose buffered posting lists may exceed main memory
// (Section V). Past the budget the items move to disk as one block-format
// run file (mapreduce/runfile.h), written and replayed through the job's
// IoEnv: the spill is CRC-checked by the one block decoder, a FaultEnv
// reaches it, and a failed read names the run in Status::path().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "encoding/serde.h"
#include "mapreduce/io_env.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/status.h"

namespace ngram {

/// \brief An append-only sequence of T with a memory budget.
///
/// Items stay in memory until `memory_budget_bytes` of serialized size
/// accumulates; from then on every item, the buffered ones first, is one
/// record (empty key, Serde<T> value) of the run at `path`. The first
/// ForEach commits the run; every ForEach replays the items in insertion
/// order, wherever they live. Not thread-safe.
template <typename T>
class SpillableVector {
 public:
  /// `path` is only touched if a spill happens; destruction removes it.
  /// `env` null means IoEnv::Default().
  SpillableVector(std::string path, size_t memory_budget_bytes,
                  mr::IoEnv* env)
      : path_(std::move(path)),
        memory_budget_bytes_(memory_budget_bytes),
        env_(mr::ResolveEnv(env)) {}
  ~SpillableVector() {
    if (writer_ != nullptr) {
      writer_->Abandon();
    } else if (spilled_) {
      env_->Unlink(path_).IgnoreError();
    }
  }

  NGRAM_DISALLOW_COPY_AND_ASSIGN(SpillableVector);

  /// Appends `item`. Once a spill run is committed (by ForEach) it is
  /// closed to further items.
  Status Append(const T& item) {
    std::string encoded;
    Serde<T>::Encode(item, &encoded);
    if (!spilled_ && memory_bytes_ + encoded.size() <= memory_budget_bytes_) {
      memory_bytes_ += encoded.size();
      in_memory_.push_back(std::move(encoded));
      ++size_;
      return Status::OK();
    }
    NGRAM_RETURN_NOT_OK(EnsureSpilled());
    if (writer_ == nullptr) {
      return Status::Internal("SpillableVector: append after ForEach");
    }
    NGRAM_RETURN_NOT_OK(writer_->Append(Slice(), Slice(encoded)));
    ++size_;
    return Status::OK();
  }

  uint64_t size() const { return size_; }
  bool spilled() const { return spilled_; }

  /// Calls `fn(item)` for every item in insertion order; stops at and
  /// returns the first non-OK status.
  Status ForEach(const std::function<Status(const T&)>& fn) {
    T item;
    if (!spilled_) {
      for (const std::string& encoded : in_memory_) {
        NGRAM_RETURN_NOT_OK(Visit(Slice(encoded), fn, &item));
      }
      return Status::OK();
    }
    if (writer_ != nullptr) {
      Status st = writer_->Close();
      run_bytes_ = writer_->bytes_written();
      writer_.reset();
      NGRAM_RETURN_NOT_OK(st);
    }
    // Small runs are re-read once per outer item of the nested-loop join:
    // a read buffer sized to the run keeps each replay cheap.
    const size_t buffer = static_cast<size_t>(std::min<uint64_t>(
        run_bytes_, mr::FileRecordReader::kDefaultBufferBytes));
    mr::FileRecordReader reader(path_, 0, run_bytes_, buffer, env_);
    while (reader.Next()) {
      NGRAM_RETURN_NOT_OK(Visit(reader.value(), fn, &item));
    }
    return reader.status();
  }

 private:
  Status Visit(Slice encoded, const std::function<Status(const T&)>& fn,
               T* item) const {
    if (!Serde<T>::Decode(encoded, item)) {
      Status st = Status::Corruption("SpillableVector: undecodable item");
      return spilled_ ? st.WithPath(path_) : st;
    }
    return fn(*item);
  }

  Status EnsureSpilled() {
    if (spilled_) {
      return Status::OK();
    }
    mr::RunWriterOptions options;
    options.env = env_;
    writer_ = std::make_unique<mr::RunWriter>(path_, options);
    spilled_ = true;
    NGRAM_RETURN_NOT_OK(writer_->Open());
    NGRAM_LOG_DEBUG << "SpillableVector spilling to " << path_ << " ("
                    << in_memory_.size() << " buffered items)";
    for (const std::string& encoded : in_memory_) {
      NGRAM_RETURN_NOT_OK(writer_->Append(Slice(), Slice(encoded)));
    }
    in_memory_.clear();
    memory_bytes_ = 0;
    return Status::OK();
  }

  const std::string path_;
  const size_t memory_budget_bytes_;
  mr::IoEnv* const env_;
  std::vector<std::string> in_memory_;  // Serialized items while unspilled.
  size_t memory_bytes_ = 0;
  uint64_t size_ = 0;
  bool spilled_ = false;
  std::unique_ptr<mr::RunWriter> writer_;  // Open until the first ForEach.
  uint64_t run_bytes_ = 0;                 // Committed run length.
};

}  // namespace ngram
