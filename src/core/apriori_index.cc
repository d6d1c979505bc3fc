#include "core/apriori_index.h"

#include <algorithm>

#include "core/counting.h"
#include "kvstore/spillable.h"
#include "util/logging.h"
#include "util/temp_dir.h"

namespace ngram {

namespace {

/// A (k-1)-gram with its posting list, tagged by which end of the reducer
/// key it extends (Algorithm 3's l-seq / r-seq subtypes).
struct TaggedPostings {
  static constexpr uint8_t kLSeq = 0;  // Key is the sequence's suffix.
  static constexpr uint8_t kRSeq = 1;  // Key is the sequence's prefix.

  uint8_t side = kLSeq;
  TermSequence seq;
  PostingList list;
};

}  // namespace

template <>
struct Serde<TaggedPostings> {
  static void Encode(const TaggedPostings& t, std::string* out) {
    out->push_back(static_cast<char>(t.side));
    std::string seq_bytes;
    SequenceCodec::Encode(t.seq, &seq_bytes);
    PutVarint64(out, seq_bytes.size());
    out->append(seq_bytes);
    Serde<PostingList>::Encode(t.list, out);
  }
  static bool Decode(Slice in, TaggedPostings* t) {
    if (in.empty()) {
      return false;
    }
    t->side = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    uint64_t seq_len = 0;
    if (!GetVarint64(&in, &seq_len) || seq_len > in.size()) {
      return false;
    }
    if (!SequenceCodec::Decode(Slice(in.data(), seq_len), &t->seq)) {
      return false;
    }
    in.RemovePrefix(seq_len);
    return Serde<PostingList>::Decode(in, &t->list);
  }
};

namespace {

uint64_t FrequencyOfList(const PostingList& list, FrequencyMode mode) {
  return mode == FrequencyMode::kCollection ? list.TotalOccurrences()
                                            : list.DocumentFrequency();
}

// ------------------------------------------------------------- phase 1 --

/// Mapper #1: per-document positional aggregation of k-grams.
///
/// Runs raw over the serialized input row, like AprioriScanMapper: term ids
/// come from one FragmentCursor scan, and every k-gram key is a sub-slice
/// of the input bytes. Local aggregation (Algorithm 3 Mapper #1) groups the
/// row's equal windows by sorting their start indices in a reused buffer —
/// by term sequence, then by start — so each group lists its positions in
/// ascending order; each group emits one Serde<Posting> value assembled in
/// place.
class IndexScanMapper final : public mr::RawMapper<TermSequence, Posting> {
 public:
  IndexScanMapper(const NgramJobOptions& options, uint32_t k,
                  std::shared_ptr<const UnigramFrequencies> unigram_cf)
      : options_(options), k_(k), unigram_cf_(std::move(unigram_cf)) {}

  Status Map(Slice key, Slice value, Context* ctx) override {
    if (!cursor_.Parse(key, value)) {
      return Status::Corruption("IndexScanMapper: bad input row");
    }
    starts_.clear();
    ForEachPieceRange(cursor_.terms(), options_.document_splits,
                      *unigram_cf_, options_.tau, [&](size_t pb, size_t pe) {
                        for (size_t b = pb; b + k_ <= pe; ++b) {
                          starts_.push_back(static_cast<uint32_t>(b));
                        }
                      });
    const TermId* terms = cursor_.terms().data();
    const uint32_t k = k_;
    // Three-way comparison of the windows starting at a and b.
    auto compare = [terms, k](uint32_t a, uint32_t b) {
      for (uint32_t i = 0; i < k; ++i) {
        if (terms[a + i] != terms[b + i]) {
          return terms[a + i] < terms[b + i] ? -1 : 1;
        }
      }
      return 0;
    };
    std::sort(starts_.begin(), starts_.end(), [&](uint32_t a, uint32_t b) {
      const int c = compare(a, b);
      return c != 0 ? c < 0 : a < b;
    });
    for (size_t i = 0; i < starts_.size();) {
      size_t end = i + 1;
      while (end < starts_.size() && compare(starts_[i], starts_[end]) == 0) {
        ++end;
      }
      // Serde<Posting> wire form: [doc id][count][position deltas].
      value_.clear();
      PutVarint64(&value_, cursor_.doc_id());
      PutVarint64(&value_, end - i);
      uint32_t prev = 0;
      for (size_t g = i; g < end; ++g) {
        const uint32_t position = cursor_.base() + starts_[g];
        PutVarint32(&value_, position - prev);
        prev = position;
      }
      NGRAM_RETURN_NOT_OK(
          ctx->EmitRaw(cursor_.Range(starts_[i], starts_[i] + k_), value_));
      i = end;
    }
    return Status::OK();
  }

 private:
  const NgramJobOptions options_;
  const uint32_t k_;
  const std::shared_ptr<const UnigramFrequencies> unigram_cf_;
  FragmentCursor cursor_;
  std::vector<uint32_t> starts_;  // Window starts of the row; reused.
  std::string value_;             // Reused across groups.
};

/// Reducer #1: assembles the posting list of a k-gram; emits it when
/// frequent. Multiple fragments of one document produce multiple postings
/// with the same doc id — they are merged.
///
/// Runs raw: the group's posting slices stream into a reused
/// PostingListBuilder, the frequency comes from its counts (an infrequent
/// k-gram is dropped without encoding anything), and a frequent one
/// re-emits the group's key bytes verbatim — the key is never decoded
/// (sound for the same reason as in CountReducer).
class IndexBuildReducer final
    : public mr::RawReducer<TermSequence, PostingList> {
 public:
  IndexBuildReducer(uint64_t tau, FrequencyMode mode)
      : tau_(tau), mode_(mode) {}

  Status Reduce(mr::GroupValueIterator* group, Context* ctx) override {
    builder_.Clear();
    while (group->NextValue()) {
      NGRAM_RETURN_NOT_OK(builder_.Add(group->value()));
    }
    builder_.Finish();
    const uint64_t frequency = mode_ == FrequencyMode::kCollection
                                   ? builder_.TotalOccurrences()
                                   : builder_.DocumentFrequency();
    if (frequency < tau_) {
      return Status::OK();
    }
    list_.clear();
    builder_.EncodeTo(&list_);
    return ctx->EmitRaw(group->key(), list_);
  }

 private:
  const uint64_t tau_;
  const FrequencyMode mode_;
  PostingListBuilder builder_;  // Reused across groups.
  std::string list_;            // Reused across groups.
};

// ------------------------------------------------------------- phase 2 --

/// Mapper #2: re-keys every frequent (k-1)-gram by its prefix and suffix.
///
/// Runs raw over the previous round's serialized output: the prefix and
/// suffix keys are sub-slices of the encoded sequence (one varint boundary
/// scan), and the TaggedPostings value is assembled byte-for-byte from the
/// key and value slices — the posting list is never decoded, copied into a
/// typed struct, or re-encoded (the old path did all three, twice).
class IndexJoinMapper final
    : public mr::RawMapper<TermSequence, TaggedPostings> {
 public:
  Status Map(Slice seq, Slice list, Context* ctx) override {
    if (!SequenceCodec::TermOffsets(seq, &offsets_) ||
        offsets_.size() < 2) {
      return Status::Internal("phase-2 input must be non-empty");
    }
    // Serde<TaggedPostings> wire form: [side][varint |seq|][seq][list].
    value_.clear();
    value_.push_back(static_cast<char>(TaggedPostings::kRSeq));
    PutVarint64(&value_, seq.size());
    value_.append(seq.data(), seq.size());
    value_.append(list.data(), list.size());

    // With K = 1 the shared prefix/suffix is the empty sequence: every pair
    // joins on one reducer (a degenerate but correct configuration).
    const size_t last_term = offsets_[offsets_.size() - 2];
    const Slice prefix(seq.data(), last_term);
    // Key is this sequence's prefix.
    NGRAM_RETURN_NOT_OK(ctx->EmitRaw(prefix, value_));

    const size_t first_len = offsets_[1];
    const Slice suffix(seq.data() + first_len, seq.size() - first_len);
    value_[0] = static_cast<char>(TaggedPostings::kLSeq);
    // Key is this sequence's suffix.
    return ctx->EmitRaw(suffix, value_);
  }

 private:
  std::vector<uint32_t> offsets_;  // Reused across records.
  std::string value_;              // Reused across records.
};

/// Reducer #2: joins every compatible l-seq/r-seq pair. Buffered values
/// spill to the KV store past the memory budget.
class IndexJoinReducer final
    : public mr::Reducer<TermSequence, TaggedPostings, TermSequence,
                         PostingList> {
 public:
  IndexJoinReducer(const NgramJobOptions& options, std::string spill_prefix,
                   uint32_t k)
      : options_(options), spill_prefix_(std::move(spill_prefix)), k_(k) {}

  Status Reduce(const TermSequence& key, Values* values,
                Context* ctx) override {
    // Separate buffers for the two sides; each holds (k-1)-grams with
    // posting lists and may exceed memory. Each spills to a directory of
    // its own, deleted when the buffer goes out of scope.
    const std::string base = spill_prefix_ + "-r" +
                             std::to_string(ctx->reducer_id()) + "-g" +
                             std::to_string(group_seq_++);
    kv::SpillableVector<TaggedPostings> left(
        base + "-l", options_.reducer_memory_budget_bytes / 2);
    kv::SpillableVector<TaggedPostings> right(
        base + "-r", options_.reducer_memory_budget_bytes / 2);

    TaggedPostings t;
    while (values->Next(&t)) {
      if (t.side == TaggedPostings::kLSeq) {
        NGRAM_RETURN_NOT_OK(left.Append(t));
      } else {
        NGRAM_RETURN_NOT_OK(right.Append(t));
      }
    }

    // Nested-loop join over compatible pairs (Algorithm 3 Reducer #2).
    Status status = left.ForEach([&](const TaggedPostings& m) -> Status {
      return right.ForEach([&](const TaggedPostings& n) -> Status {
        PostingList joined = JoinAdjacent(m.list, n.list);
        if (FrequencyOfList(joined, options_.frequency_mode) >=
            options_.tau) {
          TermSequence j = m.seq;
          j.push_back(n.seq.back());
          NGRAM_RETURN_NOT_OK(ctx->Emit(std::move(j), std::move(joined)));
        }
        return Status::OK();
      });
    });
    return status;
  }

 private:
  const NgramJobOptions options_;
  const std::string spill_prefix_;
  const uint32_t k_;
  uint64_t group_seq_ = 0;
};

/// Runs both phases. Every round's output is drained once into the
/// statistics, with frequencies read off the posting lists' counts; the
/// lists are decoded only into `index`, when one is asked for.
Result<NgramRun> RunRounds(const CorpusContext& ctx,
                           const NgramJobOptions& options,
                           PositionalIndex* index) {
  NgramRun run;
  const uint32_t sigma = options.sigma_or_max();
  const uint32_t cap_k = std::max<uint32_t>(1, options.apriori_index_k);

  // Spill root for reducer buffers (phase 2) and auto temp dir fallback.
  std::string spill_root = options.work_dir;
  std::unique_ptr<TempDir> auto_dir;
  if (spill_root.empty()) {
    auto created = TempDir::Create("ngram-apriori-index");
    if (!created.ok()) {
      return created.status();
    }
    auto_dir = std::make_unique<TempDir>(std::move(created).ValueOrDie());
    spill_root = auto_dir->path().string();
  }

  // Rounds chain serialized: round k's reducer output feeds round k+1's
  // mappers as slices, never re-encoded for the next job.
  mr::RecordTable previous;

  auto drain_round = [&](const mr::RecordTable& output) -> Status {
    auto reader = output.NewReader();
    while (reader->Next()) {
      TermSequence seq;
      uint64_t documents = 0, occurrences = 0;
      if (!Serde<TermSequence>::Decode(reader->key(), &seq) ||
          !ReadPostingListCounts(reader->value(), &documents,
                                 &occurrences)) {
        return Status::Corruption("apriori-index: bad (k-gram, postings)");
      }
      if (index != nullptr) {
        PostingList list;
        if (!Serde<PostingList>::Decode(reader->value(), &list)) {
          return Status::Corruption("apriori-index: bad posting list");
        }
        index->Add(seq, std::move(list));
      }
      run.stats.Add(std::move(seq),
                    options.frequency_mode == FrequencyMode::kCollection
                        ? occurrences
                        : documents);
    }
    return reader->status();
  };

  // ----- Phase 1: k = 1 .. min(K, sigma), scanning the input each time.
  const uint32_t phase1_end = std::min(cap_k, sigma);
  for (uint32_t k = 1; k <= phase1_end; ++k) {
    mr::JobConfig config =
        MakeBaseJobConfig(options, "apriori-index-scan-k" + std::to_string(k));
    mr::RecordTable output;
    auto metrics = mr::RunJob<IndexScanMapper, IndexBuildReducer>(
        config, ctx.records,
        [&options, &ctx, k] {
          return std::make_unique<IndexScanMapper>(options, k,
                                                   ctx.unigram_cf);
        },
        [&options] {
          return std::make_unique<IndexBuildReducer>(
              options.tau, options.frequency_mode);
        },
        &output);
    if (!metrics.ok()) {
      return metrics.status();
    }
    run.metrics.Add(std::move(metrics).ValueOrDie());
    if (output.empty()) {
      return run;  // Nothing frequent at this length: done.
    }
    NGRAM_RETURN_NOT_OK(drain_round(output));
    previous = std::move(output);
  }

  // ----- Phase 2: k = K+1 .. sigma, joining posting lists.
  for (uint32_t k = phase1_end + 1; k <= sigma; ++k) {
    const std::string spill_prefix =
        spill_root + "/join-k" + std::to_string(k);
    mr::JobConfig config =
        MakeBaseJobConfig(options, "apriori-index-join-k" + std::to_string(k));
    mr::RecordTable output;
    auto metrics = mr::RunJob<IndexJoinMapper, IndexJoinReducer>(
        config, previous, [] { return std::make_unique<IndexJoinMapper>(); },
        [&options, &spill_prefix, k] {
          return std::make_unique<IndexJoinReducer>(options, spill_prefix, k);
        },
        &output);
    if (!metrics.ok()) {
      return metrics.status();
    }
    run.metrics.Add(std::move(metrics).ValueOrDie());
    if (output.empty()) {
      break;
    }
    NGRAM_RETURN_NOT_OK(drain_round(output));
    previous = std::move(output);
  }
  return run;
}

}  // namespace

Result<AprioriIndexResult> RunAprioriIndexWithIndex(
    const CorpusContext& ctx, const NgramJobOptions& options) {
  AprioriIndexResult result;
  auto run = RunRounds(ctx, options, &result.index);
  if (!run.ok()) {
    return run.status();
  }
  result.run = std::move(run).ValueOrDie();
  return result;
}

Result<NgramRun> RunAprioriIndex(const CorpusContext& ctx,
                                 const NgramJobOptions& options) {
  return RunRounds(ctx, options, /*index=*/nullptr);
}

}  // namespace ngram
