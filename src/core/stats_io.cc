#include "core/stats_io.h"

#include <cstring>
#include <memory>

#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "util/macros.h"

namespace ngram {

namespace {

constexpr char kMagic[4] = {'N', 'G', 'S', '1'};

/// Reads all of `path` into `*content` through `env` (already resolved).
Status ReadWholeFile(mr::IoEnv* env, const std::string& path,
                     std::string* content) {
  std::unique_ptr<mr::ReadableFile> f;
  NGRAM_RETURN_NOT_OK(env->NewReadableFile(path, /*buffer_hint=*/0, &f));
  char chunk[64 * 1024];
  size_t got = 0;
  do {
    NGRAM_RETURN_NOT_OK(f->Read(chunk, sizeof(chunk), &got));
    content->append(chunk, got);
  } while (got > 0);
  return Status::OK();
}

}  // namespace

Status WriteStatsTsv(const NgramStatistics& stats, const Vocabulary* vocab,
                     const std::string& path, mr::IoEnv* env) {
  std::unique_ptr<mr::WritableFile> f;
  NGRAM_RETURN_NOT_OK(mr::ResolveEnv(env)->NewWritableFile(path, &f));
  std::string line;
  for (const auto& [seq, cf] : stats.entries) {
    line.clear();
    for (size_t i = 0; i < seq.size(); ++i) {
      if (i > 0) {
        line += ' ';
      }
      if (vocab != nullptr) {
        line += vocab->TermOf(seq[i]);
      } else {
        line += std::to_string(seq[i]);
      }
    }
    line += '\t';
    line += std::to_string(cf);
    line += '\n';
    NGRAM_RETURN_NOT_OK(f->Write(line.data(), line.size()));
  }
  NGRAM_RETURN_NOT_OK(f->Sync());
  return f->Close();
}

Status WriteStatsBinary(const NgramStatistics& stats, const std::string& path,
                        mr::IoEnv* env) {
  std::unique_ptr<mr::WritableFile> f;
  NGRAM_RETURN_NOT_OK(mr::ResolveEnv(env)->NewWritableFile(path, &f));
  std::string buf(kMagic, sizeof(kMagic));
  PutVarint64(&buf, stats.entries.size());
  std::string seq_bytes;
  for (const auto& [seq, cf] : stats.entries) {
    seq_bytes.clear();
    SequenceCodec::Encode(seq, &seq_bytes);
    PutVarint64(&buf, seq_bytes.size());
    buf += seq_bytes;
    PutVarint64(&buf, cf);
    if (buf.size() > (1 << 20)) {
      NGRAM_RETURN_NOT_OK(f->Write(buf.data(), buf.size()));
      buf.clear();
    }
  }
  NGRAM_RETURN_NOT_OK(f->Write(buf.data(), buf.size()));
  NGRAM_RETURN_NOT_OK(f->Sync());
  return f->Close();
}

Status ReadStatsBinary(const std::string& path, NgramStatistics* stats,
                       mr::IoEnv* env) {
  stats->entries.clear();
  std::string content;
  NGRAM_RETURN_NOT_OK(ReadWholeFile(mr::ResolveEnv(env), path, &content));
  Slice in(content);
  if (in.size() < sizeof(kMagic) ||
      memcmp(in.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + ": not an NGS1 statistics file");
  }
  in.RemovePrefix(sizeof(kMagic));
  uint64_t count = 0;
  if (!GetVarint64(&in, &count)) {
    return Status::Corruption(path + ": bad entry count");
  }
  // Every entry takes at least one byte: a larger count is corrupt and
  // must not reach reserve().
  if (count > in.size()) {
    return Status::Corruption(path + ": implausible entry count");
  }
  stats->entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seq_len = 0;
    if (!GetVarint64(&in, &seq_len) || seq_len > in.size()) {
      return Status::Corruption(path + ": truncated entry");
    }
    TermSequence seq;
    if (!SequenceCodec::Decode(Slice(in.data(), seq_len), &seq)) {
      return Status::Corruption(path + ": undecodable sequence");
    }
    in.RemovePrefix(seq_len);
    uint64_t cf = 0;
    if (!GetVarint64(&in, &cf)) {
      return Status::Corruption(path + ": truncated frequency");
    }
    stats->entries.emplace_back(std::move(seq), cf);
  }
  if (!in.empty()) {
    return Status::Corruption(path + ": trailing bytes");
  }
  return Status::OK();
}

}  // namespace ngram
