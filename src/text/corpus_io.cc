#include "text/corpus_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "util/macros.h"

namespace ngram {

namespace {

constexpr char kMagic[4] = {'N', 'G', 'C', '1'};

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

Status WriteCorpusBinary(const Corpus& corpus, const std::string& path,
                         mr::IoEnv* env) {
  std::unique_ptr<mr::WritableFile> f;
  NGRAM_RETURN_NOT_OK(mr::ResolveEnv(env)->NewWritableFile(path, &f));
  std::string buf(kMagic, sizeof(kMagic));
  PutVarint64(&buf, corpus.docs.size());
  for (const auto& doc : corpus.docs) {
    PutVarint64(&buf, doc.id);
    PutVarintSigned64(&buf, doc.year);
    PutVarint64(&buf, doc.sentences.size());
    for (const auto& sentence : doc.sentences) {
      PutVarint64(&buf, sentence.size());
      for (TermId t : sentence) {
        PutVarint32(&buf, t);
      }
    }
    if (buf.size() > (1 << 20)) {
      NGRAM_RETURN_NOT_OK(f->Write(buf.data(), buf.size()));
      buf.clear();
    }
  }
  NGRAM_RETURN_NOT_OK(f->Write(buf.data(), buf.size()));
  NGRAM_RETURN_NOT_OK(f->Sync());
  return f->Close();
}

Status ReadCorpusBinary(const std::string& path, Corpus* corpus,
                        mr::IoEnv* env) {
  corpus->docs.clear();
  std::string content;
  NGRAM_RETURN_NOT_OK(ReadWholeFile(mr::ResolveEnv(env), path, &content));
  Slice in(content);
  if (in.size() < sizeof(kMagic) ||
      memcmp(in.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + ": not an NGC1 corpus file");
  }
  in.RemovePrefix(sizeof(kMagic));
  uint64_t num_docs = 0;
  if (!GetVarint64(&in, &num_docs)) {
    return Status::Corruption(path + ": bad document count");
  }
  // Every document, sentence and term takes at least one byte: a count
  // past the bytes left is corrupt and must not reach reserve().
  if (num_docs > in.size()) {
    return Status::Corruption(path + ": implausible document count");
  }
  corpus->docs.reserve(num_docs);
  for (uint64_t d = 0; d < num_docs; ++d) {
    Document doc;
    int64_t year = 0;
    uint64_t num_sentences = 0;
    if (!GetVarint64(&in, &doc.id) || !GetVarintSigned64(&in, &year) ||
        !GetVarint64(&in, &num_sentences)) {
      return Status::Corruption(path + ": truncated document header");
    }
    if (num_sentences > in.size()) {
      return Status::Corruption(path + ": implausible sentence count");
    }
    doc.year = static_cast<int32_t>(year);
    doc.sentences.reserve(num_sentences);
    for (uint64_t s = 0; s < num_sentences; ++s) {
      uint64_t len = 0;
      if (!GetVarint64(&in, &len)) {
        return Status::Corruption(path + ": truncated sentence header");
      }
      if (len > in.size()) {
        return Status::Corruption(path + ": implausible sentence length");
      }
      TermSequence sentence;
      sentence.reserve(len);
      for (uint64_t i = 0; i < len; ++i) {
        TermId t = 0;
        if (!GetVarint32(&in, &t)) {
          return Status::Corruption(path + ": truncated sentence");
        }
        sentence.push_back(t);
      }
      doc.sentences.push_back(std::move(sentence));
    }
    corpus->docs.push_back(std::move(doc));
  }
  if (!in.empty()) {
    return Status::Corruption(path + ": trailing bytes");
  }
  return Status::OK();
}


Status WriteCorpusSharded(const Corpus& corpus, const std::string& dir,
                          uint32_t num_shards, mr::IoEnv* env) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + dir + ": " + ec.message());
  }
  std::vector<Corpus> shards(num_shards);
  for (const auto& doc : corpus.docs) {
    shards[doc.id % num_shards].docs.push_back(doc);
  }
  for (uint32_t i = 0; i < num_shards; ++i) {
    char name[32];
    snprintf(name, sizeof(name), "/part-%05u", i);
    NGRAM_RETURN_NOT_OK(WriteCorpusBinary(shards[i], dir + name, env));
  }
  return Status::OK();
}

Status ReadCorpusSharded(const std::string& dir, Corpus* corpus,
                         mr::IoEnv* env) {
  corpus->docs.clear();
  std::error_code ec;
  std::vector<std::filesystem::path> parts;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("part-", 0) == 0) {
      parts.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::IOError("cannot list " + dir + ": " + ec.message());
  }
  if (parts.empty()) {
    return Status::NotFound("no part-* files under " + dir);
  }
  std::sort(parts.begin(), parts.end());
  for (const auto& part : parts) {
    Corpus shard;
    NGRAM_RETURN_NOT_OK(ReadCorpusBinary(part.string(), &shard, env));
    corpus->docs.insert(corpus->docs.end(),
                        std::make_move_iterator(shard.docs.begin()),
                        std::make_move_iterator(shard.docs.end()));
  }
  std::sort(corpus->docs.begin(), corpus->docs.end(),
            [](const Document& a, const Document& b) { return a.id < b.id; });
  return Status::OK();
}
}  // namespace ngram
