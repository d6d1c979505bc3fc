#include "text/corpus_io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "corpus/synthetic.h"
#include "encoding/varint.h"
#include "mapreduce/io_env.h"
#include "testing/test_util.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

class CorpusIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("corpus-io-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(dir).ValueOrDie());
  }
  std::unique_ptr<TempDir> dir_;
};

bool CorporaEqual(const Corpus& a, const Corpus& b) {
  if (a.docs.size() != b.docs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].id != b.docs[i].id || a.docs[i].year != b.docs[i].year ||
        a.docs[i].sentences != b.docs[i].sentences) {
      return false;
    }
  }
  return true;
}

TEST_F(CorpusIoTest, RoundTripRandomCorpus) {
  const Corpus original =
      testing::RandomCorpus(5, 30, 8, 4, 12, 1987, 2007);
  const std::string path = dir_->File("corpus.ngc");
  ASSERT_TRUE(WriteCorpusBinary(original, path).ok());
  Corpus loaded;
  ASSERT_TRUE(ReadCorpusBinary(path, &loaded).ok());
  EXPECT_TRUE(CorporaEqual(original, loaded));
}

TEST_F(CorpusIoTest, RoundTripSyntheticCorpus) {
  const Corpus original = GenerateSyntheticCorpus(NytLikeOptions(40, 9));
  const std::string path = dir_->File("nyt.ngc");
  ASSERT_TRUE(WriteCorpusBinary(original, path).ok());
  Corpus loaded;
  ASSERT_TRUE(ReadCorpusBinary(path, &loaded).ok());
  EXPECT_TRUE(CorporaEqual(original, loaded));
}

TEST_F(CorpusIoTest, EmptyCorpus) {
  const std::string path = dir_->File("empty.ngc");
  ASSERT_TRUE(WriteCorpusBinary(Corpus{}, path).ok());
  Corpus loaded;
  loaded.docs.resize(3);
  ASSERT_TRUE(ReadCorpusBinary(path, &loaded).ok());
  EXPECT_TRUE(loaded.docs.empty());
}

TEST_F(CorpusIoTest, RejectsBadMagic) {
  const std::string path = dir_->File("bad.ngc");
  std::ofstream(path) << "BOGUS DATA";
  Corpus loaded;
  EXPECT_TRUE(ReadCorpusBinary(path, &loaded).IsCorruption());
}

TEST_F(CorpusIoTest, RejectsTruncatedFile) {
  const Corpus original = testing::RandomCorpus(6, 10);
  const std::string path = dir_->File("trunc.ngc");
  ASSERT_TRUE(WriteCorpusBinary(original, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::ofstream(path, std::ios::binary)
      << content.substr(0, content.size() / 2);
  Corpus loaded;
  EXPECT_TRUE(ReadCorpusBinary(path, &loaded).IsCorruption());
}

TEST_F(CorpusIoTest, RejectsImpossibleCounts) {
  // The right magic, then a document count, a sentence count or a
  // sentence length of 2^60 over a handful of bytes: each is Corruption,
  // checked before anything is reserved for it.
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  std::string huge_docs = "NGC1";
  PutVarint64(&huge_docs, kHuge);
  std::string huge_sentences = "NGC1";
  PutVarint64(&huge_sentences, 1);        // One document:
  PutVarint64(&huge_sentences, 7);        //   id,
  PutVarintSigned64(&huge_sentences, 0);  //   year,
  PutVarint64(&huge_sentences, kHuge);    //   sentence count.
  std::string huge_length = "NGC1";
  PutVarint64(&huge_length, 1);
  PutVarint64(&huge_length, 7);
  PutVarintSigned64(&huge_length, 0);
  PutVarint64(&huge_length, 1);      // One sentence,
  PutVarint64(&huge_length, kHuge);  //   of this many terms.
  for (std::string bytes : {huge_docs, huge_sentences, huge_length}) {
    bytes += "\x01\x01\x01";
    const std::string path = dir_->File("huge.ngc");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    Corpus loaded;
    const Status st = ReadCorpusBinary(path, &loaded);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST_F(CorpusIoTest, FaultEnvInjectsWriteError) {
  mr::FaultPlan plan;
  plan.kind = mr::FaultPlan::Kind::kWriteError;
  plan.op = 1;
  mr::FaultEnv env(mr::IoEnv::Default(), plan);
  const Corpus corpus = testing::RandomCorpus(3, 10, 6, 4, 10, 1990, 1999);
  const Status st =
      WriteCorpusBinary(corpus, dir_->File("faulted.ngc"), &env);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(env.fault_fired());
}

TEST_F(CorpusIoTest, FaultEnvInjectsReadError) {
  const Corpus corpus = testing::RandomCorpus(3, 10, 6, 4, 10, 1990, 1999);
  const std::string path = dir_->File("readable.ngc");
  ASSERT_TRUE(WriteCorpusBinary(corpus, path).ok());
  mr::FaultPlan plan;
  plan.kind = mr::FaultPlan::Kind::kReadError;
  plan.op = 1;
  mr::FaultEnv env(mr::IoEnv::Default(), plan);
  Corpus loaded;
  const Status st = ReadCorpusBinary(path, &loaded, &env);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(env.fault_fired());
}

TEST_F(CorpusIoTest, FaultEnvBitFlipSurfacesAsCorruption) {
  // A silent bit flip in the written bytes must surface as Corruption on
  // read-back (never as a silently different corpus).
  const Corpus corpus = testing::RandomCorpus(1, 4, 4, 3, 6, 1990, 1999);
  const std::string path = dir_->File("flipped.ngc");
  mr::FaultPlan plan;
  plan.kind = mr::FaultPlan::Kind::kBitFlip;
  plan.op = 1;
  plan.bit = 3;  // Lands in the leading magic/header bytes.
  mr::FaultEnv env(mr::IoEnv::Default(), plan);
  ASSERT_TRUE(WriteCorpusBinary(corpus, path, &env).ok());
  ASSERT_TRUE(env.fault_fired());
  Corpus loaded;
  const Status st = ReadCorpusBinary(path, &loaded);
  EXPECT_FALSE(st.ok());
}

TEST_F(CorpusIoTest, MissingFileIsIOError) {
  Corpus loaded;
  EXPECT_TRUE(ReadCorpusBinary(dir_->File("nope.ngc"), &loaded).IsIOError());
}


TEST_F(CorpusIoTest, ShardedRoundTripAnyShardCount) {
  const Corpus original =
      testing::RandomCorpus(7, 40, 8, 4, 12, 1987, 2007);
  for (uint32_t shards : {1u, 4u, 16u}) {
    const std::string dir =
        dir_->File("sharded-" + std::to_string(shards));
    ASSERT_TRUE(WriteCorpusSharded(original, dir, shards).ok());
    Corpus loaded;
    ASSERT_TRUE(ReadCorpusSharded(dir, &loaded).ok());
    EXPECT_TRUE(CorporaEqual(original, loaded)) << shards << " shards";
  }
}

TEST_F(CorpusIoTest, ShardedMoreShardsThanDocs) {
  const Corpus original = testing::RandomCorpus(8, 3);
  const std::string dir = dir_->File("oversharded");
  ASSERT_TRUE(WriteCorpusSharded(original, dir, 8).ok());
  Corpus loaded;
  ASSERT_TRUE(ReadCorpusSharded(dir, &loaded).ok());
  EXPECT_TRUE(CorporaEqual(original, loaded));
}

TEST_F(CorpusIoTest, ShardedRejectsZeroShards) {
  EXPECT_TRUE(WriteCorpusSharded(Corpus{}, dir_->File("x"), 0)
                  .IsInvalidArgument());
}

TEST_F(CorpusIoTest, ShardedReadMissingDirFails) {
  Corpus loaded;
  Status st = ReadCorpusSharded(dir_->File("absent-dir"), &loaded);
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace ngram
