// Micro-benchmarks of the performance-critical building blocks: varbyte
// codec, the reverse-lexicographic raw comparator, the suffix stack, the
// sort buffer, run-file block encoding and decoding, CRC-32, posting
// joins, and the Zipf sampler.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rev_lex.h"
#include "core/suffix_stack.h"
#include "corpus/zipf.h"
#include "encoding/sequence.h"
#include "encoding/serde.h"
#include "index/posting.h"
#include "mapreduce/io_env.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "mapreduce/sort_buffer.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/temp_dir.h"

namespace ngram {
namespace {

std::vector<TermSequence> MakeSequences(size_t n, size_t len,
                                        uint32_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<TermSequence> seqs(n);
  for (auto& seq : seqs) {
    seq.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      seq.push_back(1 + static_cast<TermId>(rng.Uniform(vocab)));
    }
  }
  return seqs;
}

void BM_VarbyteEncode(::benchmark::State& state) {
  const auto seqs = MakeSequences(1024, state.range(0), 50000, 1);
  std::string buf;
  size_t i = 0;
  for (auto _ : state) {
    buf.clear();
    SequenceCodec::Encode(seqs[i++ & 1023], &buf);
    ::benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VarbyteEncode)->Arg(5)->Arg(20)->Arg(100);

void BM_VarbyteDecode(::benchmark::State& state) {
  const auto seqs = MakeSequences(1024, state.range(0), 50000, 2);
  std::vector<std::string> encoded;
  for (const auto& seq : seqs) {
    encoded.push_back(SerializeToString(seq));
  }
  TermSequence out;
  size_t i = 0;
  for (auto _ : state) {
    SequenceCodec::Decode(Slice(encoded[i++ & 1023]), &out);
    ::benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VarbyteDecode)->Arg(5)->Arg(20)->Arg(100);

void BM_ReverseLexCompare(::benchmark::State& state) {
  const auto seqs = MakeSequences(1024, state.range(0), 16, 3);
  std::vector<std::string> encoded;
  for (const auto& seq : seqs) {
    encoded.push_back(SerializeToString(seq));
  }
  const auto* cmp = ReverseLexSequenceComparator::Instance();
  size_t i = 0;
  int sink = 0;
  for (auto _ : state) {
    sink += cmp->Compare(Slice(encoded[i & 1023]),
                         Slice(encoded[(i + 1) & 1023]));
    ++i;
  }
  ::benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ReverseLexCompare)->Arg(5)->Arg(20)->Arg(100);

void BM_BytewiseCompare(::benchmark::State& state) {
  const auto seqs = MakeSequences(1024, state.range(0), 16, 3);
  std::vector<std::string> encoded;
  for (const auto& seq : seqs) {
    encoded.push_back(SerializeToString(seq));
  }
  const auto* cmp = mr::BytewiseComparator::Instance();
  size_t i = 0;
  int sink = 0;
  for (auto _ : state) {
    sink += cmp->Compare(Slice(encoded[i & 1023]),
                         Slice(encoded[(i + 1) & 1023]));
    ++i;
  }
  ::benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BytewiseCompare)->Arg(5)->Arg(20)->Arg(100);

void BM_SuffixStackPush(::benchmark::State& state) {
  // Pre-sorted suffix stream (reverse-lex) built from random sequences.
  auto seqs = MakeSequences(4096, 8, 8, 4);
  std::sort(seqs.begin(), seqs.end(),
            [](const TermSequence& a, const TermSequence& b) {
              const std::string ea = SerializeToString(a);
              const std::string eb = SerializeToString(b);
              return ReverseLexSequenceComparator::Instance()->Compare(
                         Slice(ea), Slice(eb)) < 0;
            });
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  uint64_t emitted = 0;
  for (auto _ : state) {
    SuffixStack<CountAggregate> stack(
        2, EmitMode::kAll,
        [&emitted](const TermSequence&, const CountAggregate&) {
          ++emitted;
          return Status::OK();
        });
    for (const auto& seq : seqs) {
      Status st = stack.Push(seq, CountAggregate{1});
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    ::benchmark::DoNotOptimize(stack.Flush());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(seqs.size()));
  ::benchmark::DoNotOptimize(emitted);
}
BENCHMARK(BM_SuffixStackPush);

// A NAIVE-like map task's output: every 1- to 5-gram window of a Zipf(1.0)
// token stream over 5000 terms, keys varbyte-encoded, so frequent n-grams
// recur as byte-equal duplicates.
std::vector<std::string> NaiveWindowKeys(size_t num_tokens) {
  ZipfSampler sampler(5000, 1.0);
  Rng rng(11);
  TermSequence stream(num_tokens);
  for (TermId& term : stream) {
    term = static_cast<TermId>(sampler.Sample(&rng));
  }
  std::vector<std::string> keys;
  for (size_t b = 0; b < stream.size(); ++b) {
    for (size_t e = b + 1; e <= stream.size() && e - b <= 5; ++e) {
      std::string key;
      SequenceCodec::EncodeRange(stream, b, e, &key);
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

// Arg 0 is the sort buffer budget; arg 1 picks the keys: 0 = 4096 nearly
// distinct 6-term sequences, 1 = NaiveWindowKeys(4096) (~20K records).
void BM_SortBufferAddAndFinish(::benchmark::State& state) {
  auto dir = TempDir::Create("bench-sortbuf");
  if (!dir.ok()) {
    state.SkipWithError("tempdir failed");
    return;
  }
  std::vector<std::string> keys;
  if (state.range(1) == 0) {
    for (const auto& seq : MakeSequences(4096, 6, 1000, 5)) {
      keys.push_back(SerializeToString(seq));
    }
  } else {
    keys = NaiveWindowKeys(4096);
  }
  constexpr uint32_t kPartitions = 8;
  std::vector<uint32_t> partitions;
  for (const std::string& key : keys) {
    partitions.push_back(static_cast<uint32_t>(
        mr::HashPartitioner::Hash(Slice(key)) % kPartitions));
  }
  const std::string value = SerializeToString<uint64_t>(1);
  mr::Counters counters;
  for (auto _ : state) {
    mr::TaskCounters tc(&counters);
    mr::SortBuffer::Options options;
    options.num_partitions = kPartitions;
    options.budget_bytes = static_cast<size_t>(state.range(0));
    options.work_dir = dir->path().string();
    mr::SortBuffer buffer(options, &tc);
    for (size_t i = 0; i < keys.size(); ++i) {
      Status st = buffer.Add(partitions[i], Slice(keys[i]), Slice(value));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    std::vector<mr::SpillRun> runs;
    Status st = buffer.Finish(&runs);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    ::benchmark::DoNotOptimize(runs.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_SortBufferAddAndFinish)
    ->ArgNames({"budget", "naive"})
    ->Args({16 << 10, 0})    // Heavy spilling.
    ->Args({64 << 20, 0})    // All in memory.
    ->Args({64 << 20, 1});

using KvTable = std::vector<std::pair<std::string, std::string>>;

// An n-gram table — every 1- to 4-gram of a Zipf(1.05) token stream over
// 5000 terms, keys varbyte-encoded and bytewise sorted, values varint
// counts: the shape of a serving shard.
KvTable NgramTable() {
  ZipfSampler sampler(5000, 1.05);
  Rng rng(8);
  TermSequence stream(20000);
  for (TermId& term : stream) {
    term = static_cast<TermId>(sampler.Sample(&rng));
  }
  std::map<std::string, uint64_t> counts;
  std::string key;
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t n = 1; n <= 4 && i + n <= stream.size(); ++n) {
      key.clear();
      SequenceCodec::Encode(TermSequence(stream.begin() + i,
                                         stream.begin() + i + n),
                            &key);
      ++counts[key];
    }
  }
  KvTable table;
  table.reserve(counts.size());
  for (const auto& [k, count] : counts) {
    std::string value;
    PutVarint64(&value, count);
    table.emplace_back(k, std::move(value));
  }
  return table;
}

// Writes `table` as one run file at `path`.
Status WriteRun(const std::string& path, const KvTable& table) {
  mr::RunWriter writer(path, mr::RunWriterOptions{});
  NGRAM_RETURN_NOT_OK(writer.Open());
  for (const auto& [k, v] : table) {
    NGRAM_RETURN_NOT_OK(writer.Append(Slice(k), Slice(v)));
  }
  return writer.Close();
}

// Decodes the first 16 KiB block of a run file holding NgramTable(), with
// the restart trailer the serving cache keeps. Each iteration decodes
// into a fresh string, as a serving cache miss does.
void BM_DecodeBlock(::benchmark::State& state) {
  auto dir = TempDir::Create("bench-decode-block");
  if (!dir.ok()) {
    state.SkipWithError("tempdir failed");
    return;
  }
  const std::string path = dir->File("table.run");
  Status st = WriteRun(path, NgramTable());
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  std::string indexed;
  uint64_t block_end = 0;
  st = mr::DecodeBlockAtIndexed(Slice(file), 0, path, &indexed, &block_end);
  mr::BlockView view;
  if (st.ok()) {
    st = mr::ParseBlockView(indexed, path, &view);
  }
  if (!st.ok() || block_end >= file.size()) {
    state.SkipWithError("expected a table spanning several blocks");
    return;
  }
  int64_t records = 0;
  for (mr::MemoryRecordReader reader{view.frames}; reader.Next();) {
    ++records;
  }
  for (auto _ : state) {
    std::string decoded;
    st = mr::DecodeBlockAtIndexed(Slice(file), 0, path, &decoded,
                                  &block_end);
    ::benchmark::DoNotOptimize(decoded.data());
    ::benchmark::ClobberMemory();
  }
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["block_bytes"] = static_cast<double>(block_end);
}
BENCHMARK(BM_DecodeBlock);

// Writes NgramTable() through a RunWriter (front coding, restart array
// and CRC per 16 KiB block) into a run file, once per iteration. The file
// is unlinked untimed after each write: committing by rename over an
// existing file makes some filesystems (ext4's auto_da_alloc) flush it.
void BM_EncodeBlock(::benchmark::State& state) {
  auto dir = TempDir::Create("bench-encode-block");
  if (!dir.ok()) {
    state.SkipWithError("tempdir failed");
    return;
  }
  const auto table = NgramTable();
  const std::string path = dir->File("table.run");
  Status st;
  for (auto _ : state) {
    st = WriteRun(path, table);
    state.PauseTiming();
    if (st.ok()) {
      st = mr::IoEnv::Default()->Unlink(path);
    }
    state.ResumeTiming();
    if (!st.ok()) {
      break;
    }
  }
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.size()));
}
BENCHMARK(BM_EncodeBlock);

// CRC-32 of a 16 KiB buffer of random bytes — about one run-file block.
void BM_Crc32(::benchmark::State& state) {
  Rng rng(9);
  std::string buf(16 * 1024, '\0');
  for (char& c : buf) {
    c = static_cast<char>(rng.Uniform(256));
  }
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(crc, buf.data(), buf.size());
    ::benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

void BM_PostingJoin(::benchmark::State& state) {
  Rng rng(6);
  PostingList left, right;
  for (uint64_t d = 1; d <= static_cast<uint64_t>(state.range(0)); ++d) {
    Posting l, r;
    l.doc_id = r.doc_id = d;
    uint32_t pos = 0;
    for (int i = 0; i < 20; ++i) {
      pos += 1 + static_cast<uint32_t>(rng.Uniform(5));
      l.positions.push_back(pos);
      if (rng.OneIn(0.5)) {
        r.positions.push_back(pos + 1);
      }
    }
    left.postings.push_back(std::move(l));
    right.postings.push_back(std::move(r));
  }
  for (auto _ : state) {
    PostingList joined = JoinAdjacent(left, right);
    ::benchmark::DoNotOptimize(joined.postings.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 20);
}
BENCHMARK(BM_PostingJoin)->Arg(100)->Arg(1000);

void BM_ZipfSample(::benchmark::State& state) {
  ZipfSampler sampler(static_cast<uint64_t>(state.range(0)), 1.05);
  Rng rng(7);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += sampler.Sample(&rng);
  }
  ::benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ZipfSample)->Arg(10000)->Arg(1000000);

}  // namespace
}  // namespace ngram

BENCHMARK_MAIN();
