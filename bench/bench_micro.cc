// Micro-benchmarks of the performance-critical building blocks: varbyte
// codec, the reverse-lexicographic raw comparator, the suffix stack, the
// sort buffer, run-file block decoding, posting joins, and the Zipf
// sampler.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iterator>
#include <map>
#include <vector>

#include "core/rev_lex.h"
#include "core/suffix_stack.h"
#include "corpus/zipf.h"
#include "encoding/serde.h"
#include "index/posting.h"
#include "mapreduce/record.h"
#include "mapreduce/runfile.h"
#include "mapreduce/sort_buffer.h"
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

void BM_SortBufferAddAndFinish(::benchmark::State& state) {
  auto dir = TempDir::Create("bench-sortbuf");
  if (!dir.ok()) {
    state.SkipWithError("tempdir failed");
    return;
  }
  const auto seqs = MakeSequences(4096, 6, 1000, 5);
  std::vector<std::string> keys;
  for (const auto& seq : seqs) {
    keys.push_back(SerializeToString(seq));
  }
  const std::string value = SerializeToString<uint64_t>(1);
  mr::Counters counters;
  for (auto _ : state) {
    mr::TaskCounters tc(&counters);
    mr::SortBuffer::Options options;
    options.num_partitions = 8;
    options.budget_bytes = static_cast<size_t>(state.range(0));
    options.work_dir = dir->path().string();
    mr::SortBuffer buffer(options, &tc);
    for (size_t i = 0; i < keys.size(); ++i) {
      Status st = buffer.Add(static_cast<uint32_t>(i % 8),
                             Slice(keys[i]), Slice(value));
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
    ->Arg(16 << 10)    // Heavy spilling.
    ->Arg(64 << 20);   // All in memory.

// Decodes the first 16 KiB block of a run file holding an n-gram table —
// every 1- to 4-gram of a Zipf(1.05) token stream over 5000 terms, keys
// varbyte-encoded and bytewise sorted, values varint counts: the shape of
// a serving shard. Each iteration decodes into a fresh string, as a
// serving cache miss does.
void BM_DecodeBlock(::benchmark::State& state) {
  auto dir = TempDir::Create("bench-decode-block");
  if (!dir.ok()) {
    state.SkipWithError("tempdir failed");
    return;
  }
  ZipfSampler sampler(5000, 1.05);
  Rng rng(8);
  TermSequence stream(20000);
  for (TermId& term : stream) {
    term = static_cast<TermId>(sampler.Sample(&rng));
  }
  std::map<std::string, uint64_t> table;
  std::string key;
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t n = 1; n <= 4 && i + n <= stream.size(); ++n) {
      key.clear();
      SequenceCodec::Encode(TermSequence(stream.begin() + i,
                                         stream.begin() + i + n),
                            &key);
      ++table[key];
    }
  }
  const std::string path = dir->File("table.run");
  mr::RunWriter writer(path, mr::RunWriterOptions{});
  Status st = writer.Open();
  std::string value;
  for (auto it = table.begin(); st.ok() && it != table.end(); ++it) {
    value.clear();
    PutVarint64(&value, it->second);
    st = writer.Append(Slice(it->first), Slice(value));
  }
  if (st.ok()) {
    st = writer.Close();
  }
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  std::string framed;
  std::vector<uint32_t> restarts;
  uint64_t block_end = 0;
  st = mr::DecodeBlockAtIndexed(Slice(file), 0, path, &framed, &restarts,
                                &block_end);
  if (!st.ok() || block_end >= file.size()) {
    state.SkipWithError("expected a table spanning several blocks");
    return;
  }
  int64_t records = 0;
  for (mr::MemoryRecordReader reader{Slice(framed)}; reader.Next();) {
    ++records;
  }
  for (auto _ : state) {
    std::string decoded;
    st = mr::DecodeBlockAtIndexed(Slice(file), 0, path, &decoded, &restarts,
                                  &block_end);
    ::benchmark::DoNotOptimize(decoded.data());
    ::benchmark::DoNotOptimize(restarts.data());
    ::benchmark::ClobberMemory();
  }
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["block_bytes"] = static_cast<double>(block_end);
}
BENCHMARK(BM_DecodeBlock);

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
