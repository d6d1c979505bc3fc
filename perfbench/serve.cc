// Serving workloads: a closed loop of 3 clients with no think time against
// a StatsService over SUFFIX-sigma statistics (NYT-like, tau 2) cut into
// 4 shards. Query keys are drawn Zipf(1.0) over stored n-grams ranked by
// frequency; the mix is 80% Count, 15% top-k and 5% sentence perplexity,
// and 10% of top-k prefixes are empty (root completions, a full scan of
// the unigrams).
//
//   serve-hot    64 MiB block cache: the working set fits, hit ratio ~1
//   serve-churn  256 KiB block cache (misses, CRC checks, eviction) and a
//                4th thread that rebuilds the shards once per measured
//                slice into a fresh directory, alternating 4 and 8 shards,
//                then Reload()s
//
// The measured window is cut into slices of about a second. Between
// slices every thread parks and the host probe runs (bench.h); end-to-end
// timings are medians over slices in reference seconds.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/brute_force.h"
#include "core/runner.h"
#include "corpus/synthetic.h"
#include "corpus/zipf.h"
#include "serve/serving_builder.h"
#include "serve/stats_service.h"
#include "trace.h"
#include "util/random.h"

namespace ngram::bench {

namespace {

constexpr uint64_t kDocs = 1000;
constexpr uint64_t kTau = 2;
constexpr uint32_t kSigma = 5;
constexpr uint32_t kShards = 4;
constexpr uint32_t kSlots = 3;
constexpr int kClients = 3;
constexpr int kSetupRepeats = 5;
constexpr size_t kTopK = 10;
constexpr size_t kSentencePool = 256;
/// Every 64th answer per client is kept for the post-run check (and, in
/// the traced window, becomes a span).
constexpr uint64_t kSampleEvery = 64;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;

enum Op : int { kCount = 0, kTopKOp = 1, kPpl = 2, kNumOps = 3 };
const char* const kOpNames[kNumOps] = {"count", "topk", "ppl"};

struct Query {
  Op op = kCount;
  /// The n-gram (Count), prefix (top-k; empty = root) or sentence (ppl).
  const TermSequence* input = nullptr;
};

struct Answer {
  Query query;
  uint64_t count = 0;
  std::vector<serve::Completion> completions;
  double perplexity = 0;
};

/// Seeded query stream: the same seed and client give the same queries.
class QueryMix {
 public:
  QueryMix(const NgramStatistics& stats, const Corpus& corpus) {
    for (const auto& entry : stats.entries) {
      ranked_.push_back(&entry);
    }
    // Frequency rank, ties by n-gram, so the stream is a pure function
    // of the statistics.
    std::sort(ranked_.begin(), ranked_.end(), [](const auto* a, const auto* b) {
      return a->second != b->second ? a->second > b->second
                                     : a->first < b->first;
    });
    for (const Document& doc : corpus.docs) {
      for (const TermSequence& sentence : doc.sentences) {
        if (sentence.size() >= 2 && sentences_.size() < kSentencePool) {
          sentences_.push_back(sentence);
        }
      }
    }
    // prefixes_ follows the ranked order of the n-grams they came from.
    for (const auto* entry : ranked_) {
      if (entry->first.size() >= 2) {
        prefixes_.emplace_back(entry->first.begin(), entry->first.end() - 1);
      }
    }
    ngram_zipf_ = std::make_unique<ZipfSampler>(ranked_.size(), 1.0);
    prefix_zipf_ = std::make_unique<ZipfSampler>(prefixes_.size(), 1.0);
  }

  bool usable() const {
    return !ranked_.empty() && !prefixes_.empty() && !sentences_.empty();
  }

  Query Next(Rng* rng) const {
    const double mix = rng->NextDouble();
    if (mix < 0.80) {
      return Query{kCount, &ranked_[ngram_zipf_->Sample(rng) - 1]->first};
    }
    if (mix < 0.95) {
      if (rng->NextDouble() < 0.10) {
        return Query{kTopKOp, &empty_};
      }
      return Query{kTopKOp, &prefixes_[prefix_zipf_->Sample(rng) - 1]};
    }
    return Query{kPpl, &sentences_[rng->Uniform(sentences_.size())]};
  }

 private:
  std::vector<const NgramStatistics::Entry*> ranked_;
  std::vector<TermSequence> prefixes_;
  std::vector<TermSequence> sentences_;
  const TermSequence empty_;
  std::unique_ptr<ZipfSampler> ngram_zipf_;
  std::unique_ptr<ZipfSampler> prefix_zipf_;
};

/// Executes `query`; fills `answer` and returns false on an error.
bool Execute(const serve::StatsService& service, const Query& query,
             Answer* answer) {
  *answer = Answer();
  answer->query = query;
  switch (query.op) {
    case kCount: {
      auto r = service.Count(*query.input);
      if (!r.ok()) {
        return false;
      }
      answer->count = *r;
      return true;
    }
    case kTopKOp: {
      auto r = service.TopKCompletions(*query.input, kTopK);
      if (!r.ok()) {
        return false;
      }
      answer->completions = std::move(*r);
      return true;
    }
    default: {
      auto r = service.SentencePerplexity(*query.input);
      if (!r.ok()) {
        return false;
      }
      answer->perplexity = *r;
      return true;
    }
  }
}

/// Phases of the closed loop; clients time only the measured ones, and
/// every thread parks while the phase is kPause.
enum Phase : int {
  kWarmup = 0,
  kPlain = 1,
  kTraced = 2,
  kPause = 3,
  kStop = 4
};

/// One slice of the measured window.
struct Slice {
  double seconds = 0;
  double cpu_s = 0;
  /// HostProbeSeconds(kClients) just before the slice.
  double probe_s = 0;
  uint64_t ops = 0;
};

struct WindowStats {
  std::vector<double> latency_us[kNumOps];
  double root_topk_us = 0;
  double topk_us = 0;
};

struct ClientResult {
  WindowStats windows[2];  // [0] plain, [1] traced.
  std::vector<Answer> samples;
  uint64_t ops = 0;
  std::vector<std::string> errors;
};

struct ChurnResult {
  std::vector<double> build_ms;
  std::vector<double> reload_ms;
  uint64_t reloads = 0;
  std::vector<std::string> errors;
};

class ServeRun {
 public:
  ServeRun(const RunConfig& config, Outcome* outcome)
      : config_(config),
        outcome_(outcome),
        churn_(config.workload == "serve-churn"),
        docs_(std::max<uint64_t>(
            50, static_cast<uint64_t>(static_cast<double>(kDocs) *
                                      config.scale))) {}

  Outcome Run();

 private:
  std::string FreshDir() {
    return config_.work_dir + "/shards-" + std::to_string(next_dir_++);
  }

  /// BuildServingShards into `dir`, timed into `*ms`. A non-zero `parent`
  /// (traced pass only) routes the writes through the traced env under a
  /// build span.
  Status Build(const NgramStatistics& stats, const std::string& dir,
               uint32_t shards, SpanId parent, double* ms) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    serve::BuildServingOptions options;
    options.num_shards = shards;
    SpanId span = 0;
    if (parent != 0) {
      options.env = tracing_;
      span = tracer_.Begin("build", "serve", parent);
      tracing_->set_parent(span);
    }
    const double t0 = NowSeconds();
    Status st = serve::BuildServingShards(stats, dir, options);
    *ms = (NowSeconds() - t0) * 1e3;
    if (span != 0) {
      tracing_->CloseOpenFiles();
      tracer_.End(span, "\"shards\": " + std::to_string(shards));
    }
    return st;
  }

  /// A sequential, cache-off service over a private build of `stats`
  /// (churn may have retired the measured directories).
  Result<std::unique_ptr<serve::StatsService>> OpenOracle(
      const NgramStatistics& stats) {
    const std::string dir = FreshDir();
    double ms = 0;
    NGRAM_RETURN_NOT_OK(Build(stats, dir, kShards, 0, &ms));
    serve::ServingOptions uncached;
    uncached.cache_bytes = 0;
    return serve::StatsService::Open(dir, uncached);
  }

  void Client(int id, const QueryMix& mix, const serve::StatsService& service,
              ClientResult* result) {
    Rng rng(config_.seed * 7919 + static_cast<uint64_t>(id) + 1);
    Answer answer;
    for (uint64_t n = 0;; ++n) {
      const int phase = phase_.load();
      if (phase == kStop) {
        return;
      }
      if (phase == kPause) {
        Park();
        continue;
      }
      const Query query = mix.Next(&rng);
      const double t0 = NowSeconds();
      const bool ok = Execute(service, query, &answer);
      const double t1 = NowSeconds();
      if (phase == kWarmup) {
        continue;
      }
      ++result->ops;
      if (!ok) {
        result->errors.push_back(std::string(kOpNames[query.op]) + " failed");
        continue;
      }
      WindowStats& window = result->windows[phase == kTraced ? 1 : 0];
      const double us = (t1 - t0) * 1e6;
      window.latency_us[query.op].push_back(us);
      if (query.op == kTopKOp) {
        window.topk_us += us;
        if (query.input->empty()) {
          window.root_topk_us += us;
        }
      }
      if (n % kSampleEvery == 0) {
        if (phase == kTraced) {
          tracer_.Complete(kOpNames[query.op], "query", traced_window_, t0,
                           t1, "\"client\": " + std::to_string(id));
        }
        result->samples.push_back(answer);
      }
    }
  }

  /// Once per measured slice, rebuilds the shards into a fresh directory,
  /// alternating 8 and 4 shards, and Reload()s the service onto it.
  void Churn(const NgramStatistics& stats, serve::StatsService* service,
             ChurnResult* result) {
    std::vector<std::string> dirs = {current_dir_};
    uint32_t shards = kShards;
    uint64_t rebuilt_slice = 0;
    for (;;) {
      const int phase = phase_.load();
      if (phase == kStop) {
        return;
      }
      if (phase == kPause) {
        Park();
        continue;
      }
      const uint64_t slice = slice_.load();
      if (phase == kWarmup || slice == rebuilt_slice) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      rebuilt_slice = slice;
      shards = shards == kShards ? 2 * kShards : kShards;
      const std::string dir = FreshDir();
      const bool traced = phase == kTraced;
      const SpanId parent = traced ? traced_window_ : 0;
      double build_ms = 0;
      Status st = Build(stats, dir, shards, parent, &build_ms);
      if (st.ok()) {
        const SpanId span =
            traced ? tracer_.Begin("reload", "serve", parent) : 0;
        const double t0 = NowSeconds();
        st = service->Reload(dir);
        result->reload_ms.push_back((NowSeconds() - t0) * 1e3);
        if (span != 0) {
          tracer_.End(span, "\"shards\": " + std::to_string(shards));
        }
      }
      result->build_ms.push_back(build_ms);
      ++result->reloads;
      if (!st.ok()) {
        result->errors.push_back("rebuild/reload: " + st.ToString());
      } else if (const size_t published = service->store()->num_shards();
                 published != shards) {
        result->errors.push_back("reload published " +
                                 std::to_string(published) + " shards, built " +
                                 std::to_string(shards));
      }
      dirs.push_back(dir);
      // The store unmaps a retired snapshot when its last query drops it;
      // unlinking mapped segments is safe, so keep only the last two.
      if (dirs.size() > 2) {
        std::error_code ec;
        std::filesystem::remove_all(dirs.front(), ec);
        dirs.erase(dirs.begin());
      }
    }
  }

  /// Waits out a pause, counted in parked_ meanwhile. phase_ and parked_
  /// use sequentially consistent order: a worker leaving one pause and
  /// the main thread entering the next must not both read stale values.
  void Park() {
    ++parked_;
    while (phase_.load() == kPause) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    --parked_;
  }

  /// Parks every worker thread; their results can be read until the
  /// phase changes again.
  void PauseAll(int workers) {
    phase_.store(kPause);
    while (parked_.load() < workers) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Runs `phase` for `seconds` in equal slices of about kSliceSeconds,
  /// each preceded by a probe taken while every worker is parked. Leaves
  /// the workers parked.
  std::vector<Slice> Measure(int phase, double seconds, int workers,
                             const std::vector<ClientResult>& clients) {
    const auto total_ops = [&clients] {
      uint64_t ops = 0;
      for (const ClientResult& client : clients) {
        ops += client.ops;
      }
      return ops;
    };
    const int count =
        std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
    std::vector<Slice> slices(count);
    for (Slice& slice : slices) {
      PauseAll(workers);
      slice.probe_s = HostProbeSeconds(kClients);
      const uint64_t ops0 = total_ops();
      const double cpu0 = CpuSeconds();
      const double t0 = NowSeconds();
      ++slice_;
      phase_.store(phase);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(seconds / count));
      PauseAll(workers);
      slice.seconds = NowSeconds() - t0;
      slice.cpu_s = CpuSeconds() - cpu0;
      slice.ops = total_ops() - ops0;
    }
    return slices;
  }

  const RunConfig& config_;
  Outcome* const outcome_;
  const bool churn_;
  const uint64_t docs_;
  Tracer tracer_;
  TracingEnv* tracing_ = nullptr;
  mr::IoEnv* env_ = nullptr;
  SpanId traced_window_ = 0;
  std::atomic<int> phase_{kWarmup};
  std::atomic<int> parked_{0};
  /// Number of the current measured slice (from 1).
  std::atomic<uint64_t> slice_{0};
  int next_dir_ = 0;
  std::string current_dir_;
};

/// Per 10,000 queries over a run of slices: measured seconds over the
/// whole run, reference seconds as the median over slices.
struct SliceSummary {
  double wall_s = 0;
  double cpu_s = 0;
  double wall_reference_s = 0;
  double cpu_reference_s = 0;
  /// Median probe seconds.
  double probe_s = 0;
};

SliceSummary Summarise(const std::vector<Slice>& slices) {
  double seconds = 0, cpu = 0, ops = 0;
  std::vector<double> wall_reference, cpu_reference, probes;
  for (const Slice& slice : slices) {
    seconds += slice.seconds;
    cpu += slice.cpu_s;
    ops += static_cast<double>(slice.ops);
    const double per_query =
        1e4 / static_cast<double>(std::max<uint64_t>(1, slice.ops));
    wall_reference.push_back(
        ReferenceSeconds(slice.seconds * per_query, slice.probe_s));
    cpu_reference.push_back(
        ReferenceSeconds(slice.cpu_s * per_query, slice.probe_s));
    probes.push_back(slice.probe_s);
  }
  SliceSummary summary;
  summary.wall_s = seconds / std::max(1.0, ops) * 1e4;
  summary.cpu_s = cpu / std::max(1.0, ops) * 1e4;
  summary.wall_reference_s = Median(wall_reference);
  summary.cpu_reference_s = Median(cpu_reference);
  summary.probe_s = Median(probes);
  return summary;
}

/// Window `w` of every client, latencies sorted.
WindowStats MergeWindow(const std::vector<ClientResult>& clients, int w) {
  WindowStats merged;
  for (const ClientResult& client : clients) {
    const WindowStats& part = client.windows[w];
    for (int op = 0; op < kNumOps; ++op) {
      merged.latency_us[op].insert(merged.latency_us[op].end(),
                                   part.latency_us[op].begin(),
                                   part.latency_us[op].end());
    }
    merged.topk_us += part.topk_us;
    merged.root_topk_us += part.root_topk_us;
  }
  for (auto& v : merged.latency_us) {
    std::sort(v.begin(), v.end());
  }
  return merged;
}

void PrintLatency(const char* label, const WindowStats& window) {
  for (int op = 0; op < kNumOps; ++op) {
    const auto& v = window.latency_us[op];
    fprintf(stderr,
            "bench_ngram: %s window %-5s n=%-8zu p50 %9.2f us  p99 %9.2f us\n",
            label, kOpNames[op], v.size(), Quantile(v, 0.50),
            Quantile(v, 0.99));
    if (v.size() < 1000) {
      fprintf(stderr,
              "bench_ngram: WARNING: fewer than 10 %s samples beyond p99\n",
              kOpNames[op]);
    }
  }
}

Outcome ServeRun::Run() {
  std::error_code ec;
  std::filesystem::create_directories(config_.work_dir, ec);
  TracingEnv tracing_env(mr::IoEnv::Default(), &tracer_);
  if (config_.trace) {
    tracing_ = &tracing_env;
    env_ = &tracing_env;
  }
  const SpanId workload_span =
      config_.trace ? tracer_.Begin(config_.workload, "workload", 0) : 0;

  const double gen0 = NowSeconds();
  const Corpus corpus =
      GenerateSyntheticCorpus(NytLikeOptions(docs_, config_.seed));
  const double generate_s = NowSeconds() - gen0;
  outcome_->info.emplace_back("docs", std::to_string(docs_));
  WarnIfOversubscribed(config_.workload, kClients + (churn_ ? 1 : 0));

  // Set-up: statistics job, shard build and Open, five times from
  // scratch; the last service is the one measured.
  const size_t cache_bytes = churn_ ? 256 << 10 : 64 << 20;
  std::vector<double> setup, setup_reference, context_s, build_ms, open_ms;
  NgramStatistics stats;
  uint64_t shuffle_bytes = 0;
  std::unique_ptr<serve::StatsService> service;
  std::shared_ptr<kv::BlockCache> cache;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    if (!current_dir_.empty()) {
      std::filesystem::remove_all(current_dir_, ec);
    }
    const SpanId span =
        config_.trace ? tracer_.Begin("setup", "setup", workload_span) : 0;
    const double probe = HostProbeSeconds(kSlots);
    const double t0 = NowSeconds();
    const CorpusContext ctx = BuildCorpusContext(corpus);
    context_s.push_back(NowSeconds() - t0);
    NgramJobOptions options;
    options.method = Method::kSuffixSigma;
    options.tau = kTau;
    options.sigma = kSigma;
    options.map_slots = kSlots;
    options.reduce_slots = kSlots;
    options.job_overhead_ms = 0;
    options.work_dir = config_.work_dir;
    options.io_env = env_;
    if (tracing_ != nullptr) {
      tracing_->set_parent(span);
    }
    Result<NgramRun> run = ComputeNgramStatistics(ctx, options);
    if (!run.ok()) {
      outcome_->Operation("statistics job: " + run.status().ToString());
      return std::move(*outcome_);
    }
    stats = std::move(run->stats);
    shuffle_bytes = run->metrics.map_output_bytes();
    current_dir_ = FreshDir();
    double ms = 0;
    Status st = Build(stats, current_dir_, kShards, span, &ms);
    build_ms.push_back(ms);
    if (!st.ok()) {
      outcome_->Operation("build-serving: " + st.ToString());
      return std::move(*outcome_);
    }
    cache = std::make_shared<kv::BlockCache>(cache_bytes);
    serve::ServingOptions serving;
    serving.cache = cache;
    serving.env = env_;
    const SpanId open_span =
        config_.trace ? tracer_.Begin("open", "serve", span) : 0;
    const double o0 = NowSeconds();
    auto opened = serve::StatsService::Open(current_dir_, serving);
    open_ms.push_back((NowSeconds() - o0) * 1e3);
    if (open_span != 0) {
      tracer_.End(open_span);
    }
    setup.push_back(NowSeconds() - t0);
    setup_reference.push_back(ReferenceSeconds(setup.back(), probe));
    if (span != 0) {
      tracer_.End(span);
    }
    if (!opened.ok()) {
      outcome_->Operation("open: " + opened.status().ToString());
      return std::move(*outcome_);
    }
    service = std::move(*opened);
  }
  const std::string digest = StatsDigest(stats);
  outcome_->info.emplace_back("digest", digest);
  if (!config_.expect_digest.empty() && digest != config_.expect_digest) {
    outcome_->Violation("statistics digest " + digest +
                        " != recorded digest " + config_.expect_digest);
  }
  const std::string spot = SpotCheck(corpus, stats, kTau, kSigma, config_.seed);
  if (!spot.empty()) {
    outcome_->Violation(spot);
  }
  if (config_.oracle &&
      StatsDigest(BruteForceCounts(corpus, kTau, kSigma)) != digest) {
    outcome_->Violation("served statistics differ from BruteForceCounts");
  }

  const QueryMix mix(stats, corpus);
  if (!mix.usable()) {
    outcome_->Violation("statistics too small to draw a query mix from");
    return std::move(*outcome_);
  }

  std::vector<ClientResult> clients(kClients);
  ChurnResult churn;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { Client(c, mix, *service, &clients[c]); });
  }
  if (churn_) {
    threads.emplace_back([&] { Churn(stats, service.get(), &churn); });
  }

  // Warm-up, then the measured window; the traced pass splits it into a
  // plain half (overhead baseline) and a traced half.
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const int workers = static_cast<int>(threads.size());
  const double plain_seconds =
      config_.trace ? config_.seconds / 2 : config_.seconds;
  const kv::BlockCacheStats cache0 = cache->Snapshot();
  const std::vector<Slice> plain_slices =
      Measure(kPlain, plain_seconds, workers, clients);
  std::vector<Slice> traced_slices;
  if (config_.trace) {
    traced_window_ = tracer_.Begin("traced window", "window", workload_span);
    traced_slices = Measure(kTraced, config_.seconds - plain_seconds, workers,
                            clients);
  }
  const kv::BlockCacheStats cache1 = cache->Snapshot();
  phase_.store(kStop);
  for (auto& thread : threads) {
    thread.join();
  }
  if (traced_window_ != 0) {
    tracer_.End(traced_window_);
  }

  // Post-run check: every sampled answer against a sequential, cache-off
  // service over the same statistics, and Counts against the table.
  NgramStatistics table = stats;
  table.SortCanonical();
  auto oracle = OpenOracle(stats);
  uint64_t sampled = 0;
  for (const ClientResult& client : clients) {
    for (const std::string& error : client.errors) {
      outcome_->Operation(error);
    }
    outcome_->attempted += client.ops - client.errors.size();
    if (!oracle.ok()) {
      continue;
    }
    for (const Answer& answer : client.samples) {
      Answer expected;
      ++sampled;
      if (!Execute(**oracle, answer.query, &expected)) {
        outcome_->Violation("oracle service failed on a sampled query");
        continue;
      }
      bool same = expected.count == answer.count &&
                  expected.completions == answer.completions &&
                  expected.perplexity == answer.perplexity;
      if (answer.query.op == kCount &&
          table.FrequencyOf(*answer.query.input) != answer.count) {
        same = false;
      }
      if (!same) {
        ++outcome_->failed;
        outcome_->Violation(std::string("wrong ") + kOpNames[answer.query.op] +
                            " answer on a sampled query");
      }
    }
  }
  if (!oracle.ok()) {
    outcome_->Violation("cache-off oracle service: " +
                        oracle.status().ToString());
  }
  for (const std::string& error : churn.errors) {
    outcome_->Operation(error);
  }
  outcome_->attempted += churn.reloads - churn.errors.size();
  fprintf(stderr, "bench_ngram: %llu answers sampled and checked\n",
          static_cast<unsigned long long>(sampled));

  const SliceSummary plain_summary = Summarise(plain_slices);
  if (!config_.trace) {
    outcome_->Add("setup_s", Median(setup_reference), "s");
    outcome_->Add("wall_s", plain_summary.wall_reference_s, "s");
    outcome_->Add("cpu_s", plain_summary.cpu_reference_s, "s");
    outcome_->Add("shuffle_mb", static_cast<double>(shuffle_bytes) / 1e6, "MB");
    outcome_->Add("peak_rss_mb", PeakRssMb(), "MB");
    fprintf(stderr,
            "bench_ngram: measured seconds: setup %.6f wall %.6f cpu %.6f "
            "(per 10,000 queries); probe %.3f ms\n",
            Median(setup), plain_summary.wall_s, plain_summary.cpu_s,
            plain_summary.probe_s * 1e3);
  }

  // Latency by operation: printed for both windows, reported as
  // per-layer metrics from the traced one.
  const WindowStats plain = MergeWindow(clients, 0);
  PrintLatency("plain", plain);
  if (config_.trace) {
    const WindowStats traced = MergeWindow(clients, 1);
    PrintLatency("traced", traced);
    for (int op = 0; op < kNumOps; ++op) {
      const std::string name = std::string("serve.") + kOpNames[op];
      const auto& v = traced.latency_us[op];
      outcome_->Add(name + "_p50_us", Quantile(v, 0.50), "us");
      outcome_->Add(name + "_p99_us", Quantile(v, 0.99), "us");
      outcome_->Add(name + "_ops", static_cast<double>(v.size()), "count");
    }
    outcome_->Add("serve.topk_root_share",
                  traced.topk_us > 0 ? traced.root_topk_us / traced.topk_us
                                     : 0,
                  "ratio");
    const SliceSummary traced_summary = Summarise(traced_slices);
    outcome_->Add("serve.qps", 1e4 / traced_summary.wall_s, "1/s");
    outcome_->Add("trace.overhead_pct",
                  (traced_summary.wall_reference_s /
                       plain_summary.wall_reference_s -
                   1) * 100,
                  "%");
    outcome_->Add("host.probe_ms", plain_summary.probe_s * 1e3, "ms");
    outcome_->Add("host.wall_s", plain_summary.wall_s, "s");
    outcome_->Add("host.cpu_s", plain_summary.cpu_s, "s");
  }

  if (config_.trace) {
    outcome_->Add("corpus.generate_s", generate_s, "s");
    outcome_->Add("text.context_s", Median(context_s), "s");
    outcome_->Add("core.output_ngrams", static_cast<double>(stats.size()),
                  "count");
    outcome_->Add("serve.build_ms",
                  Median(churn.build_ms.empty() ? build_ms : churn.build_ms),
                  "ms");
    outcome_->Add("serve.open_ms", Median(open_ms), "ms");
    outcome_->Add("serve.reload_ms", Median(churn.reload_ms), "ms");
    const uint64_t hits = cache1.hits - cache0.hits;
    const uint64_t misses = cache1.misses - cache0.misses;
    outcome_->Add("kv.cache_hit_ratio",
                  hits + misses == 0
                      ? 0
                      : static_cast<double>(hits) /
                            static_cast<double>(hits + misses),
                  "ratio");
    outcome_->Add("kv.cache_misses", static_cast<double>(misses), "count");
    outcome_->Add("kv.cache_evictions",
                  static_cast<double>(cache1.evictions - cache0.evictions),
                  "count");
    tracer_.End(workload_span, "\"seed\": " + std::to_string(config_.seed));
    const std::string nesting = tracer_.CheckNesting();
    if (!nesting.empty()) {
      outcome_->Violation("trace: " + nesting);
    }
    if (!tracer_.WriteChromeJson(config_.trace_file)) {
      outcome_->Violation("cannot write trace " + config_.trace_file);
    }
  }
  std::filesystem::remove_all(config_.work_dir, ec);
  return std::move(*outcome_);
}

}  // namespace

Outcome RunServeWorkload(const RunConfig& config) {
  Outcome outcome;
  ServeRun run(config, &outcome);
  return run.Run();
}

}  // namespace ngram::bench
