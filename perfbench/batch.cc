// Batch workloads: the paper's methods over synthetic corpora, timed
// round by round around ComputeNgramStatistics.
//
//   inmem-nyt  4 methods, NYT-like, default 64 MiB sort buffer (no spills)
//   spill-cw   4 methods, CW-like, 512 KiB sort buffer, 16 KiB reducer
//              budget, early shuffle on (spills, bounded merges, KV store)
//   fetch-nyt  NAIVE and SUFFIX-sigma on the inmem-nyt corpus, every map
//              output fetched through a bench-hosted Unix-socket server
//
// Rounds run the methods in a fixed order so host drift hits each method
// alike; wallclock is the bench's own steady_clock around each call, and
// each call is paired with a host probe taken just before it (bench.h).
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/brute_force.h"
#include "core/runner.h"
#include "corpus/synthetic.h"
#include "mapreduce/counters.h"
#include "net/map_output_server.h"
#include "net/socket_transport.h"
#include "trace.h"

namespace ngram::bench {

namespace {

constexpr uint32_t kSlots = 3;  // nproc - 1 on the 4-core reference box.
constexpr uint32_t kReducers = 8;
constexpr uint32_t kSigma = 5;
constexpr int kSetupRepeats = 3;
constexpr int kMinTimedRounds = 3;

const Method kAllMethods[] = {Method::kNaive, Method::kAprioriScan,
                              Method::kAprioriIndex, Method::kSuffixSigma};

struct BatchSpec {
  bool clueweb = false;
  uint64_t docs = 0;
  uint64_t tau = 0;
  std::vector<Method> methods;
  size_t sort_buffer_bytes = 64ULL << 20;
  size_t reducer_memory_budget_bytes = 256ULL << 20;
  uint32_t shuffle_slots = 0;
  bool fetch = false;
  /// Whether APRIORI state is expected to migrate to the KV store.
  bool expect_kv_writes = false;
};

BatchSpec SpecFor(const std::string& workload, double scale) {
  BatchSpec spec;
  spec.methods.assign(std::begin(kAllMethods), std::end(kAllMethods));
  if (workload == "spill-cw") {
    spec.clueweb = true;
    spec.docs = 1200;
    spec.tau = 20;
    // Large enough that file-system stalls of the shared host, which a
    // CPU probe cannot see, do not dominate; small enough for ~150 spills
    // and bounded merge passes per round.
    spec.sort_buffer_bytes = 512 << 10;
    spec.reducer_memory_budget_bytes = 16 << 10;
    spec.shuffle_slots = 1;
    spec.expect_kv_writes = true;
  } else {
    spec.docs = 1500;
    spec.tau = 10;
    if (workload == "fetch-nyt") {
      spec.methods = {Method::kNaive, Method::kSuffixSigma};
      spec.fetch = true;
    }
  }
  spec.docs = std::max<uint64_t>(
      50, static_cast<uint64_t>(static_cast<double>(spec.docs) * scale));
  if (spec.expect_kv_writes) {
    // The APRIORI state shrinks with the corpus; so does its budget.
    spec.reducer_memory_budget_bytes = static_cast<size_t>(
        static_cast<double>(spec.reducer_memory_budget_bytes) *
        std::min(1.0, scale));
  }
  return spec;
}

const char* MethodKey(Method method) {
  switch (method) {
    case Method::kNaive:
      return "naive";
    case Method::kAprioriScan:
      return "apriori_scan";
    case Method::kAprioriIndex:
      return "apriori_index";
    case Method::kSuffixSigma:
      return "suffix_sigma";
  }
  return "unknown";
}

NgramJobOptions JobOptions(const BatchSpec& spec, Method method,
                           const std::string& work_dir) {
  NgramJobOptions options;
  options.method = method;
  options.tau = spec.tau;
  options.sigma = kSigma;
  options.map_slots = kSlots;
  options.reduce_slots = kSlots;
  options.num_reducers = kReducers;
  options.sort_buffer_bytes = spec.sort_buffer_bytes;
  options.reducer_memory_budget_bytes = spec.reducer_memory_budget_bytes;
  options.shuffle_slots = spec.shuffle_slots;
  options.job_overhead_ms = 0;
  options.work_dir = work_dir;
  return options;
}

/// One method call of a timed round.
struct MethodSample {
  Method method = Method::kNaive;
  double wall_s = 0;
  double cpu_s = 0;
  /// HostProbeSeconds(kSlots) just before the call.
  double probe_s = 0;
  mr::RunMetrics metrics;
  uint64_t output_ngrams = 0;
};

std::string JobMetricsJson(const mr::RunMetrics& metrics) {
  std::string out = "\"jobs\": [";
  char buffer[160];
  for (size_t j = 0; j < metrics.jobs.size(); ++j) {
    const mr::JobMetrics& job = metrics.jobs[j];
    snprintf(buffer, sizeof(buffer),
             "%s{\"name\": %s, \"wallclock_ms\": %.3f, \"map_phase_ms\": "
             "%.3f, \"reduce_phase_ms\": %.3f, \"counters\": {",
             j == 0 ? "" : ", ", JsonString(job.job_name).c_str(),
             job.wallclock_ms, job.map_phase_ms, job.reduce_phase_ms);
    out += buffer;
    bool first = true;
    for (const auto& [name, value] : job.counters) {
      out += (first ? "" : ", ") + JsonString(name) + ": " +
             std::to_string(value);
      first = false;
    }
    out += "}}";
  }
  return out + "]";
}

/// A shuffle server hosted by the bench for fetch workloads: jobs dial it
/// through NgramJobOptions::shuffle_server_address, as `ngram_tool stats
/// --shuffle-socket` dials `ngram_tool serve-shuffle`.
std::unique_ptr<net::MapOutputServer> HostShuffleServer(
    net::Transport* transport, mr::IoEnv* env, std::string address) {
  net::MapOutputServer::Options options;
  options.transport = transport;
  options.env = env;
  options.address = std::move(address);
  return std::make_unique<net::MapOutputServer>(options);
}

/// Unix socket `name` under `dir`, relative to the working directory when
/// the absolute path would not fit sun_path.
std::string SocketPath(const std::string& dir, const std::string& name) {
  const std::string absolute = dir + "/" + name;
  if (absolute.size() < 100) {
    return absolute;
  }
  std::error_code ec;
  return std::filesystem::relative(absolute, ec).string();
}

/// Everything a batch run accumulates across its rounds.
class BatchRun {
 public:
  BatchRun(const RunConfig& config, BatchSpec spec, Outcome* outcome)
      : config_(config), spec_(std::move(spec)), outcome_(outcome) {}

  /// Runs one method and checks its output. `server` non-empty routes
  /// the shuffle through the hosted server at that address.
  bool RunMethod(const CorpusContext& ctx, Method method,
                 const std::string& server, mr::IoEnv* env,
                 MethodSample* sample, NgramStatistics* keep_output) {
    // Every call starts from an empty work_dir: APRIORI-SCAN leaves its
    // dictionary KV stores there, and a later run would reopen them
    // instead of spilling afresh.
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
    std::filesystem::create_directories(work_dir_, ec);
    NgramJobOptions options = JobOptions(spec_, method, work_dir_);
    options.io_env = env;
    const bool fetch = !server.empty();
    if (fetch) {
      options.fetch_shuffle = true;
      options.shuffle_server_address = server;
    }
    const double wall0 = NowSeconds();
    const double cpu0 = CpuSeconds();
    Result<NgramRun> run = ComputeNgramStatistics(ctx, options);
    sample->wall_s = NowSeconds() - wall0;
    sample->cpu_s = CpuSeconds() - cpu0;
    sample->method = method;
    const std::string what = std::string(MethodName(method)) +
                             (fetch ? " (fetch)" : "");
    if (!run.ok()) {
      outcome_->Operation(what + " failed: " + run.status().ToString());
      return false;
    }
    sample->metrics = run->metrics;
    sample->output_ngrams = run->stats.size();
    const std::string digest = StatsDigest(run->stats);
    std::string error;
    if (reference_digest_.empty()) {
      reference_digest_ = digest;
    } else if (digest != reference_digest_) {
      error = what + " output digest " + digest + " != reference " +
              reference_digest_;
    }
    const uint64_t shuffle = run->metrics.map_output_bytes();
    auto [it, inserted] = shuffle_bytes_.emplace(method, shuffle);
    if (error.empty() && !inserted && it->second != shuffle) {
      error = what + " MAP_OUTPUT_BYTES changed between rounds: " +
              std::to_string(it->second) + " -> " + std::to_string(shuffle);
    }
    outcome_->Operation(error);
    if (keep_output != nullptr) {
      *keep_output = std::move(run->stats);
    }
    return error.empty();
  }

  Outcome Run();

 private:
  /// Runs every method once. With a tracer, each call gets a span under
  /// `round_span` and its files are attributed to it.
  std::vector<MethodSample> RunRound(const CorpusContext& ctx,
                                     const std::string& server,
                                     TracingEnv* tracing, Tracer* tracer,
                                     SpanId round_span) {
    std::vector<MethodSample> samples;
    for (Method method : spec_.methods) {
      MethodSample sample;
      sample.probe_s = HostProbeSeconds(kSlots);
      SpanId span = 0;
      if (tracer != nullptr) {
        span = tracer->Begin(MethodName(method), "method", round_span);
        tracing->set_parent(span);
      }
      const uint64_t wchar0 = WrittenBytes();
      const bool ok = RunMethod(ctx, method, server, tracing, &sample,
                                nullptr);
      if (tracer != nullptr) {
        traced_written_ += WrittenBytes() - wchar0;
        char args[96];
        snprintf(args, sizeof(args), "\"wall_s\": %.6f, \"cpu_s\": %.6f, ",
                 sample.wall_s, sample.cpu_s);
        tracer->End(span, args + JobMetricsJson(sample.metrics));
      }
      if (ok) {
        samples.push_back(std::move(sample));
      }
    }
    return samples;
  }

  void ReportEndToEnd(const std::vector<std::vector<MethodSample>>& rounds,
                      double setup_s, double raw_setup_s);
  void ReportLayers(const std::vector<std::vector<MethodSample>>& untraced,
                    const std::vector<std::vector<MethodSample>>& traced,
                    const TracingEnv& env, const TracingTransport& transport,
                    uint64_t segments_served, const Tracer& tracer,
                    double generate_s, double setup_s);

  const RunConfig& config_;
  const BatchSpec spec_;
  Outcome* const outcome_;
  std::string work_dir_;
  std::string reference_digest_;
  std::map<Method, uint64_t> shuffle_bytes_;
  /// wchar growth during traced method calls.
  uint64_t traced_written_ = 0;
};

/// Per-method median of `field` over rounds, summed over methods; in
/// reference seconds when `reference` is set.
double SumOfMethodMedians(const std::vector<std::vector<MethodSample>>& rounds,
                          double MethodSample::*field, bool reference) {
  std::map<Method, std::vector<double>> per_method;
  for (const auto& round : rounds) {
    for (const MethodSample& sample : round) {
      per_method[sample.method].push_back(
          reference ? ReferenceSeconds(sample.*field, sample.probe_s)
                    : sample.*field);
    }
  }
  double total = 0;
  for (const auto& [method, values] : per_method) {
    total += Median(values);
  }
  return total;
}

/// Median probe seconds over every call of `rounds`.
double MedianProbe(const std::vector<std::vector<MethodSample>>& rounds) {
  std::vector<double> probes;
  for (const auto& round : rounds) {
    for (const MethodSample& sample : round) {
      probes.push_back(sample.probe_s);
    }
  }
  return Median(probes);
}

/// Runtime counters reported per traced round, scaled into their unit.
struct CounterMetric {
  const char* name;
  const char* counter;
  double scale;
  const char* unit;
};
const CounterMetric kCounterMetrics[] = {
    {"mr.spill_files", mr::kSpillFiles, 1, "count"},
    {"mr.merge_passes", mr::kMergePasses, 1, "count"},
    {"mr.intermediate_merge_mb", mr::kIntermediateMergeBytes, 1e-6, "MB"},
    {"mr.run_mb_written", mr::kRunBytesWritten, 1e-6, "MB"},
    {"mr.early_merge_passes", mr::kEarlyMergePasses, 1, "count"},
    {"mr.barrier_wait_ms", mr::kBarrierWaitMs, 1, "ms"},
    {"mr.fetch_mb", mr::kShuffleFetchBytes, 1e-6, "MB"},
    {"mr.fetch_retries", mr::kFetchRetries, 1, "count"},
    {"mr.fetch_wait_ms", mr::kFetchWaitMs, 1, "ms"},
};

void BatchRun::ReportEndToEnd(
    const std::vector<std::vector<MethodSample>>& rounds, double setup_s,
    double raw_setup_s) {
  outcome_->Add("setup_s", setup_s, "s");
  outcome_->Add("wall_s",
                SumOfMethodMedians(rounds, &MethodSample::wall_s, true), "s");
  outcome_->Add("cpu_s",
                SumOfMethodMedians(rounds, &MethodSample::cpu_s, true), "s");
  fprintf(stderr,
          "bench_ngram: measured seconds: setup %.6f wall %.6f cpu %.6f; "
          "probe %.3f ms\n",
          raw_setup_s, SumOfMethodMedians(rounds, &MethodSample::wall_s, false),
          SumOfMethodMedians(rounds, &MethodSample::cpu_s, false),
          MedianProbe(rounds) * 1e3);
  double shuffle = 0;
  for (const auto& [method, bytes] : shuffle_bytes_) {
    shuffle += static_cast<double>(bytes);
  }
  outcome_->Add("shuffle_mb", shuffle / 1e6, "MB");
  outcome_->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void BatchRun::ReportLayers(
    const std::vector<std::vector<MethodSample>>& untraced,
    const std::vector<std::vector<MethodSample>>& traced,
    const TracingEnv& env, const TracingTransport& transport,
    uint64_t segments_served, const Tracer& tracer, double generate_s,
    double setup_s) {
  const double rounds = static_cast<double>(std::max<size_t>(1, traced.size()));
  outcome_->Add("corpus.generate_s", generate_s, "s");
  outcome_->Add("text.context_s", setup_s, "s");

  std::map<Method, std::vector<double>> walls;
  std::map<std::string, uint64_t> counters;
  uint64_t jobs = 0, boundary = 0;
  double map_ms = 0, reduce_ms = 0;
  for (const auto& round : traced) {
    for (const MethodSample& s : round) {
      walls[s.method].push_back(s.wall_s);
      jobs += s.metrics.jobs.size();
      map_ms += s.metrics.total_map_phase_ms();
      reduce_ms += s.metrics.total_reduce_phase_ms();
      for (const mr::JobMetrics& job : s.metrics.jobs) {
        for (const auto& [name, value] : job.counters) {
          counters[name] += value;
        }
      }
      // Every job after a method's first reads the previous job's output.
      for (size_t j = 1; j < s.metrics.jobs.size(); ++j) {
        boundary += s.metrics.jobs[j].Counter(mr::kMapInputBytes);
      }
    }
  }
  const auto per_round = [&](uint64_t total) {
    return static_cast<double>(total) / rounds;
  };
  for (const auto& [method, values] : walls) {
    outcome_->Add(std::string("core.") + MethodKey(method) + "_s",
                  Median(values), "s");
  }
  outcome_->Add("core.jobs", per_round(jobs), "count");
  outcome_->Add("core.records_m",
                per_round(counters[mr::kMapOutputRecords]) / 1e6, "million");
  outcome_->Add("core.output_ngrams",
                traced.empty() || traced[0].empty()
                    ? 0
                    : static_cast<double>(traced[0][0].output_ngrams),
                "count");
  outcome_->Add("mr.map_phase_s", map_ms / 1e3 / rounds, "s");
  outcome_->Add("mr.reduce_phase_s", reduce_ms / 1e3 / rounds, "s");
  outcome_->Add("mr.boundary_mb", per_round(boundary) / 1e6, "MB");
  for (const CounterMetric& m : kCounterMetrics) {
    outcome_->Add(m.name, per_round(counters[m.counter]) * m.scale, m.unit);
  }
  const uint64_t run_written = counters[mr::kRunBytesWritten];
  outcome_->Add("mr.run_ratio",
                run_written == 0
                    ? 0
                    : static_cast<double>(counters[mr::kRunBytesRaw]) /
                          static_cast<double>(run_written),
                "ratio");

  const auto io = env.Totals();
  uint64_t env_written = 0, run_class_written = 0;
  std::string by_class;
  for (int c = 0; c < kNumFileClasses; ++c) {
    const std::string prefix =
        std::string("io.") + FileClassName(static_cast<FileClass>(c)) + ".";
    outcome_->Add(prefix + "write_mb", per_round(io[c].write_bytes) / 1e6,
                  "MB");
    outcome_->Add(prefix + "write_s", io[c].write_s / rounds, "s");
    outcome_->Add(prefix + "read_mb", per_round(io[c].read_bytes) / 1e6,
                  "MB");
    outcome_->Add(prefix + "read_s", io[c].read_s / rounds, "s");
    outcome_->Add(prefix + "files", per_round(io[c].files), "count");
    env_written += io[c].write_bytes;
    const auto cls = static_cast<FileClass>(c);
    if (cls != FileClass::kClone && cls != FileClass::kOther) {
      run_class_written += io[c].write_bytes;
    }
    by_class += std::string(" ") + FileClassName(cls) + "=" +
                std::to_string(io[c].write_bytes);
  }

  // Accounting: run files seen by the env are exactly what the runtime
  // books as RUN_BYTES_WRITTEN (clones are copies of runs already counted
  // at their origin, so they are excluded on both sides).
  if (run_class_written != run_written) {
    outcome_->Violation("run-file bytes seen by the IoEnv decorator (" +
                        std::to_string(run_class_written) +
                        ") != RUN_BYTES_WRITTEN (" +
                        std::to_string(run_written) + "); by class:" +
                        by_class);
  }
  const uint64_t spill_spans =
      tracer.CountSpans("file", "\"class\": \"spill\"");
  if (const uint64_t spill_files = counters[mr::kSpillFiles];
      spill_spans != spill_files) {
    outcome_->Violation("spill file spans (" + std::to_string(spill_spans) +
                        ") != SPILL_FILES (" + std::to_string(spill_files) +
                        ")");
  }

  const NetTotals net = transport.Totals();
  if (spec_.fetch && net.fetch_requests != segments_served) {
    outcome_->Violation("server segments_served (" +
                        std::to_string(segments_served) +
                        ") != fetch requests on the wire (" +
                        std::to_string(net.fetch_requests) + ")");
  }
  outcome_->Add("net.served_mb", per_round(net.written_bytes) / 1e6, "MB");
  outcome_->Add("net.serve_write_s", net.write_s / rounds, "s");
  outcome_->Add("net.segments_served", per_round(segments_served), "count");
  outcome_->Add("net.connections", per_round(net.connections), "count");

  // What the process wrote during the traced calls that neither decorator
  // saw: the KV store's raw-fd segment appends (the client half of the
  // shuffle conversation is what the server read).
  const uint64_t seen = env_written + net.written_bytes + net.read_bytes;
  const uint64_t raw = traced_written_ > seen ? traced_written_ - seen : 0;
  outcome_->Add("kv.raw_write_mb", per_round(raw) / 1e6, "MB");
  if (spec_.expect_kv_writes && raw == 0) {
    outcome_->Violation("kv.raw_write_mb is 0: the KV store path never ran");
  }
  if (!spec_.expect_kv_writes && raw != 0) {
    outcome_->Violation("unexplained raw writes of " + std::to_string(raw) +
                        " bytes on a workload without KV spills");
  }

  outcome_->Add("host.probe_ms", MedianProbe(untraced) * 1e3, "ms");
  outcome_->Add("host.wall_s",
                SumOfMethodMedians(untraced, &MethodSample::wall_s, false),
                "s");
  outcome_->Add("host.cpu_s",
                SumOfMethodMedians(untraced, &MethodSample::cpu_s, false), "s");
  const double untraced_sum =
      SumOfMethodMedians(untraced, &MethodSample::wall_s, true);
  const double traced_sum =
      SumOfMethodMedians(traced, &MethodSample::wall_s, true);
  outcome_->Add("trace.overhead_pct",
                untraced_sum > 0 ? (traced_sum / untraced_sum - 1) * 100 : 0,
                "%");
}

Outcome BatchRun::Run() {
  work_dir_ = config_.work_dir + "/work";
  std::error_code ec;
  std::filesystem::create_directories(work_dir_, ec);
  if (ec) {
    outcome_->Violation("cannot create " + work_dir_ + ": " + ec.message());
    return std::move(*outcome_);
  }
  Tracer tracer;
  const SpanId workload_span =
      config_.trace ? tracer.Begin(config_.workload, "workload", 0) : 0;

  const double gen0 = NowSeconds();
  const Corpus corpus = GenerateSyntheticCorpus(
      spec_.clueweb ? ClueWebLikeOptions(spec_.docs, config_.seed)
                    : NytLikeOptions(spec_.docs, config_.seed));
  const double generate_s = NowSeconds() - gen0;
  if (config_.trace) {
    tracer.Complete("generate corpus", "setup", workload_span, gen0,
                    gen0 + generate_s);
  }
  outcome_->info.emplace_back("docs", std::to_string(spec_.docs));
  WarnIfOversubscribed(config_.workload, kSlots + spec_.shuffle_slots);

  // Set-up is timed 3 times up front and again before every timed round,
  // so its median samples the whole run, as wall_s does. BuildCorpusContext
  // runs on one thread, and so does its probe.
  std::vector<double> setup, setup_reference;
  std::unique_ptr<CorpusContext> ctx;
  const auto build_context = [&] {
    ctx.reset();
    const double probe = HostProbeSeconds(1);
    const double t0 = NowSeconds();
    ctx = std::make_unique<CorpusContext>(BuildCorpusContext(corpus));
    setup.push_back(NowSeconds() - t0);
    setup_reference.push_back(ReferenceSeconds(setup.back(), probe));
    if (config_.trace) {
      tracer.Complete("BuildCorpusContext", "setup", workload_span, t0,
                      t0 + setup.back());
    }
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    build_context();
  }

  // Fetch workloads shuffle through servers the bench hosts: a plain one
  // for untimed and untraced rounds, and in the traced pass a second one
  // over the decorated transport and env, so traced totals cover traced
  // rounds only.
  TracingEnv tracing_env(mr::IoEnv::Default(), &tracer);
  net::SocketTransport sockets;
  const SpanId server_span =
      config_.trace && spec_.fetch
          ? tracer.Begin("shuffle server", "net", workload_span)
          : 0;
  TracingTransport tracing_transport(&sockets, &tracer, server_span);
  std::unique_ptr<net::MapOutputServer> plain_server, traced_server;
  if (spec_.fetch) {
    plain_server = HostShuffleServer(
        &sockets, nullptr, SocketPath(config_.work_dir, "shuffle.sock"));
    Status st = plain_server->Start();
    if (st.ok() && config_.trace) {
      traced_server = HostShuffleServer(
          &tracing_transport, &tracing_env,
          SocketPath(config_.work_dir, "traced.sock"));
      st = traced_server->Start();
    }
    if (!st.ok()) {
      outcome_->Violation("shuffle server: " + st.ToString());
      return std::move(*outcome_);
    }
  }
  const std::string plain_address =
      plain_server != nullptr ? plain_server->address() : "";
  const std::string traced_address =
      traced_server != nullptr ? traced_server->address() : "";

  // Reference output: a fetch workload must match the shared-filesystem
  // shuffle of the same corpus and config (inmem-nyt's) byte for byte.
  NgramStatistics reference;
  MethodSample ignored;
  if (spec_.fetch) {
    RunMethod(*ctx, Method::kSuffixSigma, "", nullptr, &ignored, &reference);
  }
  // Warm-up round: untimed; its first output feeds the oracle checks.
  for (Method method : spec_.methods) {
    RunMethod(*ctx, method, plain_address, nullptr, &ignored,
              reference.empty() ? &reference : nullptr);
  }
  if (!config_.expect_digest.empty() &&
      reference_digest_ != config_.expect_digest) {
    outcome_->Violation("output digest " + reference_digest_ +
                        " != recorded digest " + config_.expect_digest +
                        " for seed " + std::to_string(config_.seed));
  }
  outcome_->info.emplace_back("digest", reference_digest_);
  const std::string spot =
      SpotCheck(corpus, reference, spec_.tau, kSigma, config_.seed);
  if (!spot.empty()) {
    outcome_->Violation(spot);
  }
  if (config_.oracle) {
    const std::string oracle =
        StatsDigest(BruteForceCounts(corpus, spec_.tau, kSigma));
    if (oracle != reference_digest_) {
      outcome_->Violation("BruteForceCounts digest " + oracle +
                          " != method digest " + reference_digest_);
    }
  }
  reference = NgramStatistics();

  // The traced pass alternates plain and traced rounds so both see the
  // same host conditions; the plain ones are the overhead baseline.
  std::vector<std::vector<MethodSample>> untraced, traced;
  const double begin = NowSeconds();
  for (int round = 0;; ++round) {
    const bool enough_rounds =
        config_.trace ? traced.size() >= 2 && untraced.size() >= 2
                      : untraced.size() >= kMinTimedRounds;
    if (enough_rounds && NowSeconds() - begin >= config_.seconds) {
      break;
    }
    build_context();
    if (config_.trace && round % 2 == 1) {
      const SpanId round_span = tracer.Begin(
          "round " + std::to_string(traced.size()), "round", workload_span);
      traced.push_back(RunRound(*ctx, traced_address, &tracing_env, &tracer,
                                round_span));
      tracer.End(round_span);
    } else {
      untraced.push_back(RunRound(*ctx, plain_address, nullptr, nullptr, 0));
    }
  }

  const double setup_s = Median(setup);
  const uint64_t segments_served =
      traced_server != nullptr ? traced_server->segments_served() : 0;
  traced_server.reset();
  plain_server.reset();
  if (config_.trace) {
    if (server_span != 0) {
      tracer.End(server_span);
    }
    tracer.End(workload_span, "\"seed\": " + std::to_string(config_.seed) +
                                  ", \"docs\": " +
                                  std::to_string(spec_.docs));
    const std::string nesting = tracer.CheckNesting();
    if (!nesting.empty()) {
      outcome_->Violation("trace: " + nesting);
    }
    ReportLayers(untraced, traced, tracing_env, tracing_transport,
                 segments_served, tracer, generate_s, setup_s);
    if (!tracer.WriteChromeJson(config_.trace_file)) {
      outcome_->Violation("cannot write trace " + config_.trace_file);
    }
  } else {
    ReportEndToEnd(untraced, Median(setup_reference), setup_s);
  }
  std::filesystem::remove_all(work_dir_, ec);
  return std::move(*outcome_);
}

}  // namespace

Outcome RunBatchWorkload(const RunConfig& config) {
  Outcome outcome;
  BatchRun run(config, SpecFor(config.workload, config.scale), &outcome);
  return run.Run();
}

}  // namespace ngram::bench
