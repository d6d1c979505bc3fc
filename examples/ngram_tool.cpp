// ngram_tool: command-line driver for the library — generate corpora,
// compute statistics with any method, and inspect results.
//
//   ngram_tool generate (nyt|cw) <docs> <out.ngc> [seed]
//   ngram_tool stats <in.ngc> <out.ngs> --method=suffix-sigma --tau=10
//               [--sigma=5] [--mode=cf|df] [--reducers=8] [--slots=4]
//               [--sort-buffer-kb=N] [--merge-factor=N] [--shuffle-slots=N]
//               [--max-task-attempts=N] [--chaos-seed=N]
//               [--fetch-shuffle] [--shuffle-socket=PATH]
//               [--no-splits] [--maximal|--closed] [--verbose]
//   ngram_tool top <in.ngs> [k]
//   ngram_tool info <in.ngc>
//   ngram_tool build-serving <in.ngs> <out_dir> [--shards=N] [--block-kb=N]
//   ngram_tool serve-shuffle <socket-path>   (one job at a time)
//
// Every numeric argument must be a plain unsigned decimal that fits its
// option (cli_numbers.h) — slot counts at most kMaxSlots; anything else,
// an unknown --mode included, prints usage and exits 2.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_numbers.h"
#include "core/maximality.h"
#include "core/runner.h"
#include "core/stats_io.h"
#include "corpus/synthetic.h"
#include "mapreduce/io_env.h"
#include "net/map_output_server.h"
#include "net/socket_transport.h"
#include "serve/serving_builder.h"
#include "text/corpus_io.h"

namespace {

using namespace ngram;

/// Each slot is a thread: more than the process can start would kill it.
constexpr uint32_t kMaxSlots = 256;

int Usage() {
  fprintf(stderr,
          "usage:\n"
          "  ngram_tool generate (nyt|cw) <docs> <out.ngc> [seed]\n"
          "  ngram_tool stats <in.ngc> <out.ngs> [--method=M] [--tau=N]\n"
          "             [--sigma=N] [--mode=cf|df] [--reducers=N]\n"
          "             [--slots=N] [--sort-buffer-kb=N] [--merge-factor=N]\n"
          "             [--shuffle-slots=N]\n"
          "             [--max-task-attempts=N] [--chaos-seed=N]\n"
          "             [--fetch-shuffle] [--shuffle-socket=PATH]\n"
          "             [--no-splits] [--maximal|--closed] [--verbose]\n"
          "  ngram_tool top <in.ngs> [k]\n"
          "  ngram_tool info <in.ngc>\n"
          "  ngram_tool build-serving <in.ngs> <out_dir> [--shards=N]\n"
          "             [--block-kb=N]\n"
          "  ngram_tool serve-shuffle <socket-path>   (one job at a time)\n"
          "methods: naive, apriori-scan, apriori-index, suffix-sigma\n"
          "--slots and --shuffle-slots: at most %u (a thread each)\n",
          kMaxSlots);
  return 2;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    *out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Usage();
  }
  const std::string kind = args[0];
  uint64_t docs = 0;
  const std::string out = args[2];
  uint64_t seed = 1;
  if (!cli::ParseCount(args[1], &docs) ||
      (args.size() > 3 && !cli::ParseCount(args[3], &seed))) {
    return Usage();
  }
  SyntheticCorpusOptions options;
  if (kind == "nyt") {
    options = NytLikeOptions(docs, seed);
  } else if (kind == "cw") {
    options = ClueWebLikeOptions(docs, seed);
  } else {
    return Usage();
  }
  const Corpus corpus = GenerateSyntheticCorpus(options);
  Status st = WriteCorpusBinary(corpus, out);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  printf("wrote %llu documents to %s\n",
         static_cast<unsigned long long>(corpus.docs.size()), out.c_str());
  return 0;
}

int CmdStats(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Usage();
  }
  const std::string in = args[0];
  const std::string out = args[1];
  NgramJobOptions options;
  options.tau = 10;
  options.sigma = 5;
  enum { kAll, kMaximal, kClosed } filter = kAll;
  bool verbose = false;
  bool have_chaos_seed = false;
  uint64_t chaos_seed = 0;
  for (size_t i = 2; i < args.size(); ++i) {
    std::string value;
    if (ParseFlag(args[i], "method", &value)) {
      if (value == "naive") {
        options.method = Method::kNaive;
      } else if (value == "apriori-scan") {
        options.method = Method::kAprioriScan;
      } else if (value == "apriori-index") {
        options.method = Method::kAprioriIndex;
      } else if (value == "suffix-sigma") {
        options.method = Method::kSuffixSigma;
      } else {
        return Usage();
      }
    } else if (ParseFlag(args[i], "tau", &value)) {
      if (!cli::ParseCount(value, &options.tau)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "sigma", &value)) {
      if (!cli::ParseCount(value, &options.sigma)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "mode", &value)) {
      if (value == "cf") {
        options.frequency_mode = FrequencyMode::kCollection;
      } else if (value == "df") {
        options.frequency_mode = FrequencyMode::kDocument;
      } else {
        return Usage();
      }
    } else if (ParseFlag(args[i], "reducers", &value)) {
      if (!cli::ParseCount(value, &options.num_reducers)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "slots", &value)) {
      if (!cli::ParseCount(value, &options.map_slots) ||
          options.map_slots > kMaxSlots) {
        return Usage();
      }
      options.reduce_slots = options.map_slots;
    } else if (ParseFlag(args[i], "sort-buffer-kb", &value)) {
      if (!cli::ParseKib(value, &options.sort_buffer_bytes)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "merge-factor", &value)) {
      if (!cli::ParseCount(value, &options.merge_factor)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "shuffle-slots", &value)) {
      if (!cli::ParseCount(value, &options.shuffle_slots) ||
          options.shuffle_slots > kMaxSlots) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "max-task-attempts", &value)) {
      if (!cli::ParseCount(value, &options.max_task_attempts)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "chaos-seed", &value)) {
      if (!cli::ParseCount(value, &chaos_seed)) {
        return Usage();
      }
      have_chaos_seed = true;
    } else if (args[i] == "--fetch-shuffle") {
      options.fetch_shuffle = true;
    } else if (ParseFlag(args[i], "shuffle-socket", &value)) {
      // Two-process mode: dial an external `serve-shuffle` server.
      options.fetch_shuffle = true;
      options.shuffle_server_address = value;
    } else if (args[i] == "--verbose") {
      verbose = true;
    } else if (args[i] == "--no-splits") {
      options.document_splits = false;
    } else if (args[i] == "--maximal") {
      filter = kMaximal;
    } else if (args[i] == "--closed") {
      filter = kClosed;
    } else {
      return Usage();
    }
  }

  // Chaos mode: derive one deterministic fault from the seed and route all
  // shuffle I/O through it. The env must outlive the run below.
  std::unique_ptr<mr::FaultEnv> chaos_env;
  if (have_chaos_seed) {
    chaos_env = std::make_unique<mr::FaultEnv>(
        mr::IoEnv::Default(), mr::FaultPlan::FromSeed(chaos_seed));
    options.io_env = chaos_env.get();
    printf("chaos: seed %llu -> %s\n",
           static_cast<unsigned long long>(chaos_seed),
           chaos_env->plan().ToString().c_str());
  }

  Corpus corpus;
  Status st = ReadCorpusBinary(in, &corpus);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const CorpusContext ctx = BuildCorpusContext(corpus);
  Result<NgramRun> run =
      filter == kMaximal  ? RunSuffixSigmaMaximal(ctx, options)
      : filter == kClosed ? RunSuffixSigmaClosed(ctx, options)
                          : ComputeNgramStatistics(ctx, options);
  if (chaos_env != nullptr) {
    printf("chaos: fault %s (%llu reads, %llu writes, %llu syncs, "
           "%llu renames)\n",
           chaos_env->fault_fired() ? "fired" : "did not fire",
           static_cast<unsigned long long>(chaos_env->reads_seen()),
           static_cast<unsigned long long>(chaos_env->writes_seen()),
           static_cast<unsigned long long>(chaos_env->syncs_seen()),
           static_cast<unsigned long long>(chaos_env->renames_seen()));
  }
  if (!run.ok()) {
    fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  run->stats.SortCanonical();
  st = WriteStatsBinary(run->stats, out);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  printf("%s: %llu n-grams (tau=%llu sigma=%u) in %.0f ms over %d job(s); "
         "%llu records / %llu bytes shuffled -> %s\n",
         MethodName(options.method),
         static_cast<unsigned long long>(run->stats.size()),
         static_cast<unsigned long long>(options.tau), options.sigma,
         run->metrics.total_wallclock_ms(), run->metrics.num_jobs(),
         static_cast<unsigned long long>(run->metrics.map_output_records()),
         static_cast<unsigned long long>(run->metrics.map_output_bytes()),
         out.c_str());
  if (verbose) {
    // Spill/merge observability: how much shuffle data hit disk and how
    // hard the bounded-fan-in merge had to work to read it back.
    const char* counter_names[] = {
        mr::kSpillFiles,          mr::kSpilledRecords,
        mr::kMergePasses,         mr::kIntermediateMergeBytes,
        mr::kMapMergePasses,      mr::kMapIntermediateMergeBytes,
        mr::kReduceMergePasses,   mr::kReduceIntermediateMergeBytes,
        mr::kEarlyMergePasses,    mr::kEarlyMergeBytes,
        mr::kBarrierWaitMs,       mr::kRunBytesRaw,
        mr::kRunBytesWritten,     mr::kCombineInputRecords,
        mr::kCombineOutputRecords, mr::kReduceInputRecords,
        mr::kTaskRetries,         mr::kMapReexecutions,
        mr::kCorruptRunsRecovered, mr::kShuffleFetchBytes,
        mr::kFetchRetries,        mr::kFetchWaitMs,
    };
    printf("  shuffle: sort-buffer=%llu KiB merge-factor=%u "
           "shuffle-slots=%u\n",
           static_cast<unsigned long long>(options.sort_buffer_bytes / 1024),
           options.merge_factor, options.shuffle_slots);
    for (const char* name : counter_names) {
      printf("  %-31s %llu\n", name,
             static_cast<unsigned long long>(
                 run->metrics.TotalCounter(name)));
    }
    const uint64_t raw = run->metrics.TotalCounter(mr::kRunBytesRaw);
    const uint64_t written = run->metrics.TotalCounter(mr::kRunBytesWritten);
    if (raw > 0) {
      printf("  run compression ratio: %.2fx (%.1f%% of raw)\n",
             written > 0 ? static_cast<double>(raw) / written : 0.0,
             100.0 * static_cast<double>(written) / raw);
    }
  }
  return 0;
}

int CmdTop(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  size_t k = 20;
  if (args.size() > 1 && !cli::ParseCount(args[1], &k)) {
    return Usage();
  }
  NgramStatistics stats;
  Status st = ReadStatsBinary(args[0], &stats);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::sort(stats.entries.begin(), stats.entries.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  printf("%llu n-grams total; top %zu:\n",
         static_cast<unsigned long long>(stats.size()), k);
  for (size_t i = 0; i < stats.entries.size() && i < k; ++i) {
    printf("%12llu  %s\n",
           static_cast<unsigned long long>(stats.entries[i].second),
           SequenceToDebugString(stats.entries[i].first).c_str());
  }
  return 0;
}

int CmdInfo(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  Corpus corpus;
  Status st = ReadCorpusBinary(args[0], &corpus);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  printf("%s", corpus.ComputeStats().ToString(args[0]).c_str());
  return 0;
}

int CmdBuildServing(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Usage();
  }
  const std::string in = args[0];
  const std::string dir = args[1];
  serve::BuildServingOptions options;
  for (size_t i = 2; i < args.size(); ++i) {
    std::string value;
    if (ParseFlag(args[i], "shards", &value)) {
      if (!cli::ParseCount(value, &options.num_shards)) {
        return Usage();
      }
    } else if (ParseFlag(args[i], "block-kb", &value)) {
      if (!cli::ParseKib(value, &options.block_bytes)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  NgramStatistics stats;
  Status st = ReadStatsBinary(in, &stats);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  st = serve::BuildServingShards(stats, dir, options);
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  printf("wrote %llu n-grams into %u shard(s) under %s\n",
         static_cast<unsigned long long>(stats.size()),
         static_cast<uint32_t>(
             std::min<uint64_t>(options.num_shards, stats.size())),
         dir.c_str());
  return 0;
}

// Set by the SIGINT/SIGTERM handler; the serve loop polls it.
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleStopSignal(int /*signum*/) { g_serve_stop = 1; }

int CmdServeShuffle(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Usage();
  }
  const std::string socket_path = args[0];
  net::SocketTransport transport;
  net::MapOutputServer::Options options;
  options.transport = &transport;
  options.address = socket_path;
  net::MapOutputServer server(options);
  Status st = server.Start();
  if (!st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  printf("serving shuffle on %s (SIGINT/SIGTERM stops)\n",
         socket_path.c_str());
  fflush(stdout);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  printf("serve-shuffle: %llu connection(s), %llu segment(s) served\n",
         static_cast<unsigned long long>(server.connections_accepted()),
         static_cast<unsigned long long>(server.segments_served()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "generate") {
    return CmdGenerate(args);
  }
  if (command == "stats") {
    return CmdStats(args);
  }
  if (command == "top") {
    return CmdTop(args);
  }
  if (command == "info") {
    return CmdInfo(args);
  }
  if (command == "build-serving") {
    return CmdBuildServing(args);
  }
  if (command == "serve-shuffle") {
    return CmdServeShuffle(args);
  }
  return Usage();
}
