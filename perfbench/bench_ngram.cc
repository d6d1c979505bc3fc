// bench_ngram: the repository's one benchmark driver. Each invocation runs
// one workload in its own process, generated from --seed, and prints every
// metric by name with its unit; the last stdout line is the result record
// {"correct", "attempted", "failed", "metrics"}.
//
//   bench_ngram --workload inmem-nyt --seed 1 --seconds 10 --work-dir DIR
//               [--trace-file FILE] [--expect-digest HEX] [--git-sha SHA]
//   bench_ngram --self-check --work-dir DIR
//
// Without --trace-file the run is the timed pass and reports end-to-end
// metrics; with it, the traced pass reruns the workload through the
// decorators in trace.h, writes a Chrome trace to FILE and reports the
// per-layer metrics. --self-check runs all five workloads, both passes, at
// 1/8 scale and checks each against BruteForceCounts.
//
// perfbench/run.py builds this binary and is the interface to use.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "util/logging.h"

namespace ngram::bench {
namespace {

const char* const kWorkloads[] = {"inmem-nyt", "spill-cw", "fetch-nyt",
                                  "serve-hot", "serve-churn"};

int Usage() {
  fprintf(stderr,
          "usage: bench_ngram --workload NAME --seed N --seconds S "
          "--work-dir DIR\n"
          "                   [--trace-file FILE] [--expect-digest HEX] "
          "[--git-sha SHA]\n"
          "       bench_ngram --self-check --work-dir DIR\n"
          "workloads: inmem-nyt spill-cw fetch-nyt serve-hot serve-churn\n");
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

Outcome RunWorkload(const RunConfig& config) {
  return IsBatchWorkload(config.workload) ? RunBatchWorkload(config)
                                          : RunServeWorkload(config);
}

void PrintProvenance(const RunConfig& config, const Outcome& outcome,
                     const std::string& git_sha) {
  std::string out = "{\"provenance\": {\"workload\": " +
                    JsonString(config.workload) +
                    ", \"seed\": " + std::to_string(config.seed) +
                    ", \"seconds\": " + std::to_string(config.seconds) +
                    ", \"trace\": " + (config.trace ? "true" : "false") +
                    ", \"git_sha\": " + JsonString(git_sha) +
                    ", \"nproc\": " + std::to_string(HardwareThreads()) +
                    ", \"cpu_model\": " + JsonString(CpuModel()) +
                    ", \"compiler\": " + JsonString(__VERSION__) +
                    ", \"build_type\": " +
                    JsonString(NGRAM_BENCH_BUILD_TYPE) +
                    ", \"page_cache\": \"warm\"";
  for (const auto& [key, value] : outcome.info) {
    out += ", " + JsonString(key) + ": " + JsonString(value);
  }
  out += ", \"violations\": [";
  for (size_t i = 0; i < outcome.violations.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(outcome.violations[i]);
  }
  printf("%s]}}\n", out.c_str());
}

void PrintResult(const Outcome& outcome) {
  for (const Metric& m : outcome.metrics) {
    fprintf(stderr, "bench_ngram: %-28s %16.6f %s\n", m.name.c_str(), m.value,
            m.unit.c_str());
  }
  std::string out = std::string("{\"correct\": ") +
                    (outcome.violations.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(outcome.attempted) +
                    ", \"failed\": " + std::to_string(outcome.failed) +
                    ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
           value + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  printf("%s}}\n", out.c_str());
  fflush(stdout);
}

int SelfCheck(const RunConfig& base) {
  int failures = 0;
  for (const char* workload : kWorkloads) {
    for (const bool trace : {false, true}) {
      RunConfig config = base;
      config.workload = workload;
      config.scale = 1.0 / 8;
      config.seconds = 2;
      config.oracle = true;
      config.trace = trace;
      config.work_dir = base.work_dir + "/" + workload;
      config.trace_file = base.work_dir + "/self-check-trace.json";
      const Outcome outcome = RunWorkload(config);
      const bool ok = outcome.violations.empty() && outcome.attempted > 0;
      fprintf(stderr, "self-check %-12s %-7s %s (%llu operations)\n",
              workload, trace ? "traced" : "timed", ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(outcome.attempted));
      failures += ok ? 0 : 1;
    }
  }
  std::error_code ec;
  std::filesystem::remove(base.work_dir + "/self-check-trace.json", ec);
  printf("self-check: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  fprintf(stderr,
          "bench_ngram: refusing to measure a build without NDEBUG; "
          "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  RunConfig config;
  std::string git_sha = "unknown";
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--work-dir" && has_value) {
      config.work_dir = argv[++i];
    } else if (arg == "--trace-file" && has_value) {
      config.trace = true;
      config.trace_file = argv[++i];
    } else if (arg == "--expect-digest" && has_value) {
      config.expect_digest = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else {
      return Usage();
    }
  }
  if (config.work_dir.empty()) {
    return Usage();
  }
  // The library logs warnings (early-shuffle fallbacks and the like) to
  // stderr; they would also count as unattributed writes in the traced
  // pass's KV accounting.
  SetLogLevel(LogLevel::kError);
  if (self_check) {
    return SelfCheck(config);
  }
  if (!IsBatchWorkload(config.workload) && !IsServeWorkload(config.workload)) {
    return Usage();
  }
  if (config.seconds <= 0) {
    return Usage();
  }
  const Outcome outcome = RunWorkload(config);
  PrintProvenance(config, outcome, git_sha);
  PrintResult(outcome);
  return outcome.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ngram::bench

int main(int argc, char** argv) { return ngram::bench::Main(argc, argv); }
