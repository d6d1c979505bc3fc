// Shared declarations of the bench_ngram driver: the run configuration the
// command line fills in, the outcome every workload reports, and the
// measurement helpers the workloads share.
//
// Every timing here is taken from the bench side, around the library's
// public entry points, with std::chrono::steady_clock; nothing inside
// src/ is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "text/corpus.h"

namespace ngram::bench {

/// What the command line selects for one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10;
  /// Traced pass: decorators on, per-layer metrics out, trace file written.
  bool trace = false;
  std::string trace_file;
  /// Scratch root for run files, KV stores, serving shards and the shuffle
  /// socket. Created if missing; left empty on exit.
  std::string work_dir;
  /// Multiplier on every workload's document count (1/8 in --self-check).
  double scale = 1.0;
  /// Also check every method run against BruteForceCounts (self-check).
  bool oracle = false;
  /// Digest the default seed must reproduce (hex); empty = none recorded.
  std::string expect_digest;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. An operation is a method run, a query
/// or a reload; `failed` counts operations that errored or answered
/// wrongly. `violations` holds every failed check, operation or not.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  /// Provenance extras (document count, digest) for the result record.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Violation(std::string what);
  /// Counts one attempted operation; records `what` as a failure when
  /// non-empty.
  void Operation(const std::string& what);
};

Outcome RunBatchWorkload(const RunConfig& config);
Outcome RunServeWorkload(const RunConfig& config);
bool IsBatchWorkload(const std::string& name);
bool IsServeWorkload(const std::string& name);

// ----------------------------------------------------------- measuring --

/// Seconds on the steady clock since an arbitrary process-wide origin.
double NowSeconds();
/// User + system CPU seconds of the whole process (every thread).
double CpuSeconds();
/// Peak resident set size of the process so far, in MB (10^6 bytes).
double PeakRssMb();
/// Bytes this process has passed to write-family syscalls
/// (/proc/self/io wchar); 0 where the file is unreadable.
uint64_t WrittenBytes();

double Median(std::vector<double> values);
/// The value at quantile `q` (0..1) of `sorted`, nearest rank.
double Quantile(const std::vector<double>& sorted, double q);

/// CRC-32 over the canonically sorted (n-gram, frequency) table, as hex.
/// Equal digests mean byte-identical method output.
std::string StatsDigest(NgramStatistics stats);

/// Independent spot check of `stats` against direct enumeration over the
/// corpus: a seeded sample of output n-grams must carry their true
/// frequency, and a seeded sample of n-grams occurring in the corpus must
/// be present exactly when their frequency reaches tau. Returns an empty
/// string when every probe agrees, else the first disagreement.
std::string SpotCheck(const Corpus& corpus, const NgramStatistics& stats,
                      uint64_t tau, uint32_t sigma, uint64_t seed);

// The shared host this runs on changes speed by tens of percent over
// minutes, and every timing follows it. So each timed step is paired with
// a probe taken just before it: a fixed kernel of the bench's own (a sort
// and hash-table inserts, no library code) run on as many threads as the
// step keeps busy. End-to-end timings are reported in reference seconds,
// the time the step would take on a host where the probe takes
// kProbeReferenceSeconds (about what it takes on the quiet 4-core
// reference box).
constexpr double kProbeReferenceSeconds = 0.025;

/// Wall seconds of the probe kernel run on `threads` threads at once.
double HostProbeSeconds(unsigned threads);

/// `seconds` measured next to a probe that took `probe_seconds`, in
/// reference seconds.
inline double ReferenceSeconds(double seconds, double probe_seconds) {
  return seconds * kProbeReferenceSeconds / probe_seconds;
}

/// Logical processors available to this process.
unsigned HardwareThreads();
/// Warns on stderr when a workload's planned threads exceed the host's.
void WarnIfOversubscribed(const std::string& what, unsigned threads);

}  // namespace ngram::bench
