#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "util/crc32.h"
#include "util/random.h"

namespace ngram::bench {

void Outcome::Violation(std::string what) {
  fprintf(stderr, "bench_ngram: CHECK FAILED: %s\n", what.c_str());
  violations.push_back(std::move(what));
}

void Outcome::Operation(const std::string& what) {
  ++attempted;
  if (!what.empty()) {
    ++failed;
    Violation(what);
  }
}

bool IsBatchWorkload(const std::string& name) {
  return name == "inmem-nyt" || name == "spill-cw" || name == "fetch-nyt";
}

bool IsServeWorkload(const std::string& name) {
  return name == "serve-hot" || name == "serve-churn";
}

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB.
}

uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(q * static_cast<double>(
                                                     sorted.size())));
  return sorted[index];
}

std::string StatsDigest(NgramStatistics stats) {
  stats.SortCanonical();
  uint32_t crc = 0;
  std::string buffer;
  for (const auto& [seq, frequency] : stats.entries) {
    buffer.clear();
    const uint32_t length = static_cast<uint32_t>(seq.size());
    buffer.append(reinterpret_cast<const char*>(&length), sizeof(length));
    buffer.append(reinterpret_cast<const char*>(seq.data()),
                  seq.size() * sizeof(TermId));
    buffer.append(reinterpret_cast<const char*>(&frequency),
                  sizeof(frequency));
    crc = Crc32(crc, buffer.data(), buffer.size());
  }
  char hex[16];
  snprintf(hex, sizeof(hex), "%08x", crc);
  return hex;
}

std::string SpotCheck(const Corpus& corpus, const NgramStatistics& stats,
                      uint64_t tau, uint32_t sigma, uint64_t seed) {
  constexpr int kProbesPerSide = 64;
  NgramStatistics sorted = stats;
  sorted.SortCanonical();
  Rng rng(seed ^ 0x5eed5eedULL);

  std::vector<TermSequence> probes;
  for (int i = 0; i < kProbesPerSide && !sorted.entries.empty(); ++i) {
    probes.push_back(sorted.entries[rng.Uniform(sorted.entries.size())].first);
  }
  for (int i = 0; i < kProbesPerSide * 8 &&
                  probes.size() < 2 * kProbesPerSide && !corpus.docs.empty();
       ++i) {
    const Document& doc = corpus.docs[rng.Uniform(corpus.docs.size())];
    if (doc.sentences.empty()) {
      continue;
    }
    const TermSequence& sentence =
        doc.sentences[rng.Uniform(doc.sentences.size())];
    if (sentence.empty()) {
      continue;
    }
    const size_t begin = rng.Uniform(sentence.size());
    const size_t max_len = std::min<size_t>(
        sigma == 0 ? sentence.size() : sigma, sentence.size() - begin);
    const size_t len = 1 + rng.Uniform(max_len);
    probes.emplace_back(sentence.begin() + begin,
                        sentence.begin() + begin + len);
  }

  // One pass over the corpus counts every probe, indexed by first term.
  std::unordered_map<TermId, std::vector<size_t>> by_first;
  for (size_t p = 0; p < probes.size(); ++p) {
    by_first[probes[p].front()].push_back(p);
  }
  std::vector<uint64_t> counted(probes.size(), 0);
  for (const Document& doc : corpus.docs) {
    for (const TermSequence& sentence : doc.sentences) {
      for (size_t i = 0; i < sentence.size(); ++i) {
        auto it = by_first.find(sentence[i]);
        if (it == by_first.end()) {
          continue;
        }
        for (size_t p : it->second) {
          const TermSequence& probe = probes[p];
          if (i + probe.size() <= sentence.size() &&
              std::equal(probe.begin(), probe.end(), sentence.begin() + i)) {
            ++counted[p];
          }
        }
      }
    }
  }

  for (size_t p = 0; p < probes.size(); ++p) {
    const uint64_t reported = sorted.FrequencyOf(probes[p]);
    const uint64_t expected = counted[p] >= tau ? counted[p] : 0;
    if (reported != expected) {
      return "spot check: n-gram of length " +
             std::to_string(probes[p].size()) + " occurs " +
             std::to_string(counted[p]) + " times, output says " +
             std::to_string(reported) + " (tau " + std::to_string(tau) + ")";
    }
  }
  return "";
}

namespace {

/// The probe's fixed work: pseudo-random keys, a sort, and inserts into an
/// open-addressing hash table, repeated over a working set of 192 KiB a
/// thread, small enough that the probe neither depends on nor moves the
/// process's memory footprint.
uint64_t ProbeKernel() {
  constexpr size_t kKeys = 1 << 13;
  constexpr int kRepeats = 48;
  std::vector<uint64_t> keys(kKeys);
  std::vector<uint64_t> table(2 * kKeys);
  const uint64_t mask = table.size() - 1;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t sum = 0;
  for (int r = 0; r < kRepeats; ++r) {
    for (uint64_t& key : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      key = x;
    }
    std::sort(keys.begin(), keys.end());
    std::fill(table.begin(), table.end(), 0);
    for (const uint64_t key : keys) {
      const uint64_t k = (key >> 20) | 1;
      uint64_t slot = ((k * 0x9e3779b97f4a7c15ULL) >> 20) & mask;
      while (table[slot] != 0 && table[slot] != k) {
        slot = (slot + 1) & mask;
      }
      table[slot] = k;
      sum += slot;
    }
    sum += keys[kKeys / 2];
  }
  return sum;
}

}  // namespace

double HostProbeSeconds(unsigned threads) {
  static volatile uint64_t sink = 0;
  std::vector<uint64_t> results(std::max(1u, threads));
  const double t0 = NowSeconds();
  std::vector<std::thread> workers;
  for (size_t i = 1; i < results.size(); ++i) {
    workers.emplace_back([&results, i] { results[i] = ProbeKernel(); });
  }
  results[0] = ProbeKernel();
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double seconds = NowSeconds() - t0;
  for (const uint64_t result : results) {
    sink = sink + result;
  }
  return seconds;
}

unsigned HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void WarnIfOversubscribed(const std::string& what, unsigned threads) {
  if (threads > HardwareThreads()) {
    fprintf(stderr,
            "bench_ngram: WARNING: %s runs %u busy threads on %u logical "
            "processors; timings will include scheduler contention\n",
            what.c_str(), threads, HardwareThreads());
  }
}

}  // namespace ngram::bench
