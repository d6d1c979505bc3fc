// Per-job and per-run measurements: wallclock plus Hadoop-style counters.
// These back the paper's three reported measures (Section VII-A): wallclock
// time, bytes transferred (MAP_OUTPUT_BYTES), and number of records
// (MAP_OUTPUT_RECORDS), aggregated over all jobs of a method run.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mapreduce/counters.h"

namespace ngram::mr {

/// Measurements for one MapReduce job.
struct JobMetrics {
  std::string job_name;
  double wallclock_ms = 0;
  double map_phase_ms = 0;
  double reduce_phase_ms = 0;
  std::map<std::string, uint64_t> counters;

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Per-round accounting for a chained (multi-job) pipeline: every round's
/// wallclock split plus its boundary traffic — the serialized bytes its
/// mappers read (for round k+1 this is exactly round k's output, i.e. the
/// job-boundary cost) and the bytes it shuffled. Built from RunMetrics so
/// multi-job drivers report every round, not just the last job's counters.
struct PipelineMetrics {
  struct Round {
    std::string job_name;
    double wallclock_ms = 0;
    double map_phase_ms = 0;
    double reduce_phase_ms = 0;
    uint64_t map_input_records = 0;
    uint64_t map_input_bytes = 0;   // Job-boundary bytes read by mappers.
    uint64_t map_output_records = 0;
    uint64_t map_output_bytes = 0;  // Shuffle bytes.
    uint64_t reduce_output_records = 0;
    // Spill/merge I/O, broken out per phase: what this round's map tasks
    // spilled, what the map-side final merges re-spilled, and what the
    // reduce-side intermediate passes re-spilled (the job-level
    // MERGE_PASSES / INTERMEDIATE_MERGE_BYTES split by phase).
    uint64_t spill_files = 0;
    uint64_t spilled_records = 0;
    uint64_t map_merge_passes = 0;
    uint64_t map_merge_bytes = 0;
    uint64_t reduce_merge_passes = 0;
    uint64_t reduce_merge_bytes = 0;
    // Early shuffle (shuffle_slots > 0): intermediate passes run before
    // the map barrier, and the post-barrier source-prep latency that
    // remained (summed over successful reduce attempts).
    uint64_t early_merge_passes = 0;
    uint64_t early_merge_bytes = 0;
    uint64_t barrier_wait_ms = 0;
    // Fetch shuffle (fetch_shuffle on): transport payload bytes pulled,
    // requests retried over fresh connections, and time map attempts
    // spent mirroring their output through the shuffle server.
    uint64_t shuffle_fetch_bytes = 0;
    uint64_t fetch_retries = 0;
    uint64_t fetch_wait_ms = 0;
    // At-rest run bytes: raw-framing equivalent vs actually written
    // (the block format's compression ratio for this round).
    uint64_t run_bytes_raw = 0;
    uint64_t run_bytes_written = 0;
  };

  std::vector<Round> rounds;

  int num_rounds() const { return static_cast<int>(rounds.size()); }

  uint64_t total_boundary_bytes() const {
    uint64_t total = 0;
    for (const auto& r : rounds) {
      total += r.map_input_bytes;
    }
    return total;
  }

  uint64_t total_shuffle_bytes() const {
    uint64_t total = 0;
    for (const auto& r : rounds) {
      total += r.map_output_bytes;
    }
    return total;
  }

  double total_wallclock_ms() const {
    double total = 0;
    for (const auto& r : rounds) {
      total += r.wallclock_ms;
    }
    return total;
  }

  /// One line per round, e.g. for the end-of-run driver log.
  std::string ToString() const {
    std::ostringstream out;
    for (size_t i = 0; i < rounds.size(); ++i) {
      const Round& r = rounds[i];
      out << "round " << i + 1 << "/" << rounds.size() << " '" << r.job_name
          << "': " << r.wallclock_ms << " ms (map " << r.map_phase_ms
          << " / reduce " << r.reduce_phase_ms << "), boundary-in "
          << r.map_input_bytes << " B, shuffle " << r.map_output_bytes
          << " B, out " << r.reduce_output_records << " records";
      if (r.spill_files > 0) {
        out << ", spilled " << r.spill_files << " runs / "
            << r.spilled_records << " records";
        if (r.run_bytes_raw > 0) {
          out << " (" << r.run_bytes_written << " B at rest / "
              << r.run_bytes_raw << " B raw)";
        }
      }
      if (r.map_merge_passes > 0 || r.reduce_merge_passes > 0) {
        out << ", re-spill map " << r.map_merge_bytes << " B in "
            << r.map_merge_passes << " pass(es) + reduce "
            << r.reduce_merge_bytes << " B in " << r.reduce_merge_passes
            << " pass(es)";
      }
      if (r.early_merge_passes > 0) {
        out << ", early-merged " << r.early_merge_bytes << " B in "
            << r.early_merge_passes << " eager pass(es), barrier wait "
            << r.barrier_wait_ms << " ms";
      }
      if (r.shuffle_fetch_bytes > 0 || r.fetch_retries > 0) {
        out << ", fetched " << r.shuffle_fetch_bytes
            << " B over transport (" << r.fetch_retries
            << " retried request(s), " << r.fetch_wait_ms
            << " ms fetch wait)";
      }
      if (i + 1 < rounds.size()) {
        out << "\n";
      }
    }
    return out.str();
  }
};

/// Aggregate over every job a method launched (the paper's measures sum
/// over all Hadoop jobs of APRIORI methods).
struct RunMetrics {
  std::vector<JobMetrics> jobs;

  void Add(JobMetrics m) { jobs.push_back(std::move(m)); }

  /// Per-round pipeline view of this run's jobs.
  PipelineMetrics pipeline() const {
    PipelineMetrics p;
    p.rounds.reserve(jobs.size());
    for (const auto& j : jobs) {
      PipelineMetrics::Round r;
      r.job_name = j.job_name;
      r.wallclock_ms = j.wallclock_ms;
      r.map_phase_ms = j.map_phase_ms;
      r.reduce_phase_ms = j.reduce_phase_ms;
      r.map_input_records = j.Counter(kMapInputRecords);
      r.map_input_bytes = j.Counter(kMapInputBytes);
      r.map_output_records = j.Counter(kMapOutputRecords);
      r.map_output_bytes = j.Counter(kMapOutputBytes);
      r.reduce_output_records = j.Counter(kReduceOutputRecords);
      r.spill_files = j.Counter(kSpillFiles);
      r.spilled_records = j.Counter(kSpilledRecords);
      r.map_merge_passes = j.Counter(kMapMergePasses);
      r.map_merge_bytes = j.Counter(kMapIntermediateMergeBytes);
      r.reduce_merge_passes = j.Counter(kReduceMergePasses);
      r.reduce_merge_bytes = j.Counter(kReduceIntermediateMergeBytes);
      r.early_merge_passes = j.Counter(kEarlyMergePasses);
      r.early_merge_bytes = j.Counter(kEarlyMergeBytes);
      r.barrier_wait_ms = j.Counter(kBarrierWaitMs);
      r.shuffle_fetch_bytes = j.Counter(kShuffleFetchBytes);
      r.fetch_retries = j.Counter(kFetchRetries);
      r.fetch_wait_ms = j.Counter(kFetchWaitMs);
      r.run_bytes_raw = j.Counter(kRunBytesRaw);
      r.run_bytes_written = j.Counter(kRunBytesWritten);
      p.rounds.push_back(std::move(r));
    }
    return p;
  }

  int num_jobs() const { return static_cast<int>(jobs.size()); }

  double total_wallclock_ms() const {
    double total = 0;
    for (const auto& j : jobs) {
      total += j.wallclock_ms;
    }
    return total;
  }

  double total_map_phase_ms() const {
    double total = 0;
    for (const auto& j : jobs) {
      total += j.map_phase_ms;
    }
    return total;
  }

  double total_reduce_phase_ms() const {
    double total = 0;
    for (const auto& j : jobs) {
      total += j.reduce_phase_ms;
    }
    return total;
  }

  uint64_t TotalCounter(const std::string& name) const {
    uint64_t total = 0;
    for (const auto& j : jobs) {
      total += j.Counter(name);
    }
    return total;
  }

  uint64_t map_output_records() const {
    return TotalCounter(kMapOutputRecords);
  }
  uint64_t map_output_bytes() const { return TotalCounter(kMapOutputBytes); }
};

}  // namespace ngram::mr
