// Spill-heavy shuffle scenario: the fig6 corpora pushed through a sort
// buffer orders of magnitude smaller than the map output, so every map
// task spills dozens of runs. Sweeps JobConfig::merge_factor — mf=0 is
// the unbounded pre-bounded-merge baseline (every run opened at once),
// bounded values exercise the map-side final merge + reduce-side
// multi-pass merge. Reported counters show the trade: spills stay equal,
// intermediate_mb is the extra sequential I/O the bound costs, open
// sources per reduce task drop from `spills` to `merge_factor`.
//
// The RunBytes sweep measures the block run format in the same
// spill-heavy regime: run_ratio is RUN_BYTES_RAW / RUN_BYTES_WRITTEN (the
// at-rest shrink of every spill, map-side final merge, and reduce-side
// intermediate pass against the in-memory record framing). Scale it up
// with NGRAM_BENCH_NYT_DOCS / NGRAM_BENCH_CW_DOCS (BENCH_runfile.json
// records 4x fig6) — fewer intermediate bytes is exactly what shifts the
// page-cache crossover the bounded merge pays for.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.h"

namespace ngram::bench {
namespace {

void RegisterSpillSweep(const Dataset& dataset) {
  const Method methods[] = {Method::kNaive, Method::kSuffixSigma};
  // (merge_factor, shuffle_slots): the unbounded baseline, the bounded
  // merge, and the bounded merge with the early shuffle overlapping its
  // reduce-side passes with map execution (ov=1). The overlap row's
  // barrier_ms is the post-barrier merge latency left over — the eager
  // passes (early_passes) are what shrank it vs the ov=0 row.
  const std::pair<uint32_t, uint32_t> configs[] = {{0, 0}, {16, 0}, {16, 2}};
  for (Method method : methods) {
    for (const auto& [merge_factor, shuffle_slots] : configs) {
      const std::string name =
          std::string("SpillMerge/") + dataset.name + "/" +
          MethodName(method) + "/mf=" + std::to_string(merge_factor) +
          "/ov=" + std::to_string(shuffle_slots > 0 ? 1 : 0);
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [&dataset, method, merge_factor = merge_factor,
           shuffle_slots = shuffle_slots](::benchmark::State& state) {
            NgramJobOptions options =
                BenchOptions(method, dataset.default_tau, 5);
            // ~128 KiB of sort buffer against multi-MiB map output:
            // every task spills heavily (the fig6 corpora shuffle a few
            // hundred runs at this setting).
            options.sort_buffer_bytes = 128 << 10;
            options.merge_factor = merge_factor;
            options.shuffle_slots = shuffle_slots;
            const CorpusContext& ctx = dataset.context();
            for (auto _ : state) {
              auto run = ComputeNgramStatistics(ctx, options);
              if (!run.ok()) {
                state.SkipWithError(run.status().ToString().c_str());
                return;
              }
              state.SetIterationTime(run->metrics.total_wallclock_ms() /
                                     1000.0);
              state.counters["spills"] = static_cast<double>(
                  run->metrics.TotalCounter(mr::kSpillFiles));
              state.counters["merge_passes"] = static_cast<double>(
                  run->metrics.TotalCounter(mr::kMergePasses));
              state.counters["intermediate_mb"] =
                  static_cast<double>(run->metrics.TotalCounter(
                      mr::kIntermediateMergeBytes)) /
                  (1024.0 * 1024.0);
              state.counters["early_passes"] = static_cast<double>(
                  run->metrics.TotalCounter(mr::kEarlyMergePasses));
              state.counters["barrier_ms"] = static_cast<double>(
                  run->metrics.TotalCounter(mr::kBarrierWaitMs));
              state.counters["reduce_ms"] =
                  run->metrics.total_reduce_phase_ms();
              state.counters["map_ms"] = run->metrics.total_map_phase_ms();
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(::benchmark::kMillisecond);
    }
  }
}

void RegisterRunBytesSweep(const Dataset& dataset) {
  const Method methods[] = {Method::kNaive, Method::kSuffixSigma};
  for (Method method : methods) {
    const std::string name = std::string("RunBytes/") + dataset.name +
                             "/" + MethodName(method);
    ::benchmark::RegisterBenchmark(
        name.c_str(),
        [&dataset, method](::benchmark::State& state) {
          NgramJobOptions options =
              BenchOptions(method, dataset.default_tau, 5);
          options.sort_buffer_bytes = 128 << 10;  // Spill-heavy.
          options.merge_factor = 16;
          const CorpusContext& ctx = dataset.context();
          for (auto _ : state) {
            auto run = ComputeNgramStatistics(ctx, options);
            if (!run.ok()) {
              state.SkipWithError(run.status().ToString().c_str());
              return;
            }
            state.SetIterationTime(run->metrics.total_wallclock_ms() /
                                   1000.0);
            const double raw = static_cast<double>(
                run->metrics.TotalCounter(mr::kRunBytesRaw));
            const double written = static_cast<double>(
                run->metrics.TotalCounter(mr::kRunBytesWritten));
            state.counters["run_mb_raw"] = raw / (1024.0 * 1024.0);
            state.counters["run_mb_written"] =
                written / (1024.0 * 1024.0);
            state.counters["run_ratio"] =
                written > 0 ? raw / written : 0.0;
            state.counters["reduce_ms"] =
                run->metrics.total_reduce_phase_ms();
            state.counters["map_ms"] = run->metrics.total_map_phase_ms();
          }
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kMillisecond);
  }
}

// Fetch-shuffle column (docs/architecture.md section 10): the same
// spill-heavy regime with every shuffled byte pulled through the
// in-proc transport into clone run files (fetch=1) vs the direct
// shared-filesystem shuffle (fetch=0). fetch_mb is the wire volume;
// the wallclock delta is the serve+mirror cost the placement
// independence buys. Output is byte-identical across the column.
void RegisterFetchSweep(const Dataset& dataset) {
  const Method methods[] = {Method::kNaive, Method::kSuffixSigma};
  for (Method method : methods) {
    for (bool fetch : {false, true}) {
      const std::string name =
          std::string("FetchShuffle/") + dataset.name + "/" +
          MethodName(method) + "/fetch=" + (fetch ? "1" : "0");
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [&dataset, method, fetch](::benchmark::State& state) {
            NgramJobOptions options =
                BenchOptions(method, dataset.default_tau, 5);
            options.sort_buffer_bytes = 128 << 10;  // Spill-heavy.
            options.merge_factor = 16;
            options.fetch_shuffle = fetch;
            const CorpusContext& ctx = dataset.context();
            for (auto _ : state) {
              auto run = ComputeNgramStatistics(ctx, options);
              if (!run.ok()) {
                state.SkipWithError(run.status().ToString().c_str());
                return;
              }
              state.SetIterationTime(run->metrics.total_wallclock_ms() /
                                     1000.0);
              state.counters["fetch_mb"] =
                  static_cast<double>(run->metrics.TotalCounter(
                      mr::kShuffleFetchBytes)) /
                  (1024.0 * 1024.0);
              state.counters["fetch_retries"] = static_cast<double>(
                  run->metrics.TotalCounter(mr::kFetchRetries));
              state.counters["fetch_wait_ms"] = static_cast<double>(
                  run->metrics.TotalCounter(mr::kFetchWaitMs));
              state.counters["reduce_ms"] =
                  run->metrics.total_reduce_phase_ms();
              state.counters["map_ms"] = run->metrics.total_map_phase_ms();
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(::benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace ngram::bench

int main(int argc, char** argv) {
  using namespace ngram::bench;
  ::benchmark::Initialize(&argc, argv);
  RegisterSpillSweep(Nyt());
  RegisterSpillSweep(Cw());
  RegisterRunBytesSweep(Nyt());
  RegisterRunBytesSweep(Cw());
  RegisterFetchSweep(Nyt());
  RegisterFetchSweep(Cw());
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
