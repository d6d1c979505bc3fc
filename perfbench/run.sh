#!/usr/bin/env bash
# The one command: runs every workload of the benchmark, prints every
# metric with its unit, and summarises the run-to-run spread.
#
#   bash perfbench/run.sh [--seeds "1 2 3"] [--seconds S] [--trace]
#                         [--out DIR] [--self-check]
#
# --seconds defaults to BENCHMARK.json's run_seconds. Each (seed, workload)
# pair is one timed-pass process; --trace adds a traced pass per pair
# (per-layer metrics, Chrome trace in .bench_traces/).
# Results are appended to DIR/results.jsonl (default
# .bench_results/<UTC timestamp>), the input of perfbench/compare_runs.py.
# Seeds are the outer loop so host drift spreads over every workload.
set -euo pipefail

cd "$(dirname "$0")/.."
spec() { python3 -c "import json; b = json.load(open('BENCHMARK.json')); print($1)"; }
seeds="1"
seconds=$(spec 'b["run_seconds"]')
trace=0
out=".bench_results/$(date -u +%Y%m%dT%H%M%SZ)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --self-check) exec python3 perfbench/run.py --self-check ;;
    *) echo "usage: $0 [--seeds \"1 2 3\"] [--seconds S] [--trace] [--out DIR] [--self-check]" >&2
       exit 2 ;;
  esac
done

workloads=$(spec '" ".join(w["name"] for w in b["workloads"])')
mkdir -p "$out"
status=0
for seed in $seeds; do
  for workload in $workloads; do
    passes="0"
    [[ $trace == 1 ]] && passes="0 1"
    for pass in $passes; do
      echo "== $workload seed $seed trace $pass"
      python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$pass" --out "$out/results.jsonl" \
        2>>"$out/stderr.log" | sed '$d' || status=1
    done
  done
done
grep -h "CHECK FAILED" "$out/stderr.log" || true
echo "== spread of the timed passes ($out/results.jsonl)"
python3 perfbench/compare_runs.py "$out/results.jsonl"
exit $status
