#!/usr/bin/env python3
"""Builds bench_ngram from source and runs one workload of the benchmark.

    python3 perfbench/run.py --workload inmem-nyt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset; scratch files go to .bench_run and traces to
.bench_traces. The last line of standard output is the result record
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
--out FILE also appends {"provenance", "result"} to FILE as one JSON line,
which is what perfbench/run.sh and perfbench/compare_runs.py consume.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_ngram; returns its path or None."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "--target", "bench_ngram", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    binary = os.path.join(build_dir, "bench_ngram")
    return binary if os.path.exists(binary) else None


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_trace(path):
    """The trace must parse and hold nested complete events; '' when it does."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"trace {path} does not parse: {e}"
    by_id = {e["args"]["span_id"]: e for e in events}
    for e in events:
        parent = by_id.get(e["args"]["parent_id"])
        if e["args"]["parent_id"] and parent is None:
            return f"trace span {e['args']['span_id']} has no parent"
        if parent and (e["ts"] < parent["ts"] - 1e-3 or
                       e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + 1e-3):
            return f"trace span {e['args']['span_id']} is not inside its parent"
    return ""


def finish(result, spec, trace):
    """Checks the metrics against BENCHMARK.json; per-layer metrics of a layer
    the workload leaves idle are 0. Returns a list of problems."""
    problems = []
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for name in sorted(set(metrics) - {m["name"] for m in listed}):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    complete = {}
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                problems.append(f"end-to-end metric {m['name']} missing")
                continue
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        if not math.isfinite(got["value"]) or (not trace and got["value"] <= 0):
            problems.append(f"{m['name']} = {got['value']}")
        complete[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result["metrics"] = complete
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append provenance and result to this JSONL file")
    parser.add_argument("--self-check", action="store_true",
                        help="all workloads at 1/8 scale against the brute-force oracle")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_check and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    scratch = os.path.join(ROOT, ".bench_run", f"{args.workload or 'self-check'}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    command = [binary, "--work-dir", scratch]
    trace_file = None
    if args.self_check:
        command.append("--self-check")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--git-sha", git_sha()]
        digest = load_json(os.path.join(HERE, "digests.json")).get(args.workload, {}).get(str(args.seed))
        if digest:
            command += ["--expect-digest", digest]
        if args.trace:
            os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
            trace_file = os.path.join(ROOT, ".bench_traces", f"{args.workload}-s{args.seed}.json")
            command += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench_ngram exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if args.self_check:
        print("\n".join(lines))
        return proc.returncode
    if len(lines) < 2:
        log(f"bench_ngram exited {proc.returncode} without a result")
        return 1
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    problems = finish(result, spec, bool(args.trace))
    if trace_file:
        problems += [p for p in [check_trace(trace_file)] if p]
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    if problems:
        result["correct"] = False
    for name, m in result["metrics"].items():
        print(f"{args.workload:<12} {name:<28} {m['value']:>16.6f} {m['unit']}")
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
