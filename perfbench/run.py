#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out <record.json>] [--clients <n>]

Run from the repository root. The first run configures and builds the measuring
program (perfbench/CMakeLists.txt) into .bench_build/perfbench; later runs only
re-check that build. With --trace 0, a set-up-only process first sets the
workload up 31 times, and setup_s is the median; --trace 1 reports no setup_s
and skips that process.

Standard output ends with one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1. `attempted`/`failed` count output checks. The line
before it is "# record: {...}", the full self-describing record (host facts,
seed, client count, phase counts); --out also writes that record to a file,
which is what compare.py reads. --clients sets the client count of --trace 1
(default nproc - 1, and 1 on kv-snapshot; see perfbench/README.md).

Exit status is non-zero, with no result line, when the program cannot be
built or run, or when the benchmark's own count reconciliation fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
PROGRAM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "tm", "variants.h")):
        raise BenchError("no SpecTM sources under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))


def run_program(args, timeout):
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise BenchError("perfbench %s exited with %d" % (" ".join(args), done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def source_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(opts, bench):
    build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed), "--trace", str(opts.trace)]
    setup = None if opts.trace else run_program(common + ["--setup-only"], PROGRAM_TIMEOUT_S)
    args = common + ["--seconds", str(opts.seconds)]
    if opts.clients:
        args += ["--clients", str(opts.clients)]
    if opts.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(trace_dir, "%s-seed%d.csv" % (opts.workload, opts.seed))]
    record = run_program(args, PROGRAM_TIMEOUT_S)
    if record["reconcile_errors"]:
        raise BenchError("count reconciliation failed: %s" % "; ".join(record["reconcile_errors"]))

    measured = dict(record["end_to_end"] if not opts.trace else record["per_layer"])
    if not opts.trace:
        measured["setup_s"] = setup["setup_s"]
    wanted = bench["per_layer"] if opts.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError("program did not report %s" % missing)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {
        "correct": record["failures"] == 0,
        "attempted": record["checks"],
        "failed": record["failures"],
        "metrics": metrics,
    }
    record["host"]["git_commit"] = source_commit()
    if setup:
        record["setup_runs_s"] = setup["setup_runs_s"]
    record["result"] = result
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full record to this file")
    parser.add_argument("--clients", type=int, help="clients of the --trace 1 run")
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    if opts.clients is not None and opts.clients < 1:
        parser.error("--clients must be at least 1")
    try:
        record, result = measure(opts, load_benchmark())
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print("# record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
