#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent vs change), stdlib only.

    python3 perfbench/compare.py --parent <files or dirs> --change <files or dirs>
                                 [--benchmark BENCHMARK.json]

Inputs are result records: files written by `run.py --out`, or captured run.py
standard output (the "# record: {...}" line is used). A directory stands for
every *.json / *.txt file in it. Runs are paired by seed where both sides have
it, otherwise in file order.

For every (workload, metric) pair the tool prints each side's median and
quartiles (statistics.quantiles, n=4), the number of pairs the change won (ties
count for neither side), and, for end-to-end metrics, a verdict under the
metric's bound from BENCHMARK.json:

  unresolved  one side's quartile spread, as a share of its median, exceeds the
              bound, and not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more than the
              bound
  improved    the change won at least 9/10 of the pairs and the medians differ
              by more than the parent's quartile spread
  same        none of the above: no change beyond the bound

Per-layer metrics have no bound and get no verdict. Exit status is 1 when any
end-to-end metric regressed, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def expand(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(glob.glob(os.path.join(p, "*.json")) +
                            glob.glob(os.path.join(p, "*.txt")))
        else:
            files.append(p)
    return files


def load_record(path):
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    for line in text.splitlines():
        if line.startswith("# record: "):
            return json.loads(line[len("# record: "):])
    raise ValueError("%s: no result record" % path)


def group(paths):
    """{(workload, trace): [(seed, {metric: value})]} in file order."""
    runs = {}
    for path in expand(paths):
        rec = load_record(path)
        values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), []).append((rec["seed"], values))
    return runs


def pairs(parent, change):
    by_seed = {seed: vals for seed, vals in parent}
    if all(seed in by_seed for seed, _ in change) and len(by_seed) == len(parent):
        return [(by_seed[seed], vals) for seed, vals in change]
    return list(zip((v for _, v in parent), (v for _, v in change)))


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, metric):
    """Verdict for paired runs (parent[i] pairs with change[i])."""
    direction, bound = metric["better"], metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else float("inf")

    if max(spread(p_q1, p_med, p_q3), spread(c_q1, c_med, c_q3)) > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "improved"
        return "unresolved"
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if p_med and worse / abs(p_med) > bound:
        return "regressed"
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    if (wins >= 0.9 * len(parent) and better(c_med, p_med, direction)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    return "same"


def compare(parent_runs, change_runs, bench):
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    regressed = False
    lines = []
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        paired = pairs(parent_runs[key], change_runs[key])
        lines.append("== %s (%s, %d pairs)" % (workload, "per-layer" if trace else "end-to-end",
                                               len(paired)))
        lines.append("%-42s %12s %12s %12s  %12s %12s %12s  %5s  %s" % (
            "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "wins",
            "verdict"))
        for name in sorted(paired[0][0]):
            if name not in directions or not all(name in c for _, c in paired):
                continue
            p_vals = [p[name] for p, _ in paired]
            c_vals = [c[name] for _, c in paired]
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            wins = sum(1 for p, c in zip(p_vals, c_vals) if better(c, p, directions[name]))
            text = verdict(p_vals, c_vals, end_to_end[name]) if name in end_to_end else "-"
            regressed = regressed or text == "regressed"
            lines.append("%-42s %12.6g %12.6g %12.6g  %12.6g %12.6g %12.6g  %2d/%-2d  %s" % (
                name, p_q1, p_med, p_q3, c_q1, c_med, c_q3, wins, len(paired), text))
    return lines, regressed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    opts = parser.parse_args(argv)
    with open(opts.benchmark) as f:
        bench = json.load(f)
    lines, regressed = compare(group(opts.parent), group(opts.change), bench)
    if not lines:
        print("no (workload, mode) present on both sides", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
