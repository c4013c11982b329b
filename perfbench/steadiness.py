#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1]

Runs the command in BENCHMARK.json (at the checkout root) --runs times per
workload and set, on every workload BENCHMARK.json names, each run with its
own seed (1, 2, ...), visiting the workloads round-robin so a noisy stretch
of time hits all of them alike.  For every
(workload, metric) pair it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the metric's bound:

    steady   spread below a third of the bound (the target)
    within   spread below the bound
    WIDE     spread at or above the bound

With --sets 2 the second set repeats the first with fresh seeds, the
"spread2" column gives its spread (which must stay within the bound too),
and the "drift" column gives how much worse the second median is than
the first, as a share of the first (negative = better); it must stay
within the bound for every metric, setup_s included.  The bounds in BENCHMARK.json
were chosen from this script's output; perfbench/NOTES.md records the runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(config, workload, seed):
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed,
                                                   done.stderr[-2000:]))
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("run reported failed operations (%s seed %d)"
                 % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_share(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    names = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]

    raw = {}  # raw[set][workload][metric] -> values
    for s in range(args.sets):
        per_set = raw.setdefault(s, {n: {} for n in names})
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for name in names:
                values = run_once(config, name, seed)
                for m in metrics:
                    per_set[name].setdefault(m["name"], []).append(
                        values[m["name"]])
                print("set %d run %d/%d %s seed %d done"
                      % (s + 1, i + 1, args.runs, name, seed),
                      file=sys.stderr, flush=True)

    header = "%-15s %-12s %14s %14s %14s %8s %6s %-7s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "status")
    if args.sets == 2:
        header += " %8s %8s" % ("spread2", "drift")
    print(header)
    for name in names:
        for m in metrics:
            first = raw[0][name][m["name"]]
            med, q1, q3, sp = spread(first)
            status = ("steady" if sp < m["bound"] / 3 else
                      "within" if sp < m["bound"] else "WIDE")
            line = "%-15s %-12s %14.6g %14.6g %14.6g %8.4f %6.3f %-7s" % (
                name, m["name"], med, q1, q3, sp, m["bound"], status)
            if args.sets == 2:
                med2, _, _, sp2 = spread(raw[1][name][m["name"]])
                drift = worse_share(m, med, med2)
                line += " %8.4f %+8.4f%s" % (
                    sp2, drift, "" if drift <= m["bound"] else " OVER")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
