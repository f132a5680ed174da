#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two sets of runs of every workload, one seed per run (the second set
on the seeds after the first), alternating the order of the workloads
between runs. Prints for each set and end-to-end metric its median,
quartiles and spread (interquartile range over median), and how far the
second set's median moved from the first's in the worse direction.

The check passes under the rules the bounds in BENCHMARK.json are set
by: every run is correct; in each set every spread except that of
`setup_s` is within the metric's bound; no second median is worse than
the first by more than the bound; and failed operations are the same
share of attempted ones in every run. The `/3` column marks spreads
under a third of their bound, the margin aimed for.

Run from the repository root:

    python3 codesbench/steady.py --runs 10 --first-seed 1
    python3 codesbench/steady.py --runs 5 --workloads online-hot-writes
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def run_set(spec, workloads, runs, first_seed, label):
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    incorrect = []
    for i in range(runs):
        seed = first_seed + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, wall = run_once(spec["command"], w, seed, spec["run_seconds"])
            if not result["correct"]:
                incorrect.append((w, seed))
            shares[w].add(Fraction(result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"set {label} run {i + 1}/{runs} {w} seed {seed}: {wall:.1f}s wall, "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    return values, shares, incorrect


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = opts.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [run_set(spec, workloads, opts.runs, opts.first_seed + k * opts.runs, k + 1)
            for k in range(2)]

    steady = True
    print()
    print(f"{'workload':<18} {'metric':<16} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'/3':>3} {'worse':>7}")
    for w in workloads:
        for name, m in metrics.items():
            bound, first_median = m["bound"], None
            for k, (values, _, _) in enumerate(sets):
                med, q1, q3, spread = summary(values[w][name])
                worse = ""
                if first_median is None:
                    first_median = med
                else:
                    sign = 1 if m["better"] == "lower" else -1
                    drift = sign * (med - first_median) / abs(first_median)
                    worse = f"{drift:+.4f}"
                    if drift > bound:
                        worse += " FAIL"
                        steady = False
                flag = "yes" if spread < bound / 3 else "no"
                if spread > bound and name != "setup_s":
                    flag += " FAIL"
                    steady = False
                print(f"{w:<18} {name:<16} {k + 1:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.4f} {bound:>6} {flag:>3} {worse:>7}")
        share = sorted(set().union(*(s[1][w] for s in sets)))
        print(f"{w:<18} failed share: {', '.join(str(s) for s in share)}")
        if len(share) > 1:
            steady = False
    incorrect = [x for s in sets for x in s[2]]
    if incorrect:
        print(f"incorrect runs: {incorrect}")
        steady = False
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
