#!/usr/bin/env python3
"""Show how steady the benchmark is.

Runs each workload `--runs` times with seeds 1 to `--runs`,
alternating the workloads (closure, sets, query, serve, closure, ...),
using the command in BENCHMARK.json. Prints, per workload and metric,
the median, the quartiles and the interquartile range as a share of the
median (as `statistics.quantiles(values, n=4)` gives them), next to the
metric's bound, and the share of failed operations of every run.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --runs 5 --workloads query --trace 1

Run it from the repository root. Exits 1 if a run fails, or if the
share of failed operations differs between runs of one workload.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = p.parse_args()
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(a.runs):
        for w in workloads:
            r = run(spec["command"], w, i + 1, a.seconds, a.trace)
            results[w].append(r)
            print(f"run {i + 1}/{a.runs} {w} seed {i + 1}: "
                  f"attempted {r['attempted']} failed {r['failed']}", file=sys.stderr)

    ok = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share "
              + ", ".join(f"{s:.6f}" for s in sorted(shares)))
        if len(shares) > 1:
            ok = False
            print("  failed share differs between runs")
        print(f"| {'metric':<26} | {'median':>12} | {'q1':>12} | {'q3':>12} | iqr/med | bound |")
        print(f"|{'-' * 28}|{'-' * 14}|{'-' * 14}|{'-' * 14}|---------|-------|")
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(m)
            flag = ""
            if bound is not None and m != "setup_s" and spread > bound / 3:
                flag = "  above a third of its bound"
            print(f"| {m:<26} | {med:>12.6g} | {q1:>12.6g} | {q3:>12.6g} | {spread:>7.1%} "
                  f"| {'' if bound is None else bound:>5} |{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
