#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady every metric is.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--trace 0|1]
                                    [--workloads a,b] [--first-seed 1]

Run i uses seed first_seed + i. For each metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. End-to-end metrics are compared with their bound from
BENCHMARK.json: "ok" when the spread is within a third of the bound,
"wide" when it is within the bound, "unresolved" when it exceeds it.
Per-layer metrics have no bound. Exits 1 if any run failed a point.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    bad = False
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        failed = attempted = 0
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, args.seconds,
                           args.trace)
            attempted += res["attempted"]
            failed += res["failed"]
            bad = bad or res["failed"] > 0 or not res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload}: {args.runs} runs, {attempted} points, "
              f"{failed} failed")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  status")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound is None:
                status, btxt = "-", "-"
            else:
                btxt = f"{bound:.2f}"
                status = ("ok" if spread <= bound / 3 else
                          "wide" if spread <= bound else "unresolved")
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {btxt:>6}  {status} {units[name]}")
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
