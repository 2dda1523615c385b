#!/usr/bin/env python3
"""Self-test of the benchmark's output oracle.

    python3 perfbench/test_oracle.py

For every workload, a short run at seed 2 (whose digests golden.txt holds)
must report zero failed points, and a run with one output bit of one timed
point flipped (--corrupt-point) must report exactly that point as failed and
the result as incorrect. The traced run is checked the same way on one
workload. The per-layer names of layers.json must be those of BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def result(workload, trace=0, corrupt=None, seed=3):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace)]
    if corrupt is not None:
        cmd += ["--corrupt-point", str(corrupt)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            errors.append(what)

    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["metrics"]
    expect(list(layers) == [m["name"] for m in bench["per_layer"]],
           "layers.json names the per-layer metrics of BENCHMARK.json")

    # characterize is not an end-to-end workload, but every traced run makes
    # a pass of it, so its oracle is tested too.
    for w in [x["name"] for x in bench["workloads"]] + ["characterize"]:
        clean = result(w, seed=2)
        expect(clean["correct"] and clean["failed"] == 0,
               f"{w}: clean run has no failed point")
        names = {m["name"] for m in bench["end_to_end"]}
        expect(set(clean["metrics"]) == names,
               f"{w}: clean run reports exactly the end-to-end metrics")
        bad = result(w, corrupt=5)
        expect(not bad["correct"] and bad["failed"] == 1,
               f"{w}: one flipped output bit is one failed point")

    w = bench["workloads"][0]["name"]
    traced = result(w, trace=1)
    expect(traced["correct"] and traced["failed"] == 0,
           f"{w} traced: no failed point")
    expect(set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]},
           f"{w} traced: reports exactly the per-layer metrics")
    bad = result(w, trace=1, corrupt=5)
    expect(not bad["correct"] and bad["failed"] == 1,
           f"{w} traced: one flipped output bit is one failed point")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
