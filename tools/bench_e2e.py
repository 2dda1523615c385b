#!/usr/bin/env python3
"""End-to-end run of every paper bench: wall time, peak RSS, stdout hash.

    python3 tools/bench_e2e.py [--build build] [--threads N] [--out FILE.json]
    python3 tools/bench_e2e.py --compare A.json B.json

The first form runs each bench binary in <build>/bench/ (except the
micro-benchmarks micro_units and micro_gemm and the serve_loadgen load
generator) at its default arguments plus --threads=N, each run in a fresh
temporary working directory, and writes one JSON document (stdout when
--out is not given). Per bench it records the wall seconds and peak RSS of
the first run, the sha256 of its stdout, one short hash per stdout line,
and the indices of the lines whose text changed between the RUNS runs of
this build (timings and similar run-to-run noise). Peak RSS is the child's
ru_maxrss as returned by os.wait4, the per-child form of
getrusage(RUSAGE_CHILDREN), so no external time(1) is needed.

--compare masks the lines either file marks as varying and prints the benches
whose remaining stdout differs, one per line; it exits 1 if there are any,
0 otherwise. The ISA the benches ran at follows IHW_FORCE_ISA as usual.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

EXCLUDED = {"micro_units", "micro_gemm", "serve_loadgen"}
RUNS = 2          # runs per bench; lines that change between them are masked
TIMEOUT_S = 900   # seconds allowed per bench run; past it the run is killed


def line_hash(line):
    return hashlib.sha256(line).hexdigest()[:16]


def run_bench(path, threads):
    """Runs one bench in a fresh temp cwd; returns (stdout, wall_s, rss_kb, rc).

    stdout is read to EOF before the child is reaped with os.wait4, which is
    what yields that child's own resource usage. A run past TIMEOUT_S is
    killed and reported with a negative exit code.
    """
    with tempfile.TemporaryDirectory(prefix="bench_e2e_") as cwd:
        t0 = time.monotonic()
        proc = subprocess.Popen([path, f"--threads={threads}"], cwd=cwd,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out, wall, usage.ru_maxrss, proc.returncode


def build_type(build):
    """CMAKE_BUILD_TYPE cached in the build tree; "" when it was not set on
    the command line (CMakeLists.txt then picks its own default)."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def measure(args):
    bench_dir = os.path.join(args.build, "bench")
    names = sorted(n for n in os.listdir(bench_dir)
                   if n not in EXCLUDED
                   and os.access(os.path.join(bench_dir, n), os.X_OK)
                   and os.path.isfile(os.path.join(bench_dir, n)))
    if not names:
        raise SystemExit(f"bench_e2e: no bench binaries in {bench_dir}")
    benches = {}
    for name in names:
        path = os.path.abspath(os.path.join(bench_dir, name))
        runs = [run_bench(path, args.threads) for _ in range(RUNS)]
        out, wall, rss_kb, rc = runs[0]
        lines = out.splitlines()
        varying = set()
        for other, *_ in runs[1:]:
            olines = other.splitlines()
            if len(olines) != len(lines):
                varying.update(range(len(lines)))
            else:
                varying.update(i for i, (x, y) in enumerate(zip(lines, olines))
                               if x != y)
        benches[name] = {
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss_kb / 1024.0, 1),
            "exit_code": rc,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "line_sha256": [line_hash(x) for x in lines],
            "varying_lines": sorted(varying),
        }
        print(f"bench_e2e: {name}: {wall:.2f} s, {rss_kb / 1024.0:.1f} MiB,"
              f" exit {rc}, {len(varying)} varying lines", file=sys.stderr)
    doc = {
        "build_type": build_type(args.build),
        "threads": args.threads,
        "isa": os.environ.get("IHW_FORCE_ISA", "default"),
        "runs": RUNS,
        "total_wall_s": round(sum(b["wall_s"] for b in benches.values()), 3),
        "benches": benches,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 1 if any(b["exit_code"] != 0 for b in benches.values()) else 0


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)["benches"]
    with open(path_b) as f:
        b = json.load(f)["benches"]
    differ = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            differ.append(f"{name} (only in {path_a if name in a else path_b})")
            continue
        la, lb = a[name]["line_sha256"], b[name]["line_sha256"]
        mask = set(a[name]["varying_lines"]) | set(b[name]["varying_lines"])
        if len(la) != len(lb) or any(x != y for i, (x, y) in enumerate(zip(la, lb))
                                     if i not in mask):
            differ.append(name)
    for name in differ:
        print(name)
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
