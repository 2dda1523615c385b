#!/usr/bin/env python3
"""Checks that the tests kill every committed mutant of the source.

    python3 tools/run_mutants.py [--work DIR] [PATCH ...]

Each tests/mutants/*.patch (or each PATCH given) is a small diff that
`git apply` accepts against the current tree, headed by lines of the form

    Mutant: what the patch breaks
      (indented lines continue it)
    Kills: [VAR=value ...] <test target> [test arguments ...]

with one `Kills:` line per test run that must fail on the mutant. A test
target is a CMake target whose binary lands in <build>/tests/.

The runner copies the tracked and untracked-but-not-ignored files of the
repository into a scratch tree (a temporary directory, or --work), configures
one Release build there and first checks that every named test run passes
on the unmutated tree. Then, for each patch, it applies the patch, builds
only the named targets, runs each `Kills:` line and reverts the patch. A
mutant survives when any of its runs exits 0. The exit code is 0 when every
mutant is killed, 1 when one survives or a patch no longer applies, and 2
on a bad header, a failed build or an unmutated run that fails.
"""
import argparse
import glob
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900     # one test run; past it the run counts as failed
BUILD_TIMEOUT_S = 1800  # one configure or build step


def fail(msg, code=2):
    print(f"run_mutants: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_header(path):
    """Returns (description, [(env, target, args)]) from a patch header."""
    desc, kills = None, []
    with open(path) as f:
        for line in f:
            if line.startswith("diff --git"):
                break
            if line.startswith("Mutant:"):
                desc = line.split(":", 1)[1].strip()
            elif line.startswith(" ") and desc is not None and not kills:
                desc += " " + line.strip()
            elif line.startswith("Kills:"):
                words = shlex.split(line.split(":", 1)[1])
                env = {}
                while words and "=" in words[0]:
                    key, value = words.pop(0).split("=", 1)
                    env[key] = value
                if not words:
                    fail(f"{path}: a Kills: line names no test target")
                kills.append((env, words[0], words[1:]))
    if desc is None or not kills:
        fail(f"{path}: header needs a Mutant: line and at least one Kills:")
    return desc, kills


def copy_tree(dst):
    """Copies the files git tracks or would track into dst."""
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout.split(b"\0")
    for rel in (f.decode() for f in files if f):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):  # deleted in the working tree
            continue
        os.makedirs(os.path.dirname(os.path.join(dst, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dst, rel))


def step(cmd, cwd):
    """Runs a build step; prints its output and exits 2 if it fails."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(tree, targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", "build", "-j", jobs, "--target"] +
         sorted(set(targets)), tree)


def passes(tree, env, target, args):
    """True when the test run exits 0 within RUN_TIMEOUT_S."""
    cmd = [os.path.join(tree, "build", "tests", target)] + args
    try:
        proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **env},
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def label(env, target, args):
    return " ".join([f"{k}={v}" for k, v in env.items()] + [target] + args)


def git_apply(tree, patch, reverse=False):
    cmd = ["git", "apply"] + (["-R"] if reverse else []) + [patch]
    return subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("patches", nargs="*",
                    help="patches to check (default: tests/mutants/*.patch)")
    ap.add_argument("--work", help="scratch directory (default: a new "
                    "temporary directory)")
    args = ap.parse_args()

    patches = [os.path.abspath(p) for p in args.patches] or sorted(
        glob.glob(os.path.join(ROOT, "tests", "mutants", "*.patch")))
    if not patches:
        fail("no mutant patches found")
    mutants = [(p, *parse_header(p)) for p in patches]

    work = args.work or tempfile.mkdtemp(prefix="ihw_mutants_")
    tree = os.path.join(work, "tree")
    if os.path.exists(tree):
        fail(f"{tree} already exists")
    try:
        copy_tree(tree)
        # Its own repository, so that git apply resolves the patch paths
        # against the tree even when --work lies inside another checkout.
        step(["git", "init", "-q"], tree)
        step(["cmake", "-S", ".", "-B", "build",
              "-DCMAKE_BUILD_TYPE=Release"], tree)
        runs = [k for _, _, kills in mutants for k in kills]
        build(tree, [t for _, t, _ in runs])
        for env, target, targs in runs:
            if not passes(tree, env, target, targs):
                fail(f"unmutated tree fails: {label(env, target, targs)}")

        survivors = 0
        for patch, desc, kills in mutants:
            name = os.path.basename(patch)
            applied = git_apply(tree, patch)
            if applied.returncode != 0:
                print(f"STALE    {name}: does not apply\n{applied.stderr}")
                survivors += 1
                continue
            build(tree, [t for _, t, _ in kills])
            alive = [label(*k) for k in kills if passes(tree, *k)]
            if git_apply(tree, patch, reverse=True).returncode != 0:
                fail(f"{name}: could not revert the patch")
            if alive:
                survivors += 1
                print(f"SURVIVED {name}: {desc}")
                for run in alive:
                    print(f"         passes: {run}")
            else:
                print(f"killed   {name}: {desc}")
        print(f"{len(mutants) - survivors}/{len(mutants)} mutants killed")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(work if not args.work else tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
