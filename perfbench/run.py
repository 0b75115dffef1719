#!/usr/bin/env python3
"""Build and run the host-time benchmark of the B-Cache simulator.

Run from the repository root:

    python3 perfbench/run.py --workload dcache_grid --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --unit-tests

The simulator and the benchmark program are compiled from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Build output goes to stderr, so the last line of stdout is the program's
JSON result. Everything the run writes (build tree, the temporary trace,
span dumps) stays under that build directory. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("dcache_grid", "trace_observed", "timed_ipc")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, out)


def build(target):
    """Configure once, then (re)build `target`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "sweep.hh")):
        log(f"simulator sources not found under {ROOT}/src")
        sys.exit(1)
    bdir = os.path.join(build_root(), "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return bdir


def git_rev():
    """HEAD (+dirty) when ROOT is itself a git work tree, else unknown."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        rev = git("rev-parse", "--short=12", "HEAD").stdout.strip()
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout
        return rev + ("+dirty" if dirty.strip() else "")
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0xb5eed)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--unit-tests", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    try:
        if args.unit_tests:
            bdir = build("perfbench_tests")
            return subprocess.run(
                [os.path.join(bdir, "perfbench_tests")]).returncode
        if not args.workload:
            ap.error("--workload is required")
        bdir = build("perfbench")
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1

    # Simulator knobs (BSIM_BATCH, BSIM_JOBS, ...) would change what is
    # measured; the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BSIM_")}
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=build_root())
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp,
           "--pinned", os.path.join(BENCH_DIR, "pinned_digests.txt"),
           "--git-rev", git_rev()]
    if args.trace:
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.csv")]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
