#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The benchmark program is
built from source into $CARGO_TARGET_DIR (default .bench_build) on
first use; later runs only re-check the build. Build output goes to
standard error, so the last line of standard output is the
benchmark's JSON result. With --trace 1 the recorded spans are also
written to <build dir>/trace-<workload>.csv.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(bdir):
    """Configure once, then build the benchmark target (no-op when
    up to date). Serialized by a lock so concurrent runs cannot race
    on one build directory."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", bdir, "-G", "Unix Makefiles",
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", bdir, "--target", "varsaw_perfbench",
             "-j", "4"],
            stdout=sys.stderr, check=True)
    return os.path.join(bdir, "varsaw_perfbench")


def git_describe():
    """`git describe` of the checkout itself, never of a directory
    above it; "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def clean_env():
    """The library reads VARSAW_* knobs (shared-service shim, fault
    plans, kernel threads, telemetry); none may leak into a run."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("VARSAW_")}


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("bad metric " + name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("build failed: %s" % err, file=sys.stderr)
        return 1

    if args.smoke:
        cmd = [exe, "--smoke"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git", git_describe()]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(bdir, "trace-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    lines = proc.stdout.strip().splitlines()
    if not args.smoke:
        try:
            check_result(lines[-1])
        except (IndexError, ValueError) as err:
            print("malformed result: %s" % err, file=sys.stderr)
            return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
