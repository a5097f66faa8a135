#!/usr/bin/env python3
"""Builds and runs the rankcubed benchmark.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 8 --trace 0

Run from the repository root. The first run configures and builds the
repository's library, `rankcubed` and the benchmark program `rcbench`
(Release) into .bench_build/; later runs rebuild incrementally. The output
of rcbench is passed through, and its last line is the JSON result. Scratch data lives in
.bench_run/ and is removed at the end of each run; the traced replay's spans
are kept there as spans-<workload>-<seed>.tsv.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_run")
SOURCE = os.path.dirname(os.path.abspath(__file__))


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: no repository source here (run from the repo root)")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
            stdout=sys.stderr,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "rcbench", "rankcubed", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    os.makedirs(WORK, exist_ok=True)
    cmd = [
        os.path.join(BUILD, "rcbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--rankcubed", os.path.join(BUILD, "rankcube", "rankcubed"),
        "--work_dir", WORK,
        "--git_sha", git_sha(),
    ]
    sys.stdout.flush()
    proc = subprocess.run(cmd)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
