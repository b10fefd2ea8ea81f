#!/usr/bin/env python3
"""Build PRIMA as a release build and run one benchmark workload.

    python3 perfbench/run.py --workload mmo|mmo_wire|cad --seed N \
        --seconds S --trace 0|1 [--fault 1]

Run from the root of the repository. The kernel and the benchmark program are built
with CMake from perfbench/CMakeLists.txt (-O2 -DNDEBUG) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The program is
then run confined to one CPU (see README.md), and its last line, one JSON
object, is the result. Exits non-zero without a result when the build or the
run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mmo", "mmo_wire", "cad")
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configure once, then bring the build up to date (a no-op when it is)."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def bench_cpu():
    """The highest-numbered CPU this process may use: every thread of a run
    shares it, so no op pays for a handoff between CPUs."""
    return max(os.sched_getaffinity(0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "prima.h")):
        log("the PRIMA sources (src/) are missing next to perfbench/")
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    workdir = os.path.join(out, "work", args.workload)
    # Leftovers of an earlier run of this workload: database directories a
    # killed run left behind, spans and EXPLAIN trees.
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    cpu = bench_cpu()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fault", str(args.fault), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return proc.returncode or 3
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
