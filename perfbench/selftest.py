#!/usr/bin/env python3
"""Self-test of the benchmark's checks: every workload must report
correct = true on a clean run, and correct = false when one expected value
is made wrong (--fault 1: one shadow gold balance in mmo and mmo_wire, one
tetrahedron's scale, and so its point coordinates, in cad).

    python3 perfbench/selftest.py [--seconds 1]

Run from the root of the repository. Exits 1 when a check fails to fire or
fires on a clean run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def correct(workload, fault, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", "0",
           "--fault", str(fault)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run failed ({proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])["correct"], proc.stderr.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    ok = True
    for workload in ("mmo", "mmo_wire", "cad"):
        clean, _ = correct(workload, 0, args.seconds)
        faulty, why = correct(workload, 1, args.seconds)
        passed = clean and not faulty
        ok &= passed
        reasons = [l for l in why.splitlines() if l.startswith(f"perfbench {workload}:")]
        reason = reasons[0] if reasons else ""
        print(f"{workload:<9} clean run correct={clean}, wrong expected value "
              f"correct={faulty}: {'PASS' if passed else 'FAIL'}  {reason}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
