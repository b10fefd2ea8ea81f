#!/usr/bin/env python3
"""Steadiness check: repeat a workload over several seeds and report, for
every end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them). A metric whose spread exceeds
its bound in BENCHMARK.json is flagged; so is one above a third of its bound,
the margin the bounds are set with.

    python3 perfbench/steady.py --workload mmo [--runs 10] [--first-seed 1]
        [--seconds 10] [--json out.json]

Run from the root of the repository. Exits 1 when a spread exceeds its bound,
a run fails its checks or a run has a failed op.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--json", help="also write the runs and summary here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, seconds)
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr, flush=True)

    bad = [r for r in runs if not r["correct"]]
    failed = [r for r in runs if r["failed"] > 0]
    summary = {}
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'bound':>6}  flag")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        s = summarize(values)
        s["bound"] = bound
        summary[name] = s
        flag = ""
        if s["spread"] > bound:
            flag = "OVER BOUND"
        elif s["spread"] > bound / 3:
            flag = "above bound/3"
        print(f"{name:<20} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
              f"{s['spread']:>8.4f} {bound:>6.3f}  {flag}")
    print(f"runs with failed ops: {len(failed)}; runs failing checks: {len(bad)}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary},
                      f, indent=1)
    over = [n for n, s in summary.items() if s["spread"] > s["bound"]]
    return 1 if over or bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
