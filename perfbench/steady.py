#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Run from the root of a source checkout:

    python3 perfbench/steady.py                      # every workload, 10 seeds each
    python3 perfbench/steady.py --workloads bflyd_mix --runs 5

Runs perfbench/run.py repeatedly per workload, one seed per run, and prints
for every end-to-end metric of BENCHMARK.json the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median against the metric's bound.  A spread above a third of the bound is
flagged, setup_s included.  Also prints the share of failed operations and
how long each run took.
Exit status is 1 when a run fails, a check fails, or a spread exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    all_runs = {}
    bad = False
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            took = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (name, seed, proc.returncode))
                bad = True
                continue
            doc = json.loads(lines[-1])
            if not doc["correct"]:
                print("%s seed %d: output checks failed" % (name, seed))
                bad = True
            runs.append(doc)
            print("%s seed %d (%.1f s): %s" % (name, seed, took, " ".join(
                "%s=%.6g" % (m, v["value"]) for m, v in doc["metrics"].items())), flush=True)
        all_runs[name] = runs
        if len(runs) < 2:
            continue
        print("\n%s: %d runs, failed share %s" % (name, len(runs), sorted(
            {r["failed"] / r["attempted"] for r in runs})))
        print("  %-14s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3", "spread",
                                                  "bound"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread > m["bound"]:
                verdict = "OVER BOUND"
                bad = True
            elif spread > m["bound"] / 3:
                verdict = "above bound/3"
            else:
                verdict = "ok"
            print("  %-14s %14.6g %14.6g %14.6g %7.2f%% %6.0f%%  %s" % (
                m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], verdict))
        print(flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_runs, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
