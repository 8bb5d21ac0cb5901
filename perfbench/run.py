#!/usr/bin/env python3
"""Benchmark entry point for bflylayout.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sat_sharded --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (the repo's libraries, bflyd and the bfbench workload runner) in
Release mode under .bench_build/ (or $CARGO_TARGET_DIR when set), runs one
workload and prints its result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Build output and bfbench's tables go to stderr.  Traced runs
(--trace 1) leave <workload>.trace.json and <workload>.selftime.txt in
.bench_build/trace/.  Exit status is 0 when a result was printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sat_sharded", "sat_grid", "layout_legal", "bflyd_mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds bfbench and bflyd; returns the binary dir."""
    bin_dir = os.path.join(build_root, "cmake")
    configured = os.path.join(bin_dir, "perfbench.configured")
    if not os.path.exists(configured):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", bin_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        open(configured, "w").close()
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bin_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return bin_dir


def stop_group(proc):
    """Kills what is left of `proc`'s process group and waits for it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def run_workload(bin_dir, build_root, args):
    if args.trace:
        work_dir = os.path.join(build_root, "trace")
    else:
        work_dir = os.path.join(build_root, "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(bin_dir, "bfbench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0",
           "--work-dir", work_dir, "--bflyd", os.path.join(bin_dir, "bflyd")]
    # Own process group, so the daemon bfbench starts is stopped with it
    # whatever way bfbench ends.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
        if not args.trace:
            shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("bfbench %s exited %d" % (args.workload, proc.returncode))
    doc = json.loads(lines[-1])
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": doc["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that every output check rejects a wrong result")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        bin_dir = build(build_root)
        if args.selftest:
            return subprocess.run([os.path.join(bin_dir, "bfbench"), "selftest"]).returncode
        result = run_workload(bin_dir, build_root, args)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
