#!/usr/bin/env python3
"""Builds and runs the cmtos benchmark driver.

    python3 perfbench/run.py --workload bulk_64k --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
cmtos libraries and the driver into .bench_build/ (later calls rebuild only
what changed).  The driver's stdout is passed through; its last line is the
result object {"correct", "attempted", "failed", "metrics"}.  Per-run result
and trace files land in .bench_out/.

    python3 perfbench/run.py --selfcheck --workload city_orch --seed 7

runs the workload twice with one seed and fails unless every
simulated-time metric is identical.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "cmtos_perf")
WORKLOADS = ("bulk_64k", "resident_10k", "city_orch")
# Metrics that depend only on the seed (simulated time).
SIM_METRICS = ("delay_p50_ms", "delay_p99_ms", "osdu_delivered_ratio", "ops_ok_ratio",
               "connect_p50_ms", "connect_p99_ms", "skew_max_ms", "render_ok_ratio")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: cmtos sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0 and os.path.isfile(BINARY)


def revision():
    """Git commit when available, plus a digest of the benchmarked sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "src:" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            rev = "git:" + sha.stdout.strip() + " " + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def run_driver(args, echo):
    """Runs the driver once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--revision", revision()]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return 1, None
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(res.stdout)
        log("run.py: driver produced no result (exit %d)" % res.returncode)
        return res.returncode or 1, None
    if echo:
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
    return res.returncode, result


def selfcheck(args):
    args.trace = 0
    _, first = run_driver(args, echo=False)
    _, second = run_driver(args, echo=False)
    if first is None or second is None:
        return 1
    bad = [m for m in SIM_METRICS
           if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
    for m in SIM_METRICS:
        log("%-22s %r %r" % (m, first["metrics"][m]["value"], second["metrics"][m]["value"]))
    if bad or first["attempted"] != second["attempted"] or first["failed"] != second["failed"]:
        log("selfcheck FAILED: same seed, different simulated-time results: %s" % bad)
        return 1
    log("selfcheck OK: simulated-time metrics identical for seed %d" % args.seed)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if not build():
        log("run.py: build failed")
        return 1
    if args.selfcheck:
        return selfcheck(args)
    code, result = run_driver(args, echo=True)
    if result is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
