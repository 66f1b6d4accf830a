#!/usr/bin/env python3
"""Soak verdict and sharded-runtime determinism check (DESIGN.md section 10).

Runs every row of `soak --list` at --threads 1/2/8 with the same seed.  Each
run must exit 0 (the row's oracles and the shared contract oracle held), and
its stdout (fault log, sweep lines) and metric snapshot (--json) must be
byte-identical across thread counts.  --threads 1 is the determinism oracle:
the executor classifies and orders rounds identically at every worker count,
so any divergence here is a cross-shard ordering bug, not noise.  stderr
carries the log lines, which shards of one parallel round write in
wall-clock order, so it must match as a multiset of lines.

Usage: determinism_check.py <soak-binary>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = [1, 2, 8]

# Seed per row; rows not named here run at DEFAULT_SEED.
SEEDS = {"storm_recover": 7, "preempt": 7, "consumer_stall": 7, "churn": 3, "steady": 7}
DEFAULT_SEED = 5


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}"
        )
    return proc.stdout, sorted(proc.stderr.splitlines())


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    soak = sys.argv[1]
    rows = run([soak, "--list"])[0].split()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            args = ["--scenario", row, "--seed", str(SEEDS.get(row, DEFAULT_SEED))]
            label = " ".join(args)
            row_failures = failures
            ref = None
            for t in THREADS:
                json_path = Path(tmp) / f"{row}-{t}.json"
                out, err = run([soak, *args, "--threads", str(t), "--json", str(json_path)])
                snap = json_path.read_bytes()
                json.loads(snap)  # the snapshot must at least be valid JSON
                if ref is None:
                    ref = out, err, snap
                    continue
                for what, got, want in zip(("stdout", "stderr", "metric snapshot"),
                                           (out, err, snap), ref):
                    if got != want:
                        print(f"FAIL: {label}: {what} differs at --threads {t}")
                        failures += 1
            if failures == row_failures:
                print(f"ok: {label}: identical at threads {THREADS}")
    if failures:
        raise SystemExit(f"{failures} determinism failure(s)")
    print("determinism check passed")


if __name__ == "__main__":
    main()
