#!/usr/bin/env python3
"""Seed sweep for the storm_recover soak row (DESIGN.md section 9).

Runs `soak --scenario storm_recover` at seeds 1-80 and at CI's seed
20260805; every run must exit 0.  determinism_check runs the row at one
seed only, so a recovery failure that shows at a few seeds in a hundred
would otherwise reach only the CI soak job.

Usage: storm_recover_seeds.py <soak-binary>
"""

import subprocess
import sys

SEEDS = [*range(1, 81), 20260805]


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    soak = sys.argv[1]
    failed = []
    for seed in SEEDS:
        cmd = [soak, "--scenario", "storm_recover", "--seed", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            failed.append(seed)
            print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    if failed:
        raise SystemExit(f"storm_recover failed at {len(failed)} of {len(SEEDS)} seeds: {failed}")
    print(f"storm_recover passed at all {len(SEEDS)} seeds")


if __name__ == "__main__":
    main()
