"""Exact-repeat check: two traced runs at one seed must give identical counts.

    python3 perfbench/repeat.py [--workloads a,b] [--seed 1] [--seconds 1]

Runs run.py --trace 1 twice per workload with the same seed and compares
every count metric (metrics.EXACT: caching.blocks, mc.trials,
modem.demodulate_calls, ...) by name.  Prints each metric that differs and
exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import EXACT, WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()

    differ = 0
    for workload in args.workloads.split(","):
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for run in (first, second):
            if run["failed"]:
                print(f"{workload}: {run['failed']} of {run['attempted']} repetitions failed")
                differ += 1
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                print(f"{workload}: {name} differs: {a} then {b}")
                differ += 1
        print(f"{workload}: {len(EXACT)} count metrics compared")
    print("exact repeat: " + ("FAIL" if differ else "PASS"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
