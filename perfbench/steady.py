"""Steadiness check: is each end-to-end metric steady enough for its bound?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--baseline FILE] [--record]

Runs run.py --trace 0 RUNS times per workload, each with another seed, and
prints for every end-to-end metric the median, the quartiles and the spread
(quartile distance over the median) against the bound in BENCHMARK.json.
A spread under a third of the bound reads "steady".  setup_s is exempt
from the spread test; its bound only limits drift between medians.  With
--baseline (a file an earlier call saved) it also prints how far each
median moved.  --record writes bounds chosen from the spreads into
BENCHMARK.json.  `--runs 1` prints every end-to-end metric and fail_ratio
for every workload once.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
MAX_BOUND = 0.25


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def chosen_bound(spread: float) -> float:
    """Three and a half spreads, rounded up to a hundredth, within [0.05, MAX_BOUND]."""
    return min(MAX_BOUND, max(0.05, math.ceil(350 * spread) / 100))


def main() -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path,
                        default=ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(args.runs):
            runs[workload].append(run_once(workload, args.seed_base + i, args.seconds))
            print(f"{workload} run {i + 1}/{args.runs} done", file=sys.stderr, flush=True)
    args.save.parent.mkdir(parents=True, exist_ok=True)
    args.save.write_text(json.dumps(runs, indent=1) + "\n")

    print(f"{'workload':<14} {'metric':<12} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict" + ("   vs baseline" if baseline else ""))
    widest = {}
    for workload in workloads:
        results = runs[workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            widest[name] = max(widest.get(name, 0.0), spread)
            if name == "setup_s":
                verdict = "exempt"
            else:
                verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            line = (f"{workload:<14} {name:<12} {metric['unit']:<6} {med:>10.5g} {q1:>10.5g} "
                    f"{q3:>10.5g} {spread:>7.3f} {bound:>6.2f}  {verdict:<7}")
            if workload in baseline:
                old = statistics.median(r["metrics"][name]["value"] for r in baseline[workload])
                change = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                line += f"  {change:+.3f} worse {'ok' if change <= bound else 'OVER BOUND'}"
            print(line)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload:<14} {'fail_ratio':<12} {'ratio':<6} {failed / attempted:>10.5g}"
              f"  ({failed} of {attempted} repetitions failed)")
    print(f"saved {args.save}")

    if args.record:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            metric["bound"] = MAX_BOUND if name == "setup_s" else chosen_bound(widest[name])
        SPEC.write_text(json.dumps(spec, indent=2) + "\n")
        print("recorded bounds: " + ", ".join(f"{m['name']}={m['bound']}" for m in spec["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
