"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs repetitions of one workload one after another, a closed loop with one
client.  Each repetition is a fresh single-threaded process (rep.py), so
set-up and peak RSS are measured the way a CLI user meets them.  Repetitions
start until S seconds have passed and at least MIN_REPS have run; the
reported metrics are medians over them.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics of the traced
ones, the tracing overhead, and fails any repetition whose counts differ
from the first traced one.  A repetition fails if it raises or its output
fails the reference check (check.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Provenance, every sample and every problem
are written to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from metrics import END_TO_END, EXACT, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_REPS = 3
TIME_LIMIT_S = 150  # stop starting repetitions well inside a 180 s run limit
REP_TIMEOUT_S = 120
SINGLE_THREADED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
ENV = {**os.environ, **SINGLE_THREADED}
# Median seconds of calibrate.calibrate() on the 2-vCPU Xeon (2.0 GHz) VM the bounds were set on.
REFERENCE_CALIBRATION_S = 0.09


def rep(args, traced: bool, spans_out: Path | None = None) -> dict:
    """Run one repetition in a fresh process and return its record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"repetition ran over {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"traced": traced, "problems": [f"repetition exited with {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cachemod").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "thread_env": SINGLE_THREADED,
    }


def run_reps(args, spans_out: Path) -> list:
    """Repetitions back to back until the time is used; traced ones alternate with plain.

    The machine's speed is measured before the first repetition and after
    each one, by calibrate.py in a process of its own; a repetition's
    calibration_s is the mean of the two measurements around it.
    """
    reps, longest = [], 0.0
    per_round = (False, True) if args.trace else (False,)
    with subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], cwd=ROOT, env=ENV,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as calibrator:

        def machine_speed() -> float:
            calibrator.stdin.write("\n")
            calibrator.stdin.flush()
            return float(calibrator.stdout.readline())

        speed = machine_speed()
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            rounds = len(reps) // len(per_round)
            if rounds >= MIN_REPS and elapsed >= args.seconds:
                break
            if rounds and elapsed + longest > TIME_LIMIT_S:
                break
            began = time.monotonic()
            for traced in per_round:
                first_traced = traced and rounds == 0
                record = rep(args, traced, spans_out if first_traced else None)
                after = machine_speed()
                record["calibration_s"] = (speed + after) / 2
                speed = after
                reps.append(record)
            longest = max(longest, time.monotonic() - began)
        calibrator.stdin.close()
    return reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject", choices=("csv", "bit"), help="corrupt outputs (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "cachemod" / "__init__.py").is_file():
        print(f"perfbench: no cachemod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                           "import cachemod.cli"], cwd=ROOT, env=ENV, timeout=REP_TIMEOUT_S)
    if warm.returncode != 0:
        print("perfbench: cachemod.cli does not import", file=sys.stderr)
        return 2

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "traces").mkdir(exist_ok=True)
    info = provenance(args)
    reps = run_reps(args, OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")

    timed = [r for r in reps if "wall_s" in r]
    traced = [r for r in timed if r["traced"]]
    plain = [r for r in timed if not r["traced"]]
    if not plain or (args.trace and not traced):
        for r in reps:
            print("\n".join(r["problems"]), file=sys.stderr)
        print("perfbench: no repetition finished", file=sys.stderr)
        return 1
    for r in traced[1:]:
        differ = [n for n in EXACT if n in r["layers"] and r["layers"][n] != traced[0]["layers"].get(n)]
        if differ:
            r["problems"].append(f"counts differ from the first traced repetition: {differ}")
    failed = sum(1 for r in reps if r["problems"])

    def median(key, group):
        return statistics.median(r[key] for r in group)

    def scaled(key, group):
        """Median of a time rescaled to the reference machine speed, rep by rep."""
        return statistics.median(r[key] * REFERENCE_CALIBRATION_S / r["calibration_s"] for r in group)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _, _ in PER_LAYER if name in traced[0]["layers"]}
        values["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", plain)
        values["fail_ratio"] = failed / len(reps)
        specs = PER_LAYER
    else:
        values = {"wall_s": scaled("wall_s", plain), "setup_s": scaled("setup_s", plain),
                  "peak_rss_mb": median("peak_rss_mb", plain)}
        specs = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}

    md5s = sorted({r["csv_md5"] for r in timed if r.get("csv_md5")})
    unscaled = {f"unscaled_{key}": median(key, plain) for key in ("wall_s", "setup_s")}
    result = {
        "provenance": info,
        "attempted": len(reps),
        "failed": failed,
        "csv_md5": md5s,
        "metrics": metrics,
        **unscaled,
        "repetitions": reps,
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    for r in reps:
        for problem in r["problems"][:5]:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(info))
    shown = [f"{n}={m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    if not args.trace:
        shown.append(f"fail_ratio={failed / len(reps):.6g} ratio")
        shown += [f"{key}={value:.6g} s" for key, value in unscaled.items()]
    print(f"{args.workload} seed {args.seed}: " + ", ".join(shown)
          + f" ({failed} of {len(reps)} repetitions failed; CSV md5 {', '.join(md5s) or '-'})")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
