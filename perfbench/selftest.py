"""Negative self-test: a corrupted output must show up in fail_ratio.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics metrics.py defines,
that every reference CSV passes its own check while corrupted copies fail,
and that run.py counts every repetition as failed when it truncates the
CSV, flips a bit in it, or flips a decoded bit in the end-to-end check.
Prints one PASS or FAIL line per case; exits 1 if any case fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import check
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def replace_field(text: str, line: int, column: int, value: str) -> str:
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[column] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines)


def first_mc_row(text: str) -> int:
    """Index of the first data line whose union bound is below 1/2."""
    for i, line in enumerate(text.split("\n")[1:], start=1):
        if float(line.split(",")[check.BOUND]) < 0.5:
            return i
    raise ValueError("no row with a bound below 1/2")


def csv_cases() -> list:
    """(name, check passes as expected) for each reference and corruption."""
    cases = []
    for path in sorted(check.REFERENCE_DIR.glob("*.csv")):
        ref = path.read_text()
        cases.append((f"{path.stem} reference passes", not check.sweep_problems(ref, ref)))
    ref = check.reference_csv("paper_sweep")
    row = first_mc_row(ref)
    corrupt = {
        "truncated CSV": check.truncate(ref),
        "flipped bit in analytic_T": check.flip_bit(ref),
        "changed L_k": replace_field(ref, 1, 3, "1"),
        "mc_T far off and above the bound": replace_field(ref, row, check.MC, "0.9"),
        "mc_T missing": replace_field(ref, row, check.MC, ""),
        "extra row": ref + ref.split("\n")[1] + "\n",
    }
    for name, text in corrupt.items():
        cases.append((f"{name} fails", bool(check.sweep_problems(text, ref))))
    lower = replace_field(ref, row, check.MC, "0")
    cases.append(("mc_T under the union bound passes", not check.sweep_problems(lower, ref)))
    return cases


def spec_case() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    return ("BENCHMARK.json matches metrics.py",
            listed == list(END_TO_END) and layers == list(PER_LAYER))


def injected_case(workload: str, fault: str) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", "0", "--inject", fault]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    ok = (result.get("correct") is False
          and result["failed"] == result["attempted"] > 0)
    return (f"run.py {workload} --inject {fault}: fail_ratio 1", ok)


def main() -> int:
    cases = [spec_case(), *csv_cases()]
    for workload, fault in (("paper_sweep", "csv"), ("paper_sweep", "bit"), ("e2e_check", "bit")):
        cases.append(injected_case(workload, fault))
    for name, ok in cases:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
