"""Reference checks that decide whether a benchmark operation failed.

Sweep CSVs are compared line by line with `reference/<workload>.csv`, made
at REFERENCE_SEED by `make_reference.py`:

* the header, the row keys (snr_db, scheme, user), L_k, analytic_T and
  load_R must be byte-identical at every seed: they do not depend on it;
* each Monte Carlo value mc_T must lie within Z combined standard errors of
  the reference value, or at or under the row's union bound analytic_T.
  A change that redraws the Monte Carlo samples therefore still passes;
* rows without Monte Carlo in the reference must stay without it.

The end-to-end workload checks itself: every user must recover its file
under every scheme.
"""

from __future__ import annotations

import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 2024
Z = 6.0

COLUMNS = ("snr_db", "scheme", "user", "L_k", "analytic_T", "mc_T", "mc_stderr", "load_R")
EXACT_COLUMNS = (0, 1, 2, 3, 4, 7)
MC, STDERR, BOUND = 5, 6, 4


def reference_csv(workload: str) -> str:
    return (REFERENCE_DIR / f"{workload}.csv").read_text()


def sweep_problems(text: str, reference: str, z: float = Z) -> list[str]:
    """Every way `text` departs from the reference CSV; empty when it passes."""
    got, want = text.splitlines(), reference.splitlines()
    problems = [] if text.endswith("\n") else ["CSV does not end with a newline"]
    if len(got) != len(want):
        return problems + [f"CSV has {len(got)} lines, the reference {len(want)}"]
    for n, (g_line, w_line) in enumerate(zip(got, want), start=1):
        if n == 1:
            if g_line != w_line:
                problems.append(f"header {g_line!r} differs from the reference")
            continue
        g, w = g_line.split(","), w_line.split(",")
        if len(g) != len(w):
            problems.append(f"line {n} has {len(g)} fields, the reference {len(w)}")
            continue
        for i in EXACT_COLUMNS:
            if g[i] != w[i]:
                problems.append(f"line {n}: {COLUMNS[i]} {g[i]!r}, reference {w[i]!r}")
        mc = _mc_problem(g, w, z)
        if mc:
            problems.append(f"line {n}: {mc}")
    return problems


def _mc_problem(g: list, w: list, z: float) -> str | None:
    if w[MC] == "":
        return None if g[MC] == g[STDERR] == "" else "Monte Carlo columns where the reference has none"
    try:
        mc, se, ref, ref_se, bound = (float(g[MC]), float(g[STDERR]), float(w[MC]),
                                      float(w[STDERR]), float(g[BOUND]))
    except ValueError:
        return f"Monte Carlo columns {g[MC]!r}, {g[STDERR]!r} are not numbers"
    if not (0.0 <= mc <= 1.0 and 0.0 <= se <= 1.0):
        return f"mc_T {g[MC]} or mc_stderr {g[STDERR]} outside [0, 1]"
    if abs(mc - ref) <= z * math.hypot(se, ref_se) or mc <= bound:
        return None
    return (f"mc_T {g[MC]} is more than {z:g} standard errors from the reference {w[MC]} "
            f"and above the union bound {g[BOUND]}")


def e2e_problems(results: dict, num_users: int) -> list[str]:
    """`results` maps scheme -> EndToEndResult; every user must have passed."""
    problems = []
    for scheme, result in results.items():
        failed = sorted(u for u in range(1, num_users + 1) if not result.passed.get(u, False))
        if failed:
            problems.append(
                f"{scheme}: users {failed} did not recover their files, first mismatch "
                f"(file, bit) {result.first_mismatch}"
            )
    return problems


# Faults the self-test injects; each must make the check above fail.


def truncate(text: str) -> str:
    """A CSV cut off halfway, as a crashed or interrupted writer leaves it."""
    return text[: len(text) // 2]


def flip_bit(text: str) -> str:
    """Flip the lowest bit of the last character of the first row's analytic_T."""
    header, row, rest = text.split("\n", 2)
    fields = row.split(",")
    value = fields[BOUND]
    fields[BOUND] = value[:-1] + chr(ord(value[-1]) ^ 1)
    return "\n".join((header, ",".join(fields), rest))
