#!/usr/bin/env python3
"""Sweep the heterogeneous three-user scenario and summarize per-user gains.

K=3 users with cache fractions (1/5, 1/3, 1/2), three equal files, 8PSK,
shared SNR swept 0..20 dB.  Writes the full CSV next to this script and
prints how much each user's symbol error rate improves when multicast
blocks are padded per symbol instead of per subfile.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from cachemod import cli

CONFIG = Path(__file__).parent / "three_user_sweep.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    out = args.out or CONFIG.parent / json.loads(CONFIG.read_text())["output"]
    # the run is `cachemod run` itself: its checks, exit statuses and CSV
    argv = ["run", "--config", str(CONFIG), "--out", str(out)]
    for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
        if value is not None:
            argv += [flag, str(value)]
    status = cli.main(argv)
    if status:
        return status

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_key = {(float(r["snr_db"]), r["scheme"], r["user"]): float(r["analytic_T"]) for r in rows}
    users = sorted({r["user"] for r in rows if r["user"] != "avg"}, key=int)
    print(f"load R = {float(rows[0]['load_R']):.4f} (identical across schemes)")
    header = f"{'snr_db':>6} | " + " | ".join(
        f"user {u}: T_zp      T_prop    gain" for u in users
    )
    print(header)
    print("-" * len(header))
    for snr_db in sorted({snr for snr, _, _ in by_key}):
        cells = []
        for u in users:
            zp = by_key[(snr_db, "zero_padding", u)]
            prop = by_key[(snr_db, "proposed", u)]
            cells.append(f"{zp:.3e} {prop:.3e} {zp - prop:.2e}")
        print(f"{snr_db:>6.0f} | " + " | ".join(cells))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
