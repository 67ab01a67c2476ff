#!/usr/bin/env python3
"""Sweep the heterogeneous three-user scenario and summarize per-user gains.

K=3 users with cache fractions (1/5, 1/3, 1/2), three equal files, 8PSK,
shared SNR swept 0..20 dB.  Writes the full CSV next to this script and
prints how much each user's symbol error rate improves when multicast
blocks are padded per symbol instead of per subfile.
"""

import argparse
import sys
from pathlib import Path

from cachemod.cli import execute_run, parse_config

CONFIG = Path(__file__).parent / "three_user_sweep.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    cfg = parse_config(CONFIG.read_text())
    out = args.out or Path(__file__).parent / cfg.output
    # the flags and every failure take `cachemod run`'s checks and exit statuses
    status, rows = execute_run(cfg, out=str(out), seed=args.seed, trials=args.trials)
    if status:
        return status

    by_key = {(r.snr_db, r.scheme, r.user): r for r in rows}
    users = sorted({r.user for r in rows if r.user != "avg"}, key=int)
    print(f"load R = {rows[0].load:.4f} (identical across schemes)")
    header = f"{'snr_db':>6} | " + " | ".join(
        f"user {u}: T_zp      T_prop    gain" for u in users
    )
    print(header)
    print("-" * len(header))
    for snr_db in sorted({r.snr_db for r in rows}):
        cells = []
        for u in users:
            zp = by_key[(snr_db, "zero_padding", u)].analytic_ser
            prop = by_key[(snr_db, "proposed", u)].analytic_ser
            cells.append(f"{zp:.3e} {prop:.3e} {zp - prop:.2e}")
        print(f"{snr_db:>6.0f} | " + " | ".join(cells))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
