#!/usr/bin/env python3
"""Sweep the heterogeneous three-user scenario and summarize per-user gains.

K=3 users with cache fractions (1/5, 1/3, 1/2), three equal files, 8PSK,
shared SNR swept 0..20 dB.  Writes the full CSV next to this script and
prints how much each user's symbol error rate improves when multicast
blocks are padded per symbol instead of per subfile.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from cachemod import ConfigurationError
from cachemod.cli import _read_seed, _read_trials, emit_csv, parse_config, run_scenario

CONFIG = Path(__file__).parent / "three_user_sweep.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    cfg = parse_config(CONFIG.read_text())
    try:  # the flags pass the checks their config fields do
        if args.trials is not None:
            cfg = replace(cfg, trials_per_cell=_read_trials(args.trials))
        if args.seed is not None:
            cfg = replace(cfg, master_seed=_read_seed(args.seed))
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or Path(__file__).parent / cfg.output

    rows = run_scenario(cfg)
    emit_csv(rows, str(out))

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
