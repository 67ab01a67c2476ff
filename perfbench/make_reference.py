"""Regenerate the reference CSVs the benchmark checks sweep outputs against.

    python3 perfbench/make_reference.py

Runs each sweep workload at check.REFERENCE_SEED and writes
`reference/<workload>.csv`.  The paper_sweep reference must reproduce the
three-user sweep CSV the repository has always produced; the script fails
without writing anything if it does not.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
from metrics import WORKLOADS  # noqa: E402

PAPER_SWEEP_MD5 = "6968f02712550b04951653e3d66ea40b"


def main() -> int:
    from cachemod.cli import parse_config, render_csv, run_scenario

    texts = {}
    for workload in WORKLOADS:
        if workload == "e2e_check":
            continue
        cfg = parse_config((HERE / "workloads" / f"{workload}.json").read_text())
        texts[workload] = render_csv(run_scenario(replace(cfg, master_seed=check.REFERENCE_SEED)))
    md5 = hashlib.md5(texts["paper_sweep"].encode()).hexdigest()
    if md5 != PAPER_SWEEP_MD5:
        print(f"paper_sweep CSV has md5 {md5}, expected {PAPER_SWEEP_MD5}", file=sys.stderr)
        return 1
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, text in texts.items():
        (check.REFERENCE_DIR / f"{workload}.csv").write_text(text)
        print(f"{workload}: md5 {hashlib.md5(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
