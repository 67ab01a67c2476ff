"""One repetition of a benchmark workload, run in a fresh process by run.py.

    python3 perfbench/rep.py --workload W --seed N [--trace] [--spans-out F] [--inject csv|bit]

Times the set-up a CLI user pays (import cachemod.cli, parse_config,
build_constellation) and the workload from the parsed config to its
finished output, then checks the output against the reference.  Prints one
JSON line.  With --trace, spans wrap the calls between layers and the line
also carries the per-layer metrics.  --inject corrupts the output on purpose
so that the self-test can see the check fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
from metrics import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402


def run_sweep(cfg, c, seed: int) -> str:
    """The `cachemod run` path: the SNR sweep rendered as CSV text."""
    import cachemod.cli as cli

    return cli.render_csv(cli.run_scenario(replace(cfg, master_seed=seed)))


def run_e2e(cfg, c, seed: int) -> dict:
    """Seeded placement, its exact subfile map, then the noiseless check per scheme."""
    import cachemod.caching as caching
    import cachemod.mc as mc

    library = caching.Library(cfg.file_fractions, cfg.total_bits)
    caches = caching.CacheProfile(cfg.mus)
    demands = caching.DemandVector(cfg.demands)
    placement = caching.sample_placement(library, caches, seed)
    subfiles = caching.realized_subfile_map(placement)
    results = {}
    for scheme in cfg.schemes:
        plan = caching.build_delivery_plan(subfiles, demands, scheme, cfg.m)
        results[scheme] = mc.end_to_end_noiseless(placement, plan, demands, c)
    return results


def flip_first_decoded_bit():
    """Make the first non-empty piece any receiver decodes come out with one bit flipped."""
    import cachemod.mc as mc

    decode = mc.decode_block
    flipped = []

    def decode_and_flip(*args, **kwargs):
        piece = decode(*args, **kwargs)
        if not flipped and len(piece):
            piece = piece.copy()
            piece[0] ^= 1
            flipped.append(True)
        return piece

    mc.decode_block = decode_and_flip


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--inject", choices=("csv", "bit"))
    args = parser.parse_args()
    e2e = args.workload == "e2e_check"
    if e2e and args.inject == "csv":
        parser.error("e2e_check writes no CSV to corrupt")
    text = (HERE / "workloads" / f"{args.workload}.json").read_text()
    tracer = Tracer() if args.trace else None

    start = time.perf_counter()
    import cachemod.cli as cli
    import cachemod.modem as modem

    import_s = time.perf_counter() - start
    if tracer:
        tracer.install()
    start = time.perf_counter()
    cfg = cli.parse_config(text)
    c = modem.build_constellation(cfg.family, cfg.m)
    setup_s = import_s + time.perf_counter() - start

    if e2e and args.inject == "bit":
        flip_first_decoded_bit()
    with tracer.span("workload") if tracer else nullcontext():
        start = time.perf_counter()
        output = (run_e2e if e2e else run_sweep)(cfg, c, args.seed)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    csv_md5 = None
    if e2e:
        problems = check.e2e_problems(output, len(cfg.mus))
    else:
        if args.inject == "csv":
            output = check.truncate(output)
        elif args.inject == "bit":
            output = check.flip_bit(output)
        problems = check.sweep_problems(output, check.reference_csv(args.workload))
        csv_md5 = hashlib.md5(output.encode()).hexdigest()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "csv_md5": csv_md5,
        "problems": problems,
    }
    if tracer:
        record["layers"] = {"cli.import_s": import_s, **tracer.layer_metrics()}
        record["uncounted"] = sorted(tracer.uncounted)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
