"""The checks CI runs at scale: pinned CSVs, memory and page-fault gates, smoke tests.

Run them all from the repository root (about 25 s on a 2-vCPU VM; needs `taskset`)
with `python -m pytest -q scripts/ci_checks.py`; pytest's `-k` selects checks and `-s`
shows their RSS, md5 and fault lines.  Tier-1 does not collect this module.

Each check runs its work in a child process and reads that child's own peak RSS from
`os.wait4`: in one pytest process `RUSAGE_CHILDREN` reports the largest child so far,
so the 339 MiB size-limit run would mask a 64 MiB limit.  The CLI runs as
`python -m cachemod.cli` with this checkout's `src` first on the path; CI checks the
installed `cachemod` entry point on its own.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
CLI = [sys.executable, "-m", "cachemod.cli"]


def run(args, cwd=ROOT):
    """Run `args` to its end: (exit status, peak RSS in MiB, stdout).  The RSS is the
    child's own and covers the processes it waited for, so `timeout 60 ...` is measured."""
    env = {**os.environ, "PYTHONPATH": PATH}
    with subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return child.returncode, usage.ru_maxrss / 1024, out  # KiB on Linux


# a traced run wraps cachemod's layer calls by name from outside, so a refactor that breaks
# a wrapped call fails its repetitions, and the last line's `correct` is false.  e2e_check's
# `mc.e2e_bits` counts the receivers' uncached bits through the placement's derived
# `cached_by` masks, so a count of 0 fails too.  The four workloads reach every wrapped call
@pytest.mark.parametrize("w", ["paper_sweep", "large_library", "many_users", "e2e_check"])
def test_traced_benchmark_smoke(w):
    args = ["perfbench/run.py", "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "1"]
    status, _, out = run([sys.executable, *args])
    r = json.loads(out.splitlines()[-1])
    print(w, r)
    bits = r["metrics"]["mc.e2e_bits"]["value"] if w == "e2e_check" else 1
    assert status == 0 and r["correct"] is True and bits > 0


def test_cli_smoke(tmp_path):
    # the committed config validates and runs; a fractional width and a bool cache
    # fraction exit 2 and write no CSV, and an empty --out exits 2 without falling
    # back to the config's output file (run in an empty directory, which stays empty)
    config = SCRIPTS / "three_user_sweep.json"
    doc = json.loads(config.read_text())
    bad_docs = {
        "bad_m": dict(doc, modulation=dict(doc["modulation"], m=3.5)),
        "bad_mu": dict(doc, users=[dict(doc["users"][0], mu=True)] + doc["users"][1:]),
    }
    out = tmp_path / "three_user_sweep.csv"
    assert run([*CLI, "validate", "--config", str(config)])[0] == 0
    assert run([*CLI, "run", "--config", str(config), "--analytic-only", "--out", str(out)])[0] == 0
    assert out.stat().st_size > 0
    for name, bad_doc in bad_docs.items():
        bad, csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        bad.write_text(json.dumps(bad_doc))
        assert run([*CLI, "validate", "--config", str(bad)])[0] == 2
        status = run([*CLI, "run", "--config", str(bad), "--analytic-only", "--out", str(csv)])[0]
        assert status == 2 and not csv.exists()
    empty = tmp_path / "empty"
    empty.mkdir()
    status = run([*CLI, "run", "--config", str(config), "--analytic-only", "--out", ""], empty)[0]
    assert status == 2 and not any(empty.iterdir())


def test_experiment_script(tmp_path):
    script = [sys.executable, str(SCRIPTS / "run_three_user_sweep.py")]
    out = tmp_path / "script.csv"
    assert run([*script, "--trials", "0", "--out", str(out)])[0] == 0
    assert out.stat().st_size > 0
    assert run([*script, "--trials", "-5", "--out", str(tmp_path / "bad.csv")])[0] == 2
    assert run([*script, "--trials", "0", "--out", str(tmp_path / "missing" / "x.csv")])[0] == 3


# the 1e6-trial Monte Carlo pin, run on every CPU and on one
MC_MEMORY = ("three_user_sweep.json", ["--trials", "1000000"], 64,
             "fe65f4caf4f586b54e4a8f27959111d7", None)
PINNED_RUNS = [
    # 1e6 trials per cell, about 4 s for both runs on a 2-vCPU VM; chunked cells keep the
    # run near 38 MiB of peak RSS, where one-shot cells reached 109 MiB.  The md5 pins the
    # bytes of 62 chunks per cell (2 of 16,130 trials and 60 of 16,129) through the noise
    # screen and, in these 8PSK prefix cells, the wedge test that counts the rows past it,
    # more chunks than any tier-1 test reaches.  The second run is pinned to one CPU, so
    # its cells run on the calling thread alone: the bytes must not depend on the number
    # of threads
    ("mc_memory_every_cpu", [], *MC_MEMORY),
    ("mc_memory_one_cpu", ["taskset", "-c", "0"], *MC_MEMORY),
    # 2^16 subsets, about 0.5 s for the whole run on a 2-vCPU VM (a per-subset Python loop
    # took 3.3 s of planning); the timeout catches planning that is far slower still.
    # Steps of a fixed number of (user, subset) entries keep the run near 45 MiB of peak
    # RSS, where steps of 8,192 subsets took it to 64 MiB
    ("sixteen_users", ["timeout", "60"], "sixteen_user_sweep.json", ["--analytic-only"], 52,
     "ba7505305a6a52ad8d28c76da070d3a9", None),
    # K=20 users and 32 files, N * 2^K = 2^25 map entries (the limit), analytic only: about
    # 3.5 s on a 2-vCPU VM.  Each file's row is rounded to whole bits as it is computed, so
    # the run peaks near 339 MiB; a float (N, 2^K) map next to the integer one took it to
    # 570 MiB.  The md5 pins the bytes of a sweep at the size limit
    ("size_limit", ["timeout", "60"], "size_limit_sweep.json", [], 448,
     "a0eed4be719365751ae019903232bc3f", None),
    # the twelve-user 256-QAM scenario over MAX_SWEEP_POINTS SNR points (0 to 19.998 dB in
    # 0.002 dB steps), analytic only: 3.2-3.3 s and 160 MiB of peak RSS on a 2-vCPU VM.
    # Each plan's shapes are read once, an analytic run states no Monte Carlo cells, and a
    # report reads each cell once per SNR, so the per-point cost is the reports' sums and
    # the CSV; the md5 pins the 260,001 lines of a sweep at the point limit
    ("long_sweep", ["timeout", "60"], "long_sweep.json", ["--analytic-only"], 256,
     "6c6af6482dbb835dc61bc1fc06a15b5f", 260_001),
]


@pytest.mark.parametrize("prefix, config, flags, limit, want, want_lines",
                         [pytest.param(*row, id=name) for name, *row in PINNED_RUNS])
def test_pinned_run(tmp_path, prefix, config, flags, limit, want, want_lines):
    out = tmp_path / "out.csv"
    args = [*prefix, *CLI, "run", "--config", str(SCRIPTS / config), *flags, "--out", str(out)]
    status, peak, _ = run(args)
    data = out.read_bytes()
    md5, lines = hashlib.md5(data).hexdigest(), data.count(b"\n")
    print(f"peak RSS {peak:.1f} MiB (limit {limit} MiB), {lines} lines, "
          f"csv md5 {md5} (want {want})")
    assert status == 0 and peak <= limit and md5 == want
    assert want_lines is None or lines == want_lines


# many_users' 45 MC cells, as `cli.prepare` states them for a run of the bench workload's
# config, evaluated in-process on one thread, twice.  Brute force's 2^14-entry steps and
# the thread's kept noise buffer are never handed back to the OS, so the second pass takes
# almost no minor page faults (0-40 on a 2-vCPU VM), where 2^16-entry steps and a noise
# buffer per cell took about 4,500
PAGE_FAULT_GATE = """
import resource, sys
import cachemod as cm
from cachemod import cli
with open("perfbench/workloads/many_users.json") as f:
    cfg = cli.parse_config(f.read())
s = cli.prepare(cfg)
for run in (1, 2):
    table = cm.estimate_table(cfg.constellation, cfg.trials_per_cell, cfg.master_seed)  # a fresh cache
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for shape, gamma in s.cells:
        table(shape, gamma)  # on this thread; `fill` would spread them over threads
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(f"pass {run}: {len(s.cells)} cells, {faults} minor page faults")
sys.exit(1 if faults > 1000 else 0)
"""


def test_page_fault_gate():
    status, _, out = run([sys.executable, "-c", PAGE_FAULT_GATE])
    print(out, end="")
    assert status == 0


# every PSK symbol is decided by brute force over its compatible points, up to 256 of
# them; planning and the noiseless check of both schemes at K=3, B=1e6 with 256-PSK took
# about 0.25 s and 53 MiB of peak RSS on a 2-vCPU VM, and the timeout catches a detector
# that is far slower still.  256-QAM then runs the same check through the label -> point
# map's QAM tables and the sliced detector (about 0.05 s)
END_TO_END_256 = """
import resource, sys, time
import cachemod as cm
files = (0.3333333333333333, 0.3333333333333333, 0.3333333333333334)
library = cm.Library(files, 1_000_000)
placement = cm.sample_placement(library, cm.CacheProfile((0.2, 1 / 3, 0.5)), seed=2024)
subfiles = cm.realized_subfile_map(placement)
demands, failed = cm.DemandVector((3, 1, 2)), False
for name, c in (("256-PSK", cm.build_psk(8)), ("256-QAM", cm.build_qam(8))):
    start, passed = time.perf_counter(), True
    for scheme in cm.SCHEMES:
        plan = cm.build_delivery_plan(subfiles, demands, scheme, c.m)
        passed = cm.end_to_end_noiseless(placement, plan, demands, c).all_passed and passed
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{name}, both schemes: {elapsed:.2f} s, peak RSS {peak:.1f} MiB, all passed {passed}")
    failed = failed or not passed
sys.exit(1 if failed else 0)
"""


def test_end_to_end_256_psk_and_qam():
    status, _, out = run(["timeout", "60", sys.executable, "-c", END_TO_END_256])
    print(out, end="")
    assert status == 0
