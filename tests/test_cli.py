import hashlib
import json
import math
import os
import reprlib
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachemod as cm
from cachemod.caching import MAX_SUBFILE_ENTRIES, MAX_TOTAL_BITS, MAX_USERS
from cachemod.cli import (
    CSV_HEADER,
    MAX_SWEEP_POINTS,
    ScenarioConfig,
    execute_run,
    main,
    parse_config,
    prepare,
    render_csv,
    run_scenario,
)
from conftest import screened_trials, wedge_trials

BASE = {
    "users": [{"mu": 0.2}, {"mu": 1 / 3}, {"mu": 0.5}],
    "files": [1 / 3, 1 / 3, 1 / 3],
    "total_bits": 2700,
    "modulation": {"family": "psk", "m": 3},
    "schemes": ["proposed", "zero_padding"],
    "demands": "worst_case",
    "sweep": {"start_db": 0, "stop_db": 4, "step_db": 2},
    "trials_per_cell": 0,
    "master_seed": 7,
}

THREE_USER_SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "three_user_sweep.json"
# md5 of the three-user sweep CSV (seed 2024, 1e5 trials per cell); refactors
# of the plan, bound or Monte Carlo paths must reproduce these bytes
THREE_USER_SWEEP_MD5 = "6968f02712550b04951653e3d66ea40b"

# twelve users, 256-QAM, analytic only: exercises the 2^K subfile map and the
# quantisation tie-breaking of every one of its 4096 subsets
MANY_USERS = {
    "users": [
        {"mu": 0.05}, {"mu": 0.1318181818181818}, {"mu": 0.21363636363636362},
        {"mu": 0.2954545454545454}, {"mu": 0.3772727272727272}, {"mu": 0.459090909090909},
        {"mu": 0.5409090909090909}, {"mu": 0.6227272727272727}, {"mu": 0.7045454545454545},
        {"mu": 0.7863636363636363}, {"mu": 0.868181818181818}, {"mu": 0.95},
    ],
    "files": [0.08333333333333333] * 12,
    "total_bits": 100000,
    "modulation": {"family": "qam", "m": 8},
    "schemes": ["proposed", "zero_padding"],
    "demands": "worst_case",
    "sweep": {"start_db": 0, "stop_db": 20, "step_db": 10},
    "trials_per_cell": 0,
    "master_seed": 2024,
}
MANY_USERS_MD5 = "94c6c1aeec92598df85b81d09b013e07"
# the same scenario with 1e4 Monte Carlo trials per cell: pins every draw and
# every 256-QAM detector decision behind the mc_T column
MANY_USERS_MC_MD5 = "f7208f3c8b6143adcc0dbaa3ed4806bc"
# the three-user sweep with 1e4 trials per cell, as one thread computes it
THREE_USER_SWEEP_1E4_MD5 = "bf76a1de831c3726c20abb1dc8165538"

# sixteen users, 256-QAM, B=1e6, 11 SNR points, analytic only; the CI smoke
# step runs it under a timeout, and these bytes are the per-subset loop's
SIXTEEN_USERS = THREE_USER_SWEEP.parent / "sixteen_user_sweep.json"
SIXTEEN_USERS_MD5 = "ba7505305a6a52ad8d28c76da070d3a9"

# the benchmark's workload configs
WORKLOADS = THREE_USER_SWEEP.parent.parent / "perfbench" / "workloads"


def run_python(*args):
    """`python *args` in a fresh interpreter with the package's source first on its path."""
    src = str(THREE_USER_SWEEP.parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def config(**overrides):
    doc = dict(BASE)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_three_user_scenario(self):
        cfg = parse_config(config())
        assert cfg.mus == (0.2, 1 / 3, 0.5)
        assert cfg.family == "psk" and cfg.m == 3
        assert cfg.demands == (1, 2, 3)
        assert cfg.sweep_db == (0.0, 2.0, 4.0)

    def test_missing_seed_defaults_to_zero(self, caplog):
        doc = dict(BASE)
        del doc["master_seed"]
        with caplog.at_level("INFO", logger="cachemod"):
            cfg = parse_config(json.dumps(doc))
        assert cfg.master_seed == 0
        assert any("master_seed" in r.message for r in caplog.records)

    def test_import_leaves_logging_unloaded(self):
        # `logging` is imported only when cachemod logs, so it is no part of set-up
        run = run_python("-c", "import sys, cachemod.cli; print('logging' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_missing_seed_is_logged_by_the_cli(self, tmp_path):
        doc = dict(BASE)
        del doc["master_seed"]
        path = tmp_path / "no_seed.json"
        path.write_text(json.dumps(doc))
        run = run_python("-m", "cachemod.cli", "validate", "--config", str(path))
        assert run.returncode == 0, run.stderr
        assert "cachemod: no master_seed in config; defaulting to 0" in run.stderr.splitlines()

    def test_fraction_sum_diagnostic(self):
        with pytest.raises(cm.ConfigurationError, match="sum to 1.1"):
            parse_config(config(files=[0.5, 0.6]))

    def test_unknown_field_rejected(self):
        with pytest.raises(cm.ConfigurationError, match="snr_floor"):
            parse_config(config(snr_floor=3))

    def test_unknown_user_field_rejected(self):
        with pytest.raises(cm.ConfigurationError, match="user 1"):
            parse_config(config(users=[{"mu": 0.2, "cache": 1}, {"mu": 0.5}]))

    def test_mu_out_of_range(self):
        with pytest.raises(cm.ConfigurationError):
            parse_config(config(users=[{"mu": -0.1}, {"mu": 0.5}]))

    def test_unsorted_mus_rejected(self):
        with pytest.raises(cm.ConfigurationError, match="sorted"):
            parse_config(config(users=[{"mu": 0.5}, {"mu": 0.2}]))

    def test_duplicate_demands_rejected(self):
        with pytest.raises(cm.ConfigurationError):
            parse_config(config(demands=[1, 1, 2]))

    def test_odd_qam_width_rejected(self):
        with pytest.raises(cm.ConfigurationError):
            parse_config(config(modulation={"family": "qam", "m": 3}))

    def test_not_json(self):
        with pytest.raises(cm.ConfigurationError):
            parse_config("users: nope")

    def test_worst_case_assigns_largest_file_first(self):
        cfg = parse_config(config(files=[0.2, 0.5, 0.3]))
        assert cfg.demands == (2, 3, 1)

    def test_explicit_demands(self):
        cfg = parse_config(config(demands=[3, 1, 2]))
        assert cfg.demands == (3, 1, 2)

    def test_per_user_fixed_snr(self):
        cfg = parse_config(
            config(users=[{"mu": 0.2, "snr_db": 6.0}, {"mu": 1 / 3}, {"mu": 0.5}])
        )
        assert cfg.user_snr_db == (6.0, None, None)

    def test_user_count_bounded_before_allocation(self):
        users = [{"mu": 0.5}] * (MAX_USERS + 1)
        with pytest.raises(cm.ConfigurationError, match=f"limit of {MAX_USERS}"):
            parse_config(config(users=users, files=[1 / len(users)] * len(users)))


# (field, bad value, the document overrides that state it or None, message fragment)
CONFIG_RULES = [
    ("trials_per_cell", -5, {"trials_per_cell": -5}, "trials_per_cell -5 outside 0.."),
    ("master_seed", -1, {"master_seed": -1}, "master_seed must be an integer in [0, 2**64)"),
    ("master_seed", 2**64, {"master_seed": 2**64}, "master_seed must be an integer in [0, 2**64)"),
    ("user_snr_db", (None, None), None, "user_snr_db must have one entry per user"),
    # a numpy bool is no more a dB value than a Python bool
    ("user_snr_db", (np.True_, None, None), None, "has no finite positive linear SNR"),
    ("sweep_db", (np.True_,), None, "has no finite positive linear SNR"),
    (
        "sweep_db",
        (2.0, 2.000000001),
        {"sweep": {"start_db": 2, "stop_db": 2.000000001, "step_db": 1e-9}},
        "SNR points would print alike",
    ),
    # equal as numbers, printed apart: one gamma evaluated twice, its rows interleaved
    ("sweep_db", (-0.0, 0.0), None, "SNR points would print alike"),
    ("schemes", (), {"schemes": []}, "at least one scheme required"),
    (
        "schemes",
        ("proposed", "proposed"),
        {"schemes": ["proposed", "proposed"]},
        "duplicate schemes are not supported",
    ),
    ("output", "", {"output": ""}, "output must be a non-empty file path"),
    # NaN fails no `<= 0` test; a document's NaN is rejected as it is read
    ("file_fractions", (math.nan, 0.5, 0.5), None, "file fractions must be positive"),
    (
        "mus",
        (0.5, 1 / 3, 0.2),
        {"users": [{"mu": 0.5}, {"mu": 1 / 3}, {"mu": 0.2}]},
        "cache fractions must be sorted non-decreasing",
    ),
    ("demands", (1, 1, 2), {"demands": [1, 1, 2]}, "duplicate demands are not supported"),
    ("family", "qam", {"modulation": {"family": "qam", "m": 3}}, "QAM requires even m"),
    # a document's sweep is bounded as its grid is built (`test_sweep_point_count_bounded`)
    ("sweep_db", (), None, f"sweep has 0 SNR points, not 1 to {MAX_SWEEP_POINTS}"),
    (
        "sweep_db",
        tuple(i / 1000 for i in range(2 * MAX_SWEEP_POINTS)),
        None,
        f"sweep has {2 * MAX_SWEEP_POINTS} SNR points, not 1 to {MAX_SWEEP_POINTS}",
    ),
]


@pytest.mark.parametrize(
    "field, value, doc, message",
    CONFIG_RULES,
    ids=[f"{f}={reprlib.repr(v)}" for f, v, *_ in CONFIG_RULES],  # a long sweep's id abbreviated
)
def test_every_way_of_making_a_config_checks_the_same_rules(field, value, doc, message):
    # the config states the rules, so a config derived with `replace` (as the
    # CLI flags and the benchmark derive theirs) is rejected as a document is
    cfg = parse_config(config())
    with pytest.raises(cm.ConfigurationError) as info:
        replace(cfg, **{field: value})
    assert message in str(info.value)
    if doc is not None:
        with pytest.raises(cm.ConfigurationError) as info:
            parse_config(config(**doc))
        assert message in str(info.value)


@pytest.mark.parametrize("form", [list, np.array])
@pytest.mark.parametrize(
    "field", ["mus", "user_snr_db", "file_fractions", "schemes", "demands", "sweep_db"]
)
def test_equal_scenarios_compare_and_hash_equal(field, form):
    cfg = parse_config(config(users=[{"mu": 0.2, "snr_db": 3.0}, {"mu": 1 / 3}, {"mu": 0.5}]))
    other = replace(cfg, **{field: form(getattr(cfg, field))})
    assert other == cfg and hash(other) == hash(cfg)
    assert type(getattr(other, field)) is tuple


def forbidden(name):
    """A stand-in for `name` that fails the test if it is called."""

    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return call


class WorkCounts(Counter):
    """Counts summed over every thread: `count` wraps a call to add its counts."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._lock, self._monkeypatch = threading.Lock(), monkeypatch

    def count(self, module, name, counts):
        real = getattr(module, name)

        def counted(*args):
            # computed first and then added under the lock, so no count is
            # lost between one thread's read and another's write
            values = counts(*args)
            with self._lock:
                self.update(values)
            return real(*args)

        self._monkeypatch.setattr(module, name, counted)


@pytest.fixture
def work(monkeypatch):
    """Monte Carlo detector work: rows past the noise screen (`past`), rows
    sent to `detect` and to brute force, and brute force's candidate distances."""
    import cachemod.mc as mc
    import cachemod.modem as modem

    counts = WorkCounts(monkeypatch)
    counts.count(mc, "_errors", lambda c, shape, sqrt_gamma, sent, noise, labels: {"past": len(labels)})
    counts.count(mc, "detect", lambda c, y, *rest: {"detect": len(y)})
    counts.count(modem, "_brute_force", lambda c, y, sqrt_snr, shape, known: {
        "brute": len(y), "distances": len(y) << (c.m - shape[0] - shape[1]),
    })
    return counts


class TestRunScenario:
    def test_row_grid(self):
        rows = run_scenario(parse_config(config()))
        # 3 grid points x 2 schemes x (3 users + avg)
        assert len(rows) == 3 * 2 * 4
        one_point = [r for r in rows if r.snr_db == 0.0]
        assert len(one_point) == 8
        assert [r.user for r in one_point[:4]] == ["1", "2", "3", "avg"]

    def test_analytic_only_leaves_mc_empty(self):
        cfg = parse_config(config())
        assert prepare(cfg).cells == []  # no Monte Carlo cell is stated, so none is estimated
        rows = run_scenario(cfg)
        assert all(r.mc_ser is None and r.mc_stderr is None for r in rows)
        text = render_csv(rows)
        assert ",,," in text.splitlines()[1] or text.splitlines()[1].count(",") == 7

    def test_single_user_without_cache_matches_plain_bound(self):
        doc = config(
            users=[{"mu": 0.0}],
            files=[1.0],
            total_bits=300,
            demands=[1],
            sweep={"start_db": 6, "stop_db": 6, "step_db": 1},
        )
        rows = run_scenario(parse_config(doc))
        gamma = 10 ** 0.6
        want = cm.symbol_error_bound(
            "psk", gamma, cm.min_distance(cm.build_psk(3), 0)
        )
        user_row = [r for r in rows if r.user == "1" and r.scheme == "proposed"][0]
        assert user_row.analytic_ser == pytest.approx(want, rel=1e-12)

    def test_average_row_is_user_mean(self):
        rows = run_scenario(parse_config(config()))
        for scheme in ("proposed", "zero_padding"):
            chunk = [r for r in rows if r.snr_db == 2.0 and r.scheme == scheme]
            users = [r for r in chunk if r.user != "avg"]
            avg = [r for r in chunk if r.user == "avg"][0]
            assert avg.analytic_ser == pytest.approx(
                sum(r.analytic_ser for r in users) / len(users)
            )


    def test_analytic_cost_independent_of_library_size(self, monkeypatch):
        # no label may be encoded or decoded on the sweep path, even for B = 1e9
        for module in (cm.caching, cm.mc):
            for name in ("encode_block", "decode_block"):
                monkeypatch.setattr(module, name, forbidden(name))
        rows = run_scenario(parse_config(config(total_bits=10**9)))
        assert len(rows) == 3 * 2 * 4
        assert all(r.useful > 0 for r in rows)

    def test_three_user_sweep_csv_is_pinned(self):
        cfg = parse_config(THREE_USER_SWEEP.read_text())
        text = render_csv(run_scenario(cfg))
        assert hashlib.md5(text.encode()).hexdigest() == THREE_USER_SWEEP_MD5

    def test_csv_independent_of_scheme_and_point_order(self):
        # rows come in CSV order whatever order the config lists its schemes and points in
        cfg = replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=1000)
        assert cfg.schemes == ("proposed", "zero_padding")
        shuffled = replace(cfg, schemes=cfg.schemes[::-1], sweep_db=cfg.sweep_db[::-1])
        assert render_csv(run_scenario(shuffled)) == render_csv(run_scenario(cfg))

    def test_run_builds_nothing_the_config_built(self, monkeypatch):
        # the config keeps the library, caches, demands and constellation its
        # checks built, and the run reads those
        cfg = parse_config(THREE_USER_SWEEP.read_text())
        for name in ("Library", "CacheProfile", "DemandVector", "build_constellation"):
            monkeypatch.setattr(cm.cli, name, forbidden(name))
        text = render_csv(run_scenario(cfg))
        assert hashlib.md5(text.encode()).hexdigest() == THREE_USER_SWEEP_MD5

    def test_each_cell_evaluated_once_per_run(self, monkeypatch):
        # both schemes and all eleven SNR points share one bound table and one
        # estimate table: 33 distinct (shape, gamma) cells, 3 distinct shapes.
        # Each bound cell asks `min_distance` for its shape, and `modem`'s
        # cache enumerates each shape once
        import cachemod.analysis as an
        import cachemod.mc as mc
        import cachemod.modem as modem

        calls = {"cells": [], "shapes": []}
        real_cell, real_dmin = mc.estimate_cell_ser, an.min_distance

        def cell(c, shape, gamma, trials, seed, cell_id):
            calls["cells"].append((shape, gamma))
            return real_cell(c, shape, gamma, trials, seed, cell_id)

        def dmin(c, *shape):
            calls["shapes"].append(shape)
            return real_dmin(c, *shape)

        monkeypatch.setattr(mc, "estimate_cell_ser", cell)
        monkeypatch.setattr(an, "min_distance", dmin)
        cfg = replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=10)
        run_scenario(cfg)
        assert len(calls["cells"]) == len(set(calls["cells"])) == 33
        # the prepared scenario states the cells, and the run evaluates exactly those
        assert sorted(calls["cells"]) == prepare(cfg).cells
        assert len(calls["shapes"]) == 33 and len(set(calls["shapes"])) == 3
        # likewise with user 1 at a fixed SNR: no cell of another user's shape at its SNR
        fixed = replace(cfg, user_snr_db=(5.0, None, None))
        assert [p[0] for p in fixed.profiles] == [10.0 ** 0.5] * len(cfg.sweep_db)
        assert [p[1:] for p in fixed.profiles] == [p[1:] for p in cfg.profiles]
        calls["cells"].clear()
        run_scenario(fixed)
        assert len(calls["cells"]) == len(set(calls["cells"]))
        assert sorted(calls["cells"]) == prepare(fixed).cells
        # analytic only: MC cells call `min_distance` on helper threads, and
        # two threads missing one key together may both enumerate it.  No
        # estimate table is built
        monkeypatch.setattr(cm.cli, "estimate_table", forbidden("estimate_table"))
        modem._min_distance.cache_clear()
        run_scenario(replace(cfg, trials_per_cell=0))
        assert modem._min_distance.cache_info().misses == 3

    def test_shapes_are_read_once_per_plan(self, monkeypatch):
        # a plan's shape histograms are fixed once it is built, so a longer
        # sweep asks `known_shape` for no more shapes
        calls = []
        real = cm.caching.known_shape

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cm.caching, "known_shape", counting)
        cfg = replace(parse_config((WORKLOADS / "many_users.json").read_text()), trials_per_cell=0)
        counts = []
        for points in (3, 30):
            calls.clear()
            run_scenario(replace(cfg, sweep_db=tuple(float(db) for db in range(points))))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_detector_rarely_falls_back_to_brute_force(self, work):
        # the paper sweep's 8PSK cells and the 256-QAM prefix cells have
        # structured detectors; brute force is only for the rows next to a
        # decision boundary or a checkerboard tie, or outside the radius
        # window.  Rows whose noise stays inside the screen radius never reach
        # `detect`, nor do the 8PSK rows that the wedge test decides; replaying
        # each cell's stream counts both independently.  The bound is over the
        # rows past the screen: the wedge leaves `detect` so few rows that one
        # row near the origin would break a bound over those
        import cachemod.mc as mc

        work.count(mc, "estimate_cell_ser", lambda c, shape, gamma, trials, seed, cell_id: {
            "screened": int(screened_trials(c, shape, gamma, trials, seed, cell_id).sum()),
            "wedge": int(wedge_trials(c, shape, gamma, trials, seed, cell_id).sum()),
            "trials": trials,
        })
        run_scenario(replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=10_000))
        assert work["trials"] == 33 * 10_000
        assert work["past"] + work["screened"] == work["trials"]
        assert work["detect"] + work["screened"] + work["wedge"] == work["trials"]
        assert work["brute"] < 1e-3 * (work["trials"] - work["screened"])

        c = cm.build_qam(8)
        for prefixes in ((0, 2, 4, 6), (1, 3, 5, 7)):
            work.clear()
            for p in prefixes:
                for gamma in (1.0, 10.0, 100.0):
                    mc.estimate_cell_ser(c, (p, 0), gamma, 10_000, 3, "fallback")
            assert work["trials"] == 12 * 10_000
            assert work["detect"] + work["screened"] == work["trials"]
            assert work["brute"] < 1e-3 * work["detect"]

        # the pinned K=12 scenario: suffix-shape rows reach brute force when
        # their full-grid decision misses the suffix, and shapes of at most 16
        # candidates entirely, so the bound is on the trials (154,280 brute
        # rows of 450,000 without the screen, 133,798 with it)
        work.clear()
        run_scenario(parse_config(json.dumps(dict(MANY_USERS, trials_per_cell=10_000))))
        assert work["trials"] == 45 * 10_000
        assert work["detect"] + work["screened"] == work["trials"]
        assert work["brute"] < 0.4 * work["trials"]

    @pytest.mark.parametrize(
        "workload, counts",
        [
            ("paper_sweep", {"past": 586_144, "detect": 14, "brute": 14, "distances": 86}),
            (
                "many_users",
                {"past": 289_843, "detect": 289_843, "brute": 133_798, "distances": 3_033_070},
            ),
        ],
    )
    def test_work_counts_are_pinned(self, work, workload, counts):
        # exact for a config and seed, whatever the thread count, since each
        # cell's work depends only on its key.  A rise fails; a change that
        # lowers a count re-pins it here
        cfg = parse_config((WORKLOADS / f"{workload}.json").read_text())
        assert cfg.master_seed == 2024
        table = cm.estimate_table(cfg.constellation, cfg.trials_per_cell, cfg.master_seed)
        table.fill(prepare(cfg).cells)
        assert dict(work) == counts

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_csv_independent_of_thread_count(self, monkeypatch, cpus):
        # each cell draws from its own substream, so the bytes do not depend on
        # how many threads fill the estimate table or which one runs a cell
        import cachemod.analysis as an

        monkeypatch.setattr(an, "_usable_cpus", lambda: cpus)
        three = replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=10_000)
        many = parse_config(json.dumps(dict(MANY_USERS, trials_per_cell=10_000)))
        for cfg, want in ((three, THREE_USER_SWEEP_1E4_MD5), (many, MANY_USERS_MC_MD5)):
            assert hashlib.md5(render_csv(run_scenario(cfg)).encode()).hexdigest() == want

    @pytest.mark.parametrize("error, status", [(cm.ConfigurationError, 2), (RuntimeError, 3)])
    def test_cell_failing_on_a_helper_thread(self, monkeypatch, capsys, tmp_path, error, status):
        # the helper's exception reaches the caller with its own type, so the
        # exit status still tells config errors from runtime errors; the
        # calling thread takes no cell after it, and no thread outlives the run
        import cachemod.analysis as an
        import cachemod.mc as mc
        from cachemod.cli import execute_run

        monkeypatch.setattr(an, "_usable_cpus", lambda: 2)
        raised, calls = threading.Event(), []
        real_cell = mc.estimate_cell_ser

        def cell(c, shape, gamma, trials, seed, cell_id):
            calls.append(cell_id)
            if threading.current_thread() is threading.main_thread():
                raised.wait(timeout=30)  # until the helper has failed
                return real_cell(c, shape, gamma, trials, seed, cell_id)
            raised.set()
            raise error("cell failed")

        monkeypatch.setattr(mc, "estimate_cell_ser", cell)
        cfg = replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=10)
        before = threading.active_count()
        with pytest.raises(error, match="cell failed") as info:
            run_scenario(cfg)
        assert type(info.value) is error
        assert raised.is_set() and len(calls) <= 2
        assert threading.active_count() == before

        raised.clear()
        out = tmp_path / "out.csv"
        assert execute_run(cfg, out=str(out)) == (status, [])
        assert "cell failed" in capsys.readouterr().err
        assert not out.exists()
        assert threading.active_count() == before

    def test_many_users_analytic_csv_is_pinned(self):
        text = render_csv(run_scenario(parse_config(json.dumps(MANY_USERS))))
        assert hashlib.md5(text.encode()).hexdigest() == MANY_USERS_MD5

    def test_many_users_monte_carlo_csv_is_pinned(self):
        doc = dict(MANY_USERS, trials_per_cell=10_000)
        text = render_csv(run_scenario(parse_config(json.dumps(doc))))
        assert hashlib.md5(text.encode()).hexdigest() == MANY_USERS_MC_MD5

# dB values up to and past the edges of a finite positive linear SNR (about
# +-3,080 dB, subnormals included)
EXTREME_DB = st.one_of(st.floats(-40, 40), st.floats(-3300, 3300))
# from one bit to past the 2**62-bit limit
TOTAL_BITS = [(1, 100), (10**3, 10**6), (2**50, 2**62 + 8)]


@st.composite
def near_valid_configs(draw):
    """A scenario document of K <= 4 users at the edges of what `parse_config` takes.

    Cache fractions in [0, 1] (0 and 1 included) in ascending order,
    file fractions that sum to 1 up to rounding, 1 to 2^62 + 8 total bits,
    per-user and sweep SNRs up to +-3,300 dB, any width for either family,
    and 0 to 3 Monte Carlo trials per cell.
    """
    k = draw(st.integers(1, 4))
    mus = sorted(draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)))
    users = [
        {"mu": mu, **({"snr_db": draw(EXTREME_DB)} if draw(st.booleans()) else {})} for mu in mus
    ]
    weights = draw(st.lists(st.floats(1e-3, 1), min_size=k, max_size=k + 2))
    start, step = draw(EXTREME_DB), draw(st.floats(1e-3, 2000))
    return {
        "users": users,
        "files": [w / sum(weights) for w in weights],
        "total_bits": draw(st.one_of(*(st.integers(lo, hi) for lo, hi in TOTAL_BITS))),
        "modulation": {"family": draw(st.sampled_from(["psk", "qam"])), "m": draw(st.integers(1, 8))},
        "sweep": {"start_db": start, "stop_db": start + draw(st.integers(0, 2)) * step, "step_db": step},
        "trials_per_cell": draw(st.integers(0, 3)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
    }


@given(doc=near_valid_configs())
@settings(max_examples=200)
def test_near_valid_configs_run_or_are_rejected(doc, tmp_path_factory):
    # a config either fails validation (exit 2) or runs (exit 0) with every
    # rate a probability; no config reaches a runtime error (exit 3)
    try:
        cfg = parse_config(json.dumps(doc))
    except cm.ConfigurationError:
        return
    status, rows = execute_run(cfg, out=str(tmp_path_factory.mktemp("run") / "out.csv"))
    assert status in (0, 2)  # the error line is on stderr
    for r in rows:
        rates = [r.analytic_ser, r.load] + ([] if r.mc_ser is None else [r.mc_ser])
        assert all(0.0 <= rate <= 1.0 for rate in rates), r


def test_rates_stay_probabilities_past_2_53_symbols():
    # user 1 has 2e16 useful symbols in cells of one trial, so the counts
    # round as floats; an all-error user's rate came out 1.0000000000000002
    doc = {
        "users": [{"mu": 0.09375}, {"mu": 0.5}, {"mu": 0.9375}],
        "files": [0.5832028526458373, 0.3305399186198574, 0.04384508628609686, 0.04241214244820852],
        "total_bits": 115_206_678_180_022_895,
        "modulation": {"family": "psk", "m": 3},
        "sweep": {"start_db": 0.0, "stop_db": 0.0, "step_db": 1.0},
        "trials_per_cell": 1,
        "master_seed": 0,
    }
    rows = run_scenario(parse_config(json.dumps(doc)))
    assert max(r.useful for r in rows if r.user != "avg") > 2**53
    assert max(r.mc_ser for r in rows) == 1.0


class TestCsv:
    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        status, rows = execute_run(parse_config(config()), out=str(path))
        assert status == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        for line, row in zip(lines[1:], rows):
            cols = line.split(",")
            assert float(cols[0]) == row.snr_db
            assert cols[1] == row.scheme
            assert cols[2] == row.user
            assert int(cols[3]) == row.useful
            assert float(cols[4]) == pytest.approx(row.analytic_ser, rel=1e-7)

    def test_empty_results_rejected(self):
        with pytest.raises(cm.ConfigurationError):
            render_csv([])

    @pytest.mark.parametrize("flags, builds", [({}, 0), ({"seed": 3}, 1)])
    def test_run_derives_a_config_only_from_given_flags(self, monkeypatch, capsys, flags, builds):
        # the parsed config already passed its checks, so a run with no flag
        # neither checks nor builds it again
        cfg, built = parse_config(config()), []
        real = ScenarioConfig.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
        status, rows = execute_run(cfg, **flags)
        assert status == 0 and len(built) == builds
        assert capsys.readouterr().out == render_csv(rows)


class TestMain:
    def write(self, tmp_path, text):
        p = tmp_path / "scenario.json"
        p.write_text(text)
        return str(p)

    def test_validate_ok(self, tmp_path, capsys, monkeypatch):
        # `validate` runs the map stage of `prepare` and stops there: it plans nothing
        monkeypatch.setattr(cm.cli, "build_delivery_plan", forbidden("build_delivery_plan"))
        assert main(["validate", "--config", self.write(tmp_path, config())]) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_duplicate_schemes_exit_2(self, tmp_path, capsys, command):
        # each scheme once: a repeated one would write its rows twice
        out = tmp_path / "r.csv"
        args = [command, "--config", self.write(tmp_path, config(schemes=["proposed", "proposed"]))]
        if command == "run":
            args += ["--out", str(out)]
        assert main(args) == 2
        assert "duplicate schemes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output", [None, 5, ""])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_must_be_a_path(self, tmp_path, monkeypatch, capsys, command, output):
        # neither null, a number nor "" names a file: no CSV called "None" or "5"
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", self.write(tmp_path, config(output=output))]) == 2
        assert "output must be a non-empty file path" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_validate_bad_config(self, tmp_path, capsys):
        rc = main(["validate", "--config", self.write(tmp_path, config(files=[0.5, 0.6]))])
        assert rc == 2
        assert "sum to 1.1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"files": 5}, "files must be a list"),
            ({"users": [{"mu": "abc"}, {"mu": 0.5}, {"mu": 0.6}]}, "user 1 mu"),
            ({"total_bits": "x"}, "total_bits"),
            ({"sweep": {"step_db": "a"}}, "sweep step_db"),
            ({"modulation": "psk"}, "modulation must be an object"),
        ],
    )
    def test_validate_wrong_types(self, tmp_path, capsys, overrides, message):
        rc = main(["validate", "--config", self.write(tmp_path, config(**overrides))])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"users": [{"mu": math.nan}, {"mu": 0.5}, {"mu": 0.6}]}, "user 1 mu"),
            ({"users": [{"mu": 0.2, "snr_db": math.nan}, {"mu": 0.5}, {"mu": 0.6}]},
             "user 1 snr_db"),
            ({"sweep": {"stop_db": math.inf}}, "sweep stop_db"),
            ({"users": [{"mu": 0.2, "snr_db": 1e6}, {"mu": 0.5}, {"mu": 0.6}]},
             "user 1 snr_db"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, overrides, message, command):
        rc = main([command, "--config", self.write(tmp_path, config(**overrides))])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("num_files, rc", [(32, 0), (33, 2), (1024, 2)])
    def test_subfile_map_size_bounded(self, tmp_path, capsys, monkeypatch, num_files, rc):
        # 20 users: 32 files make exactly MAX_SUBFILE_ENTRIES map entries, which
        # `validate` rounds without planning
        assert 32 << MAX_USERS == MAX_SUBFILE_ENTRIES
        monkeypatch.setattr(cm.cli, "build_delivery_plan", forbidden("build_delivery_plan"))
        users = [{"mu": i / 40} for i in range(MAX_USERS)]
        doc = config(users=users, files=[1 / num_files] * num_files)
        assert main(["validate", "--config", self.write(tmp_path, doc)]) == rc
        if rc:
            assert "subfile map limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, step_db, rc",
        [
            ("validate", 1e-9, 2),  # 0..20 dB in 2e10 points
            ("run", 1e-9, 2),
            ("validate", 20 / MAX_SWEEP_POINTS, 2),  # one point over the limit
            ("run", 20 / MAX_SWEEP_POINTS, 2),
            ("validate", 20 / (MAX_SWEEP_POINTS - 1), 0),  # exactly the limit
        ],
    )
    def test_sweep_point_count_bounded(self, tmp_path, capsys, command, step_db, rc):
        doc = config(sweep={"start_db": 0, "stop_db": 20, "step_db": step_db})
        assert main([command, "--config", self.write(tmp_path, doc)]) == rc
        if rc:
            assert "sweep step_db" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, step_db, rc",
        [
            ("validate", 1e-6, 2),  # 1,001 points that print as 11 values
            ("run", 1e-6, 2),
            ("validate", 1e-5, 2),  # 1000.00001 prints as 1000
            ("validate", 1e-4, 0),  # 1000.0001: eight significant digits suffice
        ],
    )
    def test_sweep_points_print_distinctly(self, tmp_path, capsys, command, step_db, rc):
        # the CSV prints 8 significant digits, and (snr_db, scheme, user) keys its rows
        doc = config(sweep={"start_db": 1000, "stop_db": 1000.001, "step_db": step_db})
        assert main([command, "--config", self.write(tmp_path, doc)]) == rc
        if rc:
            assert "sweep step_db" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"total_bits": 27000.7},
            {"modulation": {"family": "psk", "m": 3.9}},
            {"master_seed": 1.9},
            {"demands": [1.5, 2.2, 3]},
            {"trials_per_cell": 10.5},
            {"total_bits": True},
            {"total_bits": "27000"},
            {"users": [{"mu": 0.2}, {"mu": 1 / 3}, {"mu": True}]},
            {"sweep": {"step_db": "2"}},
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_numbers_are_not_coerced(self, tmp_path, capsys, overrides, command):
        # int() and float() used to truncate 27000.7 and read true or "27000"
        rc = main([command, "--config", self.write(tmp_path, config(**overrides))])
        assert rc == 2
        [(key, value)] = overrides.items()
        field = {"modulation": "modulation m", "users": "user 3 mu", "sweep": "sweep step_db"}
        assert f"{field.get(key, key)} has an invalid value" in capsys.readouterr().err

    def test_integral_floats_are_integers(self):
        cfg = parse_config(config(total_bits=2.7e4, master_seed=1e6, demands=[1.0, 2, 3]))
        assert (cfg.total_bits, cfg.master_seed, cfg.demands) == (27000, 10**6, (1, 2, 3))
        assert all(type(v) is int for v in (cfg.total_bits, cfg.master_seed, *cfg.demands))

    @pytest.mark.parametrize(
        "overrides, validate_rc, message",
        [
            # float shares of the files floor 10 bits short of, or above, total_bits
            (
                {"users": [{"mu": 0.2}, {"mu": 0.5}], "files": [0.3, 0.6999999999999],
                 "total_bits": 10**14},
                2,
                "total_bits 100000000000000 has no exact split",
            ),
            (
                {"users": [{"mu": 0.2}, {"mu": 0.5}], "files": [0.3, 0.7000000000001],
                 "total_bits": 10**14},
                2,
                "total_bits 100000000000000 has no exact split",
            ),
            ({"total_bits": 2**56}, 2, f"total_bits {2**56} has no exact split"),
            # the files split exactly, the expected subfile lengths do not
            ({"total_bits": 3 * 2**55}, 2, "expected subfile lengths do not round"),
            (
                {"users": [{"mu": 0.0}, {"mu": 0.0}, {"mu": 0.75}], "files": [0.4, 0.25, 0.35],
                 "total_bits": 75429542837424368},
                2,
                "expected subfile lengths do not round to a 30171817134969748-bit file",
            ),
        ],
    )
    def test_inexact_apportionment_rejected(self, tmp_path, capsys, overrides, validate_rc, message):
        # `validate` rounds the expected map as `run` does, so both reject with one message
        path = self.write(tmp_path, config(**overrides))
        assert main(["validate", "--config", path]) == validate_rc
        validate_err = capsys.readouterr().err
        assert main(["run", "--config", path]) == 2
        run_err = capsys.readouterr().err
        assert message in run_err and validate_err == run_err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("total_bits", [MAX_TOTAL_BITS + 1, 10**20])
    def test_total_bits_bounded(self, tmp_path, capsys, command, total_bits):
        rc = main([command, "--config", self.write(tmp_path, config(total_bits=total_bits))])
        assert rc == 2
        assert f"total_bits {total_bits} exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, md5",
        [
            # above 2**53, where float shares are no longer exact integers
            (config(total_bits=2**53 + 1), "d68bc2d6465ee26b2c833644c6423769"),
            # at the limit; power-of-two fractions keep every share exact
            (
                config(
                    users=[{"mu": 0.5}, {"mu": 0.5}],
                    files=[0.5, 0.5],
                    total_bits=MAX_TOTAL_BITS,
                ),
                "b2060250ab24aa0ac2bc952670de56c8",
            ),
        ],
    )
    def test_large_libraries_run(self, tmp_path, capsys, doc, md5):
        assert main(["run", "--config", self.write(tmp_path, doc)]) == 0
        assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5

    def test_sixteen_user_script_is_pinned(self, tmp_path):
        cfg = parse_config(SIXTEEN_USERS.read_text())
        assert (len(cfg.mus), cfg.m, len(cfg.sweep_db), cfg.total_bits) == (16, 8, 11, 10**6)
        out = tmp_path / "sixteen.csv"
        assert main(["run", "--config", str(SIXTEEN_USERS), "--analytic-only", "--out", str(out)]) == 0
        assert hashlib.md5(out.read_bytes()).hexdigest() == SIXTEEN_USERS_MD5

    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == 2

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            ["run", "--config", self.write(tmp_path, config()), "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_run_byte_identical_across_runs(self, tmp_path):
        cfg = self.write(tmp_path, config(trials_per_cell=2000))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_mc(self, tmp_path):
        cfg = self.write(tmp_path, config(trials_per_cell=2000))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_analytic_only_flag(self, tmp_path):
        cfg = self.write(tmp_path, config(trials_per_cell=2000))
        out = tmp_path / "a.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--analytic-only"]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[5] == "" and row[6] == ""

    @pytest.mark.parametrize("trials", ["-5", "500"])
    def test_trials_and_analytic_only_exclude_each_other(self, tmp_path, capsys, trials):
        # neither flag silently overrides the other, even a value the config would reject
        cfg = self.write(tmp_path, config(trials_per_cell=2000))
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", cfg, "--out", str(out), "--analytic-only", "--trials", trials])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "not allowed with argument" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--trials", "-5", "trials_per_cell"),
            ("--seed", "-1", "master_seed"),
            ("--seed", str(2**64), "master_seed"),
            ("--seed", "99999999999999999999999", "master_seed"),
            ("--out", "", "output"),
        ],
    )
    def test_flag_overrides_are_checked(self, tmp_path, capsys, flag, value, field):
        # the values the config file rejects are rejected as flags too
        cfg = self.write(tmp_path, config(trials_per_cell=2000))
        out = tmp_path / "r.csv"
        assert main(["run", "--config", cfg, "--out", str(out), flag, value]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_flag_is_analytic_only(self, tmp_path):
        cfg = self.write(tmp_path, config(trials_per_cell=2000))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(a), "--trials", "0"]) == 0
        assert main(["run", "--config", cfg, "--out", str(b), "--analytic-only", "--seed", "0"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1].split(",")[5:7] == ["", ""]

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg = self.write(tmp_path, config())
        rc = main(["run", "--config", cfg, "--out", "/nonexistent-dir/x.csv"])
        assert rc == 3

    def test_stdout_when_no_output(self, tmp_path, capsys):
        rc = main(["run", "--config", self.write(tmp_path, config())])
        assert rc == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)
