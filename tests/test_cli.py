import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import cachemod as cm
from cachemod.caching import MAX_SUBFILE_ENTRIES, MAX_TOTAL_BITS, MAX_USERS
from cachemod.cli import (
    CSV_HEADER,
    MAX_SWEEP_POINTS,
    emit_csv,
    main,
    parse_config,
    render_csv,
    run_scenario,
)

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

# sixteen users, 256-QAM, B=1e6, 11 SNR points, analytic only; the CI smoke
# step runs it under a timeout, and these bytes are the per-subset loop's
SIXTEEN_USERS = THREE_USER_SWEEP.parent / "sixteen_user_sweep.json"
SIXTEEN_USERS_MD5 = "ba7505305a6a52ad8d28c76da070d3a9"


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


class TestRunScenario:
    def test_row_grid(self):
        rows = run_scenario(parse_config(config()))
        # 3 grid points x 2 schemes x (3 users + avg)
        assert len(rows) == 3 * 2 * 4
        one_point = [r for r in rows if r.snr_db == 0.0]
        assert len(one_point) == 8
        assert [r.user for r in one_point[:4]] == ["1", "2", "3", "avg"]

    def test_analytic_only_leaves_mc_empty(self):
        rows = run_scenario(parse_config(config()))
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
        # no block object may be built on the sweep path, even for B = 1e9
        def no_blocks(self, *args, **kwargs):
            raise AssertionError("sweep built a MulticastBlockSpec")

        monkeypatch.setattr(cm.caching.MulticastBlockSpec, "__init__", no_blocks)
        rows = run_scenario(parse_config(config(total_bits=10**9)))
        assert len(rows) == 3 * 2 * 4
        assert all(r.useful > 0 for r in rows)

    def test_three_user_sweep_csv_is_pinned(self):
        cfg = parse_config(THREE_USER_SWEEP.read_text())
        text = render_csv(run_scenario(cfg))
        assert hashlib.md5(text.encode()).hexdigest() == THREE_USER_SWEEP_MD5

    def test_each_cell_evaluated_once_per_run(self, monkeypatch):
        # both schemes and all eleven SNR points share one bound table and one
        # estimate table: 33 distinct (shape, gamma) cells, 3 distinct shapes
        import cachemod.analysis as an
        import cachemod.mc as mc

        calls = {"cells": [], "shapes": []}
        real_cell, real_dmin = mc.estimate_cell_ser, an.min_distance

        def cell(c, shape, gamma, cfg, cell_id):
            calls["cells"].append((shape, gamma))
            return real_cell(c, shape, gamma, cfg, cell_id)

        def dmin(c, *shape):
            calls["shapes"].append(shape)
            return real_dmin(c, *shape)

        monkeypatch.setattr(mc, "estimate_cell_ser", cell)
        monkeypatch.setattr(an, "min_distance", dmin)
        cfg = replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=10)
        run_scenario(cfg)
        assert len(calls["cells"]) == len(set(calls["cells"])) == 33
        assert len(calls["shapes"]) == len(set(calls["shapes"])) == 3

    def test_detector_rarely_falls_back_to_brute_force(self, monkeypatch):
        # the paper sweep's 8PSK cells and the 256-QAM prefix cells have
        # structured detectors; brute force is only for the rows next to a
        # decision boundary or a checkerboard tie, or outside the radius window
        import cachemod.mc as mc
        import cachemod.modem as modem

        rows = {"all": 0, "brute": 0}
        real_detect, real_brute = mc.detect, modem._brute_force

        def detect(c, y, *args):
            rows["all"] += len(y)
            return real_detect(c, y, *args)

        def brute(c, y, *args):
            rows["brute"] += len(y)
            return real_brute(c, y, *args)

        monkeypatch.setattr(mc, "detect", detect)
        monkeypatch.setattr(modem, "_brute_force", brute)
        run_scenario(replace(parse_config(THREE_USER_SWEEP.read_text()), trials_per_cell=10_000))
        assert rows["all"] == 33 * 10_000
        assert rows["brute"] < 1e-3 * rows["all"]

        c, cfg = cm.build_qam(8), cm.CampaignConfig(trials_per_cell=10_000, master_seed=3)
        for prefixes in ((0, 2, 4, 6), (1, 3, 5, 7)):
            rows.update(all=0, brute=0)
            for p in prefixes:
                for gamma in (1.0, 10.0, 100.0):
                    cm.estimate_cell_ser(c, (p, 0), gamma, cfg, "fallback")
            assert rows["all"] == 12 * 10_000
            assert rows["brute"] < 1e-3 * rows["all"]

        # the pinned K=12 scenario: suffix-shape rows reach brute force when
        # their full-grid decision misses the suffix, and shapes of at most 16
        # candidates entirely
        rows.update(all=0, brute=0)
        run_scenario(parse_config(json.dumps(dict(MANY_USERS, trials_per_cell=10_000))))
        assert rows["all"] == 45 * 10_000
        assert rows["brute"] < 0.4 * rows["all"]

    def test_many_users_analytic_csv_is_pinned(self):
        text = render_csv(run_scenario(parse_config(json.dumps(MANY_USERS))))
        assert hashlib.md5(text.encode()).hexdigest() == MANY_USERS_MD5

    def test_many_users_monte_carlo_csv_is_pinned(self):
        doc = dict(MANY_USERS, trials_per_cell=10_000)
        text = render_csv(run_scenario(parse_config(json.dumps(doc))))
        assert hashlib.md5(text.encode()).hexdigest() == MANY_USERS_MC_MD5

class TestCsv:
    def test_header_and_roundtrip(self, tmp_path):
        rows = run_scenario(parse_config(config()))
        path = tmp_path / "out.csv"
        emit_csv(rows, str(path))
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


class TestMain:
    def write(self, tmp_path, text):
        p = tmp_path / "scenario.json"
        p.write_text(text)
        return str(p)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", self.write(tmp_path, config())]) == 0

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
    def test_subfile_map_size_bounded(self, tmp_path, capsys, num_files, rc):
        # 20 users: 32 files make exactly MAX_SUBFILE_ENTRIES map entries
        assert 32 << MAX_USERS == MAX_SUBFILE_ENTRIES
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
            ({"total_bits": 3 * 2**55}, 0, "expected subfile lengths do not round"),
        ],
    )
    def test_inexact_apportionment_rejected(self, tmp_path, capsys, overrides, validate_rc, message):
        path = self.write(tmp_path, config(**overrides))
        assert main(["validate", "--config", path]) == validate_rc
        assert main(["run", "--config", path]) == 2
        assert message in capsys.readouterr().err

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

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg = self.write(tmp_path, config())
        rc = main(["run", "--config", cfg, "--out", "/nonexistent-dir/x.csv"])
        assert rc == 3

    def test_stdout_when_no_output(self, tmp_path, capsys):
        rc = main(["run", "--config", self.write(tmp_path, config())])
        assert rc == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)
