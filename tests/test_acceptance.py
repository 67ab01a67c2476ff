"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them live).
"""

import math
import time

import numpy as np
import pytest

import cachemod as cm
from cachemod.cli import main, parse_config
from conftest import compatible_labels, subset_code


def _verdict(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f} s, limit {limit:.0f} s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit} s ({elapsed:.2f} s)"


# ---------------------------------------------------------------------------
# criterion 3/5 share one sweep of the heterogeneous three-user scenario
# ---------------------------------------------------------------------------

SWEEP_DB = tuple(range(0, 21, 2))
TRIALS = 100_000


@pytest.fixture(scope="module")
def three_user_sweep():
    """K=3, mu=(1/5,1/3,1/2), equal files, 8PSK, shared SNR 0..20 dB.

    B = 27000 makes every message length divisible by the 3-bit label, so
    the smallest-cache user's symbols look identical under both schemes.
    """
    lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 27000)
    caches = cm.CacheProfile((1 / 5, 1 / 3, 1 / 2))
    demands = cm.DemandVector((1, 2, 3))
    c = cm.build_psk(3)
    subfiles = cm.expected_subfile_lengths(lib, caches)
    plans = {s: cm.build_delivery_plan(subfiles, demands, s, 3) for s in cm.SCHEMES}

    start = time.perf_counter()
    results = {}
    for snr_db in SWEEP_DB:
        gamma = 10 ** (snr_db / 10)
        for scheme, plan in plans.items():
            analytic = cm.ser_report(plan, (gamma,) * 3, cm.bound_table(c))
            empirical = cm.ser_report(plan, (gamma,) * 3, cm.estimate_table(c, TRIALS, 2024))
            results[(scheme, snr_db)] = (analytic, empirical)
    return results, time.perf_counter() - start


def test_criterion_1_distance_law_suite():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 9):
        c = cm.build_psk(m)
        for n in range(m):
            want = 2 * math.sin(math.pi / 2 ** (m - n))
            ok &= abs(cm.min_distance(c, n) - want) <= 1e-9 * want
    for m in (2, 4, 6, 8):
        c = cm.build_qam(m)
        for n in range(m):
            want = math.sqrt(2) ** n * c.spacing
            ok &= abs(cm.min_distance(c, n) - want) <= 1e-9 * want
    _verdict(1, "set-partitioning distance laws", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_analytic_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    constellations = (cm.build_psk(3), cm.build_qam(4))
    ok = True
    for trial in range(100):
        k = 2 + trial % 3
        n = int(rng.integers(k, k + 3))
        fr = rng.random(n) + 0.1
        lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(240, 1500)))
        caches = cm.CacheProfile(tuple(np.sort(rng.random(k) * 0.95)))
        subfiles = cm.expected_subfile_lengths(lib, caches)
        demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
        for c in constellations:
            plans = {s: cm.build_delivery_plan(subfiles, demands, s, c.m) for s in cm.SCHEMES}
            for gamma in (1.0, 10.0):
                gammas = (gamma,) * k
                reports = {s: cm.ser_report(p, gammas, cm.bound_table(c)) for s, p in plans.items()}
                for u in range(1, k + 1):
                    ok &= (
                        reports[cm.PROPOSED].ser[u]
                        <= reports[cm.ZERO_PADDING].ser[u] + 1e-12
                    )
    _verdict(2, "per-user dominance on 100 random instances", ok, time.perf_counter() - t0, 10.0)


def test_criterion_3_trend_reproduction(three_user_sweep):
    results, sweep_time = three_user_sweep
    t0 = time.perf_counter()
    ok = True
    for snr_db in SWEEP_DB:
        ap, ep = results[(cm.PROPOSED, snr_db)]
        az, ez = results[(cm.ZERO_PADDING, snr_db)]

        # smallest cache: no analytic difference, empirical within 3 sigma
        ok &= abs(az.ser[1] - ap.ser[1]) <= 1e-15
        sigma1 = math.sqrt(ep.stderr[1] ** 2 + ez.stderr[1] ** 2)
        ok &= abs(ez.ser[1] - ep.ser[1]) <= 3 * sigma1

        # gains ordered by cache size, analytically and empirically
        gains_a = {u: az.ser[u] - ap.ser[u] for u in (1, 2, 3)}
        ok &= gains_a[2] >= -1e-12
        ok &= gains_a[3] >= gains_a[2] - 1e-12
        gains_e = {u: ez.ser[u] - ep.ser[u] for u in (2, 3)}
        sig = {u: math.sqrt(ep.stderr[u] ** 2 + ez.stderr[u] ** 2) for u in (2, 3)}
        ok &= gains_e[2] >= -3 * sig[2]
        ok &= gains_e[3] >= gains_e[2] - 3 * math.sqrt(sig[2] ** 2 + sig[3] ** 2)

        # the average follows the per-user ordering
        ok &= ap.average_ser <= az.average_ser + 1e-12
        sig_avg = ep.average_stderr + ez.average_stderr
        ok &= ep.average_ser <= ez.average_ser + 3 * sig_avg
    elapsed = sweep_time + (time.perf_counter() - t0)
    _verdict(3, "three-user scenario trends", ok, elapsed, 120.0)


def test_criterion_4_mc_vs_exact_two_point_oracle():
    t0 = time.perf_counter()
    ok = True
    for c in (cm.build_psk(3), cm.build_qam(4)):
        for prefix in range(c.m):
            shape = (prefix, c.m - 1 - prefix)
            # exact SER: average the binary error probability over every
            # assignment of the known bits (uniform labels mix assignments)
            for gamma in (1.0, 4.0, 10.0):
                exact = 0.0
                count = 1 << (c.m - 1)
                for value in range(count):
                    pair = compatible_labels(c, shape, value)
                    assert len(pair) == 2
                    a, b = c.points[pair]
                    d_sub = abs(complex(a) - complex(b))
                    exact += float(cm.q_function(math.sqrt(gamma / 2) * d_sub)) / count
                ser, std_error = cm.estimate_cell_ser(
                    c, shape, gamma, 1_000_000, 88, f"oracle:{c.family}{c.m}:{shape}:{gamma}"
                )
                ok &= abs(ser - exact) <= 3 * max(std_error, 1e-9)
    _verdict(4, "Monte Carlo matches exact 2-point error", ok, time.perf_counter() - t0, 60.0)


def test_criterion_5_union_bound_validity(three_user_sweep):
    results, _ = three_user_sweep
    t0 = time.perf_counter()
    ok = True
    for (scheme, snr_db), (analytic, empirical) in results.items():
        for u in (1, 2, 3):
            ok &= empirical.ser[u] <= analytic.ser[u] + 3 * empirical.stderr[u]
    _verdict(5, "empirical rates stay under analytic bounds", ok, time.perf_counter() - t0, 60.0)


def test_criterion_6_end_to_end_decodability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    for trial in range(50):
        k = 2 + trial % 3
        n = int(rng.integers(k, k + 2))
        fr = rng.random(n) + 0.2
        lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(60, 1200)))
        caches = cm.CacheProfile(tuple(np.sort(rng.random(k) * 0.9)))
        placement = cm.sample_placement(lib, caches, seed=trial)
        subfiles = cm.realized_subfile_map(placement)
        demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
        if trial % 2:
            c = cm.build_qam(int(rng.choice([2, 4])))
        else:
            c = cm.build_psk(int(rng.integers(1, 5)))
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(subfiles, demands, scheme, c.m)
            result = cm.end_to_end_noiseless(placement, plan, demands, c)
            ok &= result.all_passed
    _verdict(6, "noiseless end-to-end recovery, 50 instances", ok, time.perf_counter() - t0, 30.0)


def test_criterion_7_placement_concentration():
    t0 = time.perf_counter()
    lib = cm.Library((0.6, 0.4), 10**5)
    caches = cm.CacheProfile((1 / 3, 1 / 3))
    checks = 0
    hits = 0
    for seed in range(100):
        realized = cm.realized_subfile_map(cm.sample_placement(lib, caches, seed))
        for i, nbits in enumerate(lib.file_bits, start=1):
            for code in range(4):
                subset = frozenset(u for u in (1, 2) if code & (1 << (u - 1)))
                # F_i * B * p, p taken user by user: the unrounded expected length
                prob = math.prod(mu if u in subset else 1 - mu for u, mu in enumerate(caches.mus, 1))
                mean = lib.file_fractions[i - 1] * lib.total_bits * prob
                p = mean / nbits
                sigma = math.sqrt(nbits * p * (1 - p))
                checks += 1
                hits += abs(realized.lengths[i - 1, subset_code(subset)] - mean) <= 3 * sigma
    ok = hits / checks >= 0.99
    _verdict(7, f"placement within 3 sigma ({hits}/{checks})", ok, time.perf_counter() - t0, 60.0)


def test_criterion_8_deterministic_csv(tmp_path):
    t0 = time.perf_counter()
    scenario = """{
      "users": [{"mu": 0.2}, {"mu": 0.3333333333333333}, {"mu": 0.5}],
      "files": [0.3333333333333333, 0.3333333333333333, 0.3333333333333334],
      "total_bits": 2700,
      "modulation": {"family": "psk", "m": 3},
      "sweep": {"start_db": 0, "stop_db": 8, "step_db": 4},
      "trials_per_cell": 20000,
      "master_seed": 31
    }"""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(scenario)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _verdict(8, "byte-identical CSV across runs", ok, time.perf_counter() - t0, 60.0)
