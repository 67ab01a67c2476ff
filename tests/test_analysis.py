import math
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import cachemod as cm
import cachemod.analysis as analysis
from conftest import message_subsets, oracle_blocks, oracle_shape, shape_histogram, subfile_map


def gaussian_tail(x):
    """Numeric-integration oracle for the Gaussian tail probability."""
    val, _ = integrate.quad(
        lambda u: math.exp(-u * u / 2) / math.sqrt(2 * math.pi), x, np.inf
    )
    return val


class TestQFunction:
    def test_symmetry_point(self):
        assert cm.q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 1.0, 1.2816, 2.0, 3.5])
    def test_against_quadrature(self, x):
        assert cm.q_function(x) == pytest.approx(gaussian_tail(x), abs=1e-12)

    def test_ten_percent_point(self):
        assert cm.q_function(1.2816) == pytest.approx(0.1, abs=1e-4)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.7, 4.2])
    def test_reflection_identity(self, x):
        assert cm.q_function(-x) == pytest.approx(1 - cm.q_function(x), abs=1e-12)


class TestSymbolErrorBound:
    def test_psk_one_known_bit(self):
        # 8PSK with one fixed label bit at unit SNR: 2Q(sqrt(2) sin(pi/4)) = 2Q(1)
        dmin = cm.min_distance(cm.build_psk(3), 1)
        got = cm.symbol_error_bound("psk", 1.0, dmin)
        assert got == pytest.approx(2 * gaussian_tail(1.0), rel=1e-12)
        assert got == pytest.approx(0.3173105078629141, rel=1e-10)

    def test_qam_prefactor_doubles_psk(self):
        psk = cm.symbol_error_bound("psk", 2.0, 0.9)
        qam = cm.symbol_error_bound("qam", 2.0, 0.9)
        assert qam == pytest.approx(2 * psk, rel=1e-12)

    def test_high_snr_tail(self):
        assert cm.symbol_error_bound("psk", 1e4, 0.7653668647301796) < 1e-10

    def test_clamped_to_one(self):
        assert cm.symbol_error_bound("qam", 1e-6, 1e-6) == 1.0

    def test_rejects_nonpositive(self):
        # a NaN distance, and a family that would silently take QAM's 4 neighbours
        for args in (("psk", 0.0, 1.0), ("psk", 1.0, 0.0), ("psk", 1.0, math.nan), ("bogus", 100.0, 0.5)):
            with pytest.raises(cm.ConfigurationError):
                cm.symbol_error_bound(*args)


def two_user_plan():
    """A proposed-scheme 8PSK plan of two users."""
    smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3, (1, ()): 6})
    return cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda g: cm.ser_report(two_user_plan(), (1.0, g), cm.bound_table(cm.build_psk(3))),
        lambda g: cm.symbol_error_bound("psk", g, 0.7),
        lambda g: cm.estimate_cell_ser(cm.build_psk(3), (0, 0), g, 10, 0, "x"),
    ],
    ids=["ser_report", "symbol_error_bound", "estimate_cell_ser"],
)
def test_non_finite_snr_rejected(call, gamma):
    with pytest.raises(cm.ConfigurationError):
        call(gamma)


@pytest.mark.parametrize("gammas", [("1.5", 1.0), (True, 1.0), (1.0, None), (1.0, 1j)])
def test_snrs_must_be_real_numbers(gammas):
    # bools and strings were coerced to floats before, so ("1.5", True) read as (1.5, 1.0)
    with pytest.raises(cm.ConfigurationError, match="real numbers"):
        cm.ser_report(two_user_plan(), gammas, cm.bound_table(cm.build_psk(3)))


def test_int_and_numpy_snrs_accepted():
    # numpy and int SNRs give the Python-float report, and cells see Python floats
    smap = subfile_map(3, 3, {(1, (2,)): 9, (2, (3,)): 6, (3, ()): 12})
    plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2, 3)), cm.PROPOSED, 3)
    c, seen = cm.build_psk(3), []
    bounds = cm.bound_table(c)
    recording = cm.CellTable(c, lambda shape, gamma: seen.append(gamma) or bounds(shape, gamma))
    got = cm.ser_report(plan, (2, np.float64(1.5), np.int64(3)), recording)
    assert got == cm.ser_report(plan, (2.0, 1.5, 3.0), bounds)
    assert sorted(set(seen)) == [1.5, 2.0, 3.0] and all(type(g) is float for g in seen)


class TestCellTableFill:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_missing_cell_evaluated_once(self, monkeypatch, cpus):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        calls = []

        def evaluate(shape, gamma):
            calls.append((shape, gamma))
            return shape[0] * gamma, 0.0

        table = cm.CellTable(cm.build_psk(3), evaluate)
        assert table((1, 0), 2.0) == (2.0, 0.0)
        keys = [((p, 0), g) for p in range(3) for g in (1.0, 2.0, 5.0)]
        table.fill(keys + keys[::-1])  # repeated keys and one already in the table
        assert sorted(calls) == sorted(keys)
        assert [table(*key) for key in keys] == [(s[0] * g, 0.0) for s, g in keys]
        assert len(calls) == len(keys)  # reads after `fill` evaluate nothing
        table.fill(keys)
        assert len(calls) == len(keys)

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_helper_outlives_fill(self, monkeypatch, fails):
        # the calling thread runs out of cells while the helper is still in its
        # own: `fill` waits for it, then keeps its value or raises its error
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        started, helpers, calls = threading.Event(), [], []

        def evaluate(shape, gamma):
            calls.append(gamma)
            if threading.current_thread() is threading.main_thread():
                started.wait(timeout=30)
                return gamma, 0.0
            helpers.append(threading.current_thread())
            started.set()
            time.sleep(0.2)
            if fails:
                raise RuntimeError("late failure")
            return gamma, 0.0

        table = cm.CellTable(cm.build_psk(3), evaluate)
        keys = [((0, 0), 1.0), ((0, 0), 2.0)]
        if fails:
            with pytest.raises(RuntimeError, match="late failure"):
                table.fill(keys)
        else:
            table.fill(keys)
            assert [table(*key) for key in keys] == [(1.0, 0.0), (2.0, 0.0)]
        assert len(helpers) == 1 and not helpers[0].is_alive()
        assert sorted(calls) == [1.0, 2.0]

    def test_no_cell_lost_or_repeated_under_contention(self, monkeypatch):
        # more threads than CPUs and a switch interval of a microsecond: a key
        # handed out twice, or a result lost, breaks the counts
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 8)
        calls = []
        table = cm.CellTable(cm.build_psk(3), lambda s, g: calls.append(g) or (g, 0.0))
        keys = [((0, 0), float(g)) for g in range(2000)]
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table.fill(keys)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == [g for _, g in keys]
        assert [table(*key) for key in keys] == [(g, 0.0) for _, g in keys]
        assert len(calls) == len(keys) and threading.active_count() == before


def stub_table(c, values):
    """A CellTable whose cells read (ser, std_error) from {shape: value} or one constant."""
    if isinstance(values, dict):
        return cm.CellTable(c, lambda shape, gamma: values[shape])
    return cm.CellTable(c, lambda shape, gamma: values)


def brute_force_metrics(plan, c, gammas):
    """Reference: walk every block and add the bound of each useful user's shape."""
    bounds = cm.bound_table(c)
    errors = {u: 0.0 for u in range(1, plan.num_users + 1)}
    useful = dict.fromkeys(errors, 0)
    for block in (b for subset in message_subsets(plan) for b in oracle_blocks(plan, subset)):
        for user, n in block.items():
            if n == 0:
                continue
            shape = oracle_shape(plan.scheme, n, plan.label_len)
            errors[user] += bounds(shape, gammas[user - 1])[0]
            useful[user] += 1
    ser = {u: errors[u] / useful[u] if useful[u] else 0.0 for u in errors}
    return useful, ser


class TestBlockErrorTable:
    """Per-cell bounds as the analytic report weighs them."""

    def test_constant_over_block_index_when_divisible(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        c, gammas = cm.build_psk(3), (1.0, 2.0)
        report = cm.ser_report(plan, gammas, cm.bound_table(c))
        for user in (1, 2):
            # all three blocks share one cell
            ((shape, count),) = shape_histogram(plan, user).items()
            assert count == 3
            assert report.ser[user] == cm.bound_table(c)(shape, gammas[user - 1])[0]

    def test_zero_known_bits_equal_full_bound(self):
        smap = subfile_map(2, 2, {(1, (2,)): 6, (2, (1,)): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        c = cm.build_psk(3)
        report = cm.ser_report(plan, (1.0, 1.0), cm.bound_table(c))
        full = cm.symbol_error_bound("psk", 1.0, cm.min_distance(c, 0))
        assert all(v == pytest.approx(full, rel=1e-12) for v in report.ser.values())

    def test_pair_block_one_known_bit(self, two_user_pair_placement, pair_demands):
        # user 2's two blocks (alone, then paired with user 1) both know one bit
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        report = cm.ser_report(plan, (1.0, 1.0), cm.bound_table(cm.build_psk(3)))
        assert oracle_blocks(plan, {1, 2}) == [{1: 3, 2: 2}]  # user 2 knows one bit
        assert shape_histogram(plan, 2) == {(1, 0): 2}
        want = 2 * gaussian_tail(math.sqrt(2) * math.sin(math.pi / 4))
        assert report.ser[2] == pytest.approx(want, rel=1e-12)

    def test_matches_direct_prefix_expression(self):
        # bound(psk, gamma, dmin(n)) must equal 2Q(sqrt(2 gamma sin^2(pi/2^(m-n))))
        smap = subfile_map(2, 2, {(1, (2,)): 12, (2, (1,)): 4})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        gammas = (1.7, 0.4)
        report = cm.ser_report(plan, gammas, cm.bound_table(cm.build_psk(3)))
        for user in (1, 2):
            gamma = gammas[user - 1]
            want = 0.0
            for (n, _), count in shape_histogram(plan, user).items():
                direct = 2 * cm.q_function(
                    math.sqrt(2 * gamma * math.sin(math.pi / 2 ** (3 - n)) ** 2)
                )
                want += count * min(1.0, direct)
            assert report.ser[user] == pytest.approx(want / report.useful_symbols[user], abs=1e-12)

    def test_useless_blocks_excluded(self):
        # zero padding: user 2's 3 bits fill the first of three labels only
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        c = cm.build_psk(3)
        cells = stub_table(c, (1.0, 0.0))
        report = cm.ser_report(plan, (1.0, 1.0), cells)
        assert report.useful_symbols == {1: 3, 2: 1}
        assert report.ser == {1: 1.0, 2: 1.0}

    def test_symbol_width_mismatch(self):
        smap = subfile_map(2, 2, {(1, (2,)): 4, (2, (1,)): 2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(2), (0.5, 0.0))
        with pytest.raises(cm.ConfigurationError):
            cm.ser_report(plan, (1.0, 1.0), cells)


class TestUserMetrics:
    """ser_report: the one per-user sum of count x cell value."""

    def test_single_subset_constant_probability(self):
        smap = subfile_map(1, 1, {(1, ()): 12})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1,)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(3), (0.25, 0.0))
        report = cm.ser_report(plan, (1.0,), cells)
        assert report.useful_symbols[1] == 4
        assert report.ser[1] == pytest.approx(0.25)

    def test_weighted_mean_over_subsets(self):
        # user 1: two symbols alone knowing nothing at P=0.1, two paired with
        # user 2 knowing one bit at P=0.3; the rates average to 0.2 and the
        # standard errors add in quadrature
        smap = subfile_map(2, 2, {(1, ()): 6, (1, (2,)): 4, (2, (1,)): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert shape_histogram(plan, 1) == {(0, 0): 2, (1, 0): 2}
        cells = stub_table(cm.build_psk(3), {(0, 0): (0.1, 0.01), (1, 0): (0.3, 0.03)})
        report = cm.ser_report(plan, (1.0, 1.0), cells)
        assert report.useful_symbols[1] == 4
        assert report.ser[1] == pytest.approx(0.2)
        assert report.stderr[1] == pytest.approx(math.hypot(2 * 0.01, 2 * 0.03) / 4)

    def test_uniform_users_average(self):
        smap = subfile_map(2, 2, {(1, ()): 6, (2, ()): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(3), (0.4, 0.0))
        report = cm.ser_report(plan, (1.0, 3.0), cells)
        assert report.average_ser == pytest.approx(0.4)
        assert report.average_stderr == 0.0

    def test_user_without_useful_symbols_is_flagged(self):
        # user 2 caches everything, so only user 1 receives symbols
        lib = cm.Library((0.5, 0.5), 20)
        caches = cm.CacheProfile((0.0, 1.0))
        em = cm.expected_subfile_lengths(lib, caches)
        plan = cm.build_delivery_plan(em, cm.DemandVector((1, 2)), cm.PROPOSED, 2)
        report = cm.ser_report(plan, (1.0, 1.0), cm.bound_table(cm.build_psk(2)))
        assert report.useful_symbols[1] > 0 and report.useful_symbols[2] == 0
        assert report.ser[2] == 0.0 and report.stderr[2] == 0.0
        assert report.average_ser == pytest.approx(report.ser[1] / 2)

    @pytest.mark.parametrize("num_snrs", [2, 5])
    def test_one_snr_per_user(self, num_snrs):
        smap = subfile_map(3, 3, {(1, ()): 6, (2, ()): 6, (3, ()): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2, 3)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(3), (0.4, 0.0))
        with pytest.raises(cm.ConfigurationError, match=f"{num_snrs} SNRs for a plan of 3 users"):
            cm.ser_report(plan, (1.0,) * num_snrs, cells)

    @pytest.mark.parametrize("gammas", [(2.0,) * 4, (1.0, 2.0, 2.0, 3.0)])
    def test_each_counted_column_read_once_per_snr(self, gammas):
        # users at one SNR share the cells they count: a column is read once
        # per SNR, and only where a user at that SNR counts it
        smap = cm.SubfileMap(np.random.default_rng(0).integers(0, 60, (4, 16)))
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2, 3, 4)), cm.ZERO_PADDING, 4)
        counted = plan.known_counts > 0
        assert not counted[0, 3] and not counted[1:3, 2].any()  # columns some users lack
        reads = []

        class CountingTable(cm.CellTable):
            def __call__(self, shape, gamma):
                reads.append((shape, gamma))
                return super().__call__(shape, gamma)

        report = cm.ser_report(plan, gammas, CountingTable(cm.build_psk(4), lambda *key: (0.4, 0.1)))
        assert report.average_ser == pytest.approx(0.4)
        assert len(reads) == len(set(reads))
        assert set(reads) == {
            (plan.shapes[j], gamma)
            for gamma, row in zip(gammas, counted) for j in np.flatnonzero(row)
        }

    @given(data=st.data())
    @settings(max_examples=40)
    def test_sums_do_not_depend_on_shape_order(self, data):
        # cell values spread over twelve decades, so a running float sum
        # would depend on the order of the terms; the report must not
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        smap = cm.SubfileMap(rng.integers(0, 400, (3, 8)))
        scheme = data.draw(st.sampled_from(cm.SCHEMES))
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2, 3)), scheme, 8)
        c = cm.build_qam(8)
        values = {
            (p, s): (10.0 ** rng.uniform(-12, 0), 10.0 ** rng.uniform(-12, -1))
            for p in range(9) for s in range(9 - p)
        }
        gammas = (1.0, 2.0, 3.0)
        want = cm.ser_report(plan, gammas, stub_table(c, values))
        # the same (shape, column) pairs in another order
        order = data.draw(st.permutations(range(8)))
        shuffled = replace(plan, known_counts=plan.known_counts[:, order])
        with mock.patch.object(cm.DeliveryPlan, "shapes", tuple(plan.shapes[j] for j in order)):
            got = cm.ser_report(shuffled, gammas, stub_table(c, values))
        for field in ("ser", "stderr", "average_ser", "average_stderr"):
            assert getattr(got, field) == getattr(want, field)  # bit for bit


class TestPlanMetrics:
    def test_histogram_report_matches_block_table(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, k + 3))
            fr = rng.random(n) + 0.1
            lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(50, 3000)))
            caches = cm.CacheProfile(tuple(np.sort(rng.random(k))))
            em = cm.expected_subfile_lengths(lib, caches)
            demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
            c = cm.build_psk(int(rng.integers(1, 6))) if trial % 2 else cm.build_qam(4)
            gammas = tuple(rng.uniform(0.2, 50.0, size=k))
            for scheme in cm.SCHEMES:
                plan = cm.build_delivery_plan(em, demands, scheme, c.m)
                useful, ser = brute_force_metrics(plan, c, gammas)
                got = cm.ser_report(plan, gammas, cm.bound_table(c))
                assert got.useful_symbols == useful
                assert all(got.ser[u] == 0.0 for u in useful if useful[u] == 0)
                assert got.average_ser == pytest.approx(sum(ser.values()) / k, abs=1e-12)
                for u in range(1, k + 1):
                    assert got.ser[u] == pytest.approx(ser[u], abs=1e-12)

    def test_shared_bounds_enumerate_each_shape_once(self, monkeypatch):
        # a bound table asks `min_distance` once per shape, and `modem`'s
        # cache enumerates each shape once
        import cachemod.analysis as an
        import cachemod.modem as modem

        calls = []
        real = an.min_distance

        def counting(c, *shape):
            calls.append(shape)
            return real(c, *shape)

        monkeypatch.setattr(an, "min_distance", counting)
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 7, (1, ()): 5, (2, ()): 4})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        c = cm.build_psk(3)
        bounds = cm.bound_table(c)
        modem._min_distance.cache_clear()
        for gamma in (1.0, 4.0, 16.0):
            cm.ser_report(plan, (gamma, gamma), bounds)
        shapes = {s for u in (1, 2) for s in shape_histogram(plan, u)}
        assert sorted(calls) == sorted(shapes)  # one call per shape, not per (shape, gamma) cell
        assert modem._min_distance.cache_info().misses == len(shapes)

    def test_symbol_width_mismatch(self):
        smap = subfile_map(2, 2, {(1, (2,)): 4, (2, (1,)): 2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        with pytest.raises(cm.ConfigurationError):
            cm.ser_report(plan, (1.0, 1.0), cm.bound_table(cm.build_psk(2)))


def scheme_reports(subfiles, demands, c, gammas):
    """(proposed, zero padding) analytic reports of one instance, sharing one bound table."""
    bounds = cm.bound_table(c)
    return tuple(
        cm.ser_report(cm.build_delivery_plan(subfiles, demands, scheme, c.m), gammas, bounds)
        for scheme in (cm.PROPOSED, cm.ZERO_PADDING)
    )


class TestCompareSchemes:
    """Per-user gain delta_k = T_k(zero padding) - T_k(proposed); it is never negative."""

    def test_symmetric_instance_has_no_gain(self):
        # equal caches and equal files with widths dividing everything: the
        # two schemes produce identical masks everywhere
        lib = cm.Library((0.5, 0.5), 48)
        caches = cm.CacheProfile((0.5, 0.5))
        em = cm.expected_subfile_lengths(lib, caches)
        rp, rz = scheme_reports(
            em, cm.DemandVector((1, 2)), cm.build_psk(3), (2.0, 2.0)
        )
        for u in (1, 2):
            assert rz.ser[u] - rp.ser[u] == pytest.approx(0.0, abs=1e-15)

    def test_heterogeneous_three_user_ordering(self):
        # mu = (1/5, 1/3, 1/2) with equal files: the smallest cache gains
        # nothing while larger caches gain progressively more
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 2700)
        caches = cm.CacheProfile((1 / 5, 1 / 3, 1 / 2))
        em = cm.expected_subfile_lengths(lib, caches)
        for gamma in (1.0, 10.0):
            rp, rz = scheme_reports(
                em,
                cm.DemandVector((1, 2, 3)),
                cm.build_psk(3),
                (gamma,) * 3,
            )
            d1, d2, d3 = (rz.ser[u] - rp.ser[u] for u in (1, 2, 3))
            assert d1 == pytest.approx(0.0, abs=1e-15)
            assert d3 >= d2 >= 0.0
            assert d3 > 1e-3  # the big cache sees a real gain
        plans = [cm.build_delivery_plan(em, cm.DemandVector((1, 2, 3)), s, 3) for s in cm.SCHEMES]
        assert plans[0].load == plans[1].load

    def test_random_instances_never_lose(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, k + 3))
            fr = rng.random(n) + 0.1
            lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(100, 900)))
            caches = cm.CacheProfile(tuple(np.sort(rng.random(k) * 0.95)))
            em = cm.expected_subfile_lengths(lib, caches)
            demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
            c = cm.build_psk(3) if trial % 2 else cm.build_qam(4)
            gammas = tuple(rng.uniform(0.5, 20.0, size=k))
            rp, rz = scheme_reports(em, demands, c, gammas)
            for u in range(1, k + 1):
                assert rz.ser[u] - rp.ser[u] >= -1e-12

    def test_rate_decreases_with_snr(self):
        lib = cm.Library((0.5, 0.5), 600)
        caches = cm.CacheProfile((0.2, 0.6))
        em = cm.expected_subfile_lengths(lib, caches)
        plan = cm.build_delivery_plan(em, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        bounds = cm.bound_table(cm.build_psk(3))
        prev = None
        for gamma in (0.5, 2.0, 8.0, 32.0):
            rep = cm.ser_report(plan, (gamma, gamma), bounds)
            if prev is not None:
                for u in (1, 2):
                    assert rep.ser[u] <= prev.ser[u] + 1e-15
            prev = rep
