import math

import numpy as np
import pytest
from scipy import integrate

import cachemod as cm
from cachemod.analysis import analytic_report
from conftest import subfile_map


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

    def test_vectorized(self):
        xs = np.array([0.0, 1.0])
        out = cm.q_function(xs)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.5)


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
        with pytest.raises(cm.ConfigurationError):
            cm.symbol_error_bound("psk", 0.0, 1.0)
        with pytest.raises(cm.ConfigurationError):
            cm.symbol_error_bound("psk", 1.0, 0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda g: cm.SnrProfile((1.0, g)),
        lambda g: cm.symbol_error_bound("psk", g, 0.7),
        lambda g: cm.estimate_cell_ser(cm.build_psk(3), (0, 0), g, cm.CampaignConfig(10), "x"),
    ],
    ids=["SnrProfile", "symbol_error_bound", "estimate_cell_ser"],
)
def test_non_finite_snr_rejected(call, gamma):
    with pytest.raises(cm.ConfigurationError):
        call(gamma)


def stub_table(c, values):
    """A CellTable whose cells read (ser, std_error) from {shape: value} or one constant."""
    if isinstance(values, dict):
        return cm.CellTable(c, lambda shape, gamma: values[shape])
    return cm.CellTable(c, lambda shape, gamma: values)


def brute_force_metrics(plan, c, snr):
    """Reference: walk every block and add the bound of each useful user's shape."""
    bounds = cm.bound_table(c)
    errors = {u: 0.0 for u in range(1, plan.num_users + 1)}
    useful = dict.fromkeys(errors, 0)
    for block in plan.iter_blocks():
        for user in block.subset:
            if block.piece_len(user) == 0:
                continue
            errors[user] += bounds(block.known_shape(user), snr.gamma(user))[0]
            useful[user] += 1
    ser = {u: errors[u] / useful[u] if useful[u] else 0.0 for u in errors}
    return useful, ser


class TestBlockErrorTable:
    """Per-cell bounds as the analytic report weighs them."""

    def test_constant_over_block_index_when_divisible(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        c, snr = cm.build_psk(3), cm.SnrProfile((1.0, 2.0))
        report = cm.plan_metrics(plan, c, snr)
        for user in (1, 2):
            # all three blocks share one cell
            ((shape, count),) = plan.shape_counts(user).items()
            assert count == 3
            assert report.ser[user] == cm.bound_table(c)(shape, snr.gamma(user))[0]

    def test_zero_known_bits_equal_full_bound(self):
        smap = subfile_map(2, 2, {(1, (2,)): 6, (2, (1,)): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        c = cm.build_psk(3)
        report = cm.plan_metrics(plan, c, cm.SnrProfile((1.0, 1.0)))
        full = cm.symbol_error_bound("psk", 1.0, cm.min_distance(c, 0))
        assert all(v == pytest.approx(full, rel=1e-12) for v in report.ser.values())

    def test_pair_block_one_known_bit(self, two_user_pair_placement, pair_demands):
        # user 2's two blocks (alone, then paired with user 1) both know one bit
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        report = cm.plan_metrics(plan, cm.build_psk(3), cm.SnrProfile((1.0, 1.0)))
        assert plan.block({1, 2}, 1).known_shape(2) == (1, 0)
        assert plan.shape_counts(2) == {(1, 0): 2}
        want = 2 * gaussian_tail(math.sqrt(2) * math.sin(math.pi / 4))
        assert report.ser[2] == pytest.approx(want, rel=1e-12)

    def test_matches_direct_prefix_expression(self):
        # bound(psk, gamma, dmin(n)) must equal 2Q(sqrt(2 gamma sin^2(pi/2^(m-n))))
        smap = subfile_map(2, 2, {(1, (2,)): 12, (2, (1,)): 4})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        gammas = cm.SnrProfile((1.7, 0.4))
        report = cm.plan_metrics(plan, cm.build_psk(3), gammas)
        for user in (1, 2):
            gamma = gammas.gamma(user)
            want = 0.0
            for (n, _), count in plan.shape_counts(user).items():
                direct = 2 * cm.q_function(
                    math.sqrt(2 * gamma * math.sin(math.pi / 2 ** (3 - n)) ** 2)
                )
                want += count * min(1.0, direct)
            assert report.error_symbols[user] == pytest.approx(want, abs=1e-12)

    def test_useless_blocks_excluded(self):
        # zero padding: user 2's 3 bits fill the first of three labels only
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        c = cm.build_psk(3)
        cells = stub_table(c, (1.0, 0.0))
        report = cm.ser_report("analytic", plan, cm.SnrProfile((1.0, 1.0)), cells)
        assert report.error_symbols == {1: 3.0, 2: 1.0}
        assert report.useful_symbols == {1: 3, 2: 1}

    def test_symbol_width_mismatch(self):
        smap = subfile_map(2, 2, {(1, (2,)): 4, (2, (1,)): 2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(2), (0.5, 0.0))
        with pytest.raises(cm.ConfigurationError):
            cm.ser_report("analytic", plan, cm.SnrProfile((1.0, 1.0)), cells)


class TestUserMetrics:
    """ser_report: the one per-user sum of count x cell value."""

    def test_single_subset_constant_probability(self):
        smap = subfile_map(1, 1, {(1, ()): 12})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1,)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(3), (0.25, 0.0))
        report = cm.ser_report("analytic", plan, cm.SnrProfile((1.0,)), cells)
        assert report.useful_symbols[1] == 4
        assert report.ser[1] == pytest.approx(0.25)

    def test_weighted_mean_over_subsets(self):
        # user 1: two symbols alone knowing nothing at P=0.1, two paired with
        # user 2 knowing one bit at P=0.3; the rates average to 0.2 and the
        # standard errors add in quadrature
        smap = subfile_map(2, 2, {(1, ()): 6, (1, (2,)): 4, (2, (1,)): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert plan.shape_counts(1) == {(0, 0): 2, (1, 0): 2}
        cells = stub_table(cm.build_psk(3), {(0, 0): (0.1, 0.01), (1, 0): (0.3, 0.03)})
        report = cm.ser_report("empirical", plan, cm.SnrProfile((1.0, 1.0)), cells)
        assert report.useful_symbols[1] == 4
        assert report.ser[1] == pytest.approx(0.2)
        assert report.stderr[1] == pytest.approx(math.hypot(2 * 0.01, 2 * 0.03) / 4)

    def test_uniform_users_average(self):
        smap = subfile_map(2, 2, {(1, ()): 6, (2, ()): 6})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        cells = stub_table(cm.build_psk(3), (0.4, 0.0))
        report = cm.ser_report("analytic", plan, cm.SnrProfile((1.0, 3.0)), cells)
        assert report.average_ser == pytest.approx(0.4)
        assert report.average_stderr == 0.0

    def test_user_without_useful_symbols_is_flagged(self):
        # user 2 caches everything, so only user 1 receives symbols
        lib = cm.Library((0.5, 0.5), 20)
        caches = cm.CacheProfile((0.0, 1.0))
        em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
        report = analytic_report(
            em, cm.DemandVector((1, 2)), cm.PROPOSED, cm.build_psk(2), cm.SnrProfile((1.0, 1.0))
        )
        assert report.undefined_users == frozenset({2})
        assert report.ser[2] == 0.0
        assert report.average_ser == pytest.approx(report.ser[1] / 2)


class TestPlanMetrics:
    def test_histogram_report_matches_block_table(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, k + 3))
            fr = rng.random(n) + 0.1
            lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(50, 3000)))
            caches = cm.CacheProfile(tuple(np.sort(rng.random(k))))
            em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
            demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
            c = cm.build_psk(int(rng.integers(1, 6))) if trial % 2 else cm.build_qam(4)
            snr = cm.SnrProfile(tuple(rng.uniform(0.2, 50.0, size=k)))
            for scheme in cm.SCHEMES:
                plan = cm.build_delivery_plan(em, demands, scheme, c.m)
                useful, ser = brute_force_metrics(plan, c, snr)
                reports = (
                    cm.plan_metrics(plan, c, snr),
                    analytic_report(em, demands, scheme, c, snr),
                )
                for got in reports:
                    assert got.useful_symbols == useful
                    assert got.undefined_users == {u for u in useful if useful[u] == 0}
                    assert got.average_ser == pytest.approx(sum(ser.values()) / k, abs=1e-12)
                    for u in range(1, k + 1):
                        assert got.ser[u] == pytest.approx(ser[u], abs=1e-12)

    def test_shared_bounds_enumerate_each_shape_once(self, monkeypatch):
        import cachemod.analysis as an

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
        for gamma in (1.0, 4.0, 16.0):
            cm.plan_metrics(plan, c, cm.SnrProfile((gamma, gamma)), bounds)
        assert sorted(calls) == sorted({s for u in (1, 2) for s in plan.shape_counts(u)})

    def test_symbol_width_mismatch(self):
        smap = subfile_map(2, 2, {(1, (2,)): 4, (2, (1,)): 2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        with pytest.raises(cm.ConfigurationError):
            cm.plan_metrics(plan, cm.build_psk(2), cm.SnrProfile((1.0, 1.0)))


class TestCompareSchemes:
    def test_symmetric_instance_has_no_gain(self):
        # equal caches and equal files with widths dividing everything: the
        # two schemes produce identical masks everywhere
        lib = cm.Library((0.5, 0.5), 48)
        caches = cm.CacheProfile((0.5, 0.5))
        em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
        cmp = cm.compare_schemes(
            em, cm.DemandVector((1, 2)), cm.build_psk(3), cm.SnrProfile((2.0, 2.0))
        )
        for _, _, delta in cmp.per_user.values():
            assert delta == pytest.approx(0.0, abs=1e-15)

    def test_heterogeneous_three_user_ordering(self):
        # mu = (1/5, 1/3, 1/2) with equal files: the smallest cache gains
        # nothing while larger caches gain progressively more
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 2700)
        caches = cm.CacheProfile((1 / 5, 1 / 3, 1 / 2))
        em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
        for gamma in (1.0, 10.0):
            cmp = cm.compare_schemes(
                em,
                cm.DemandVector((1, 2, 3)),
                cm.build_psk(3),
                cm.SnrProfile((gamma,) * 3),
            )
            d1, d2, d3 = (cmp.per_user[u][2] for u in (1, 2, 3))
            assert d1 == pytest.approx(0.0, abs=1e-15)
            assert d3 >= d2 >= 0.0
            assert d3 > 1e-3  # the big cache sees a real gain
        assert cmp.load_proposed == cmp.load_zero_padding

    def test_random_instances_never_lose(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, k + 3))
            fr = rng.random(n) + 0.1
            lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(100, 900)))
            caches = cm.CacheProfile(tuple(np.sort(rng.random(k) * 0.95)))
            em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
            demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
            c = cm.build_psk(3) if trial % 2 else cm.build_qam(4)
            snr = cm.SnrProfile(tuple(rng.uniform(0.5, 20.0, size=k)))
            cmp = cm.compare_schemes(em, demands, c, snr)
            for _, _, delta in cmp.per_user.values():
                assert delta >= -1e-12

    def test_rate_decreases_with_snr(self):
        lib = cm.Library((0.5, 0.5), 600)
        caches = cm.CacheProfile((0.2, 0.6))
        em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
        demands = cm.DemandVector((1, 2))
        c = cm.build_psk(3)
        prev = None
        for gamma in (0.5, 2.0, 8.0, 32.0):
            rep = analytic_report(em, demands, cm.PROPOSED, c, cm.SnrProfile((gamma, gamma)))
            if prev is not None:
                for u in (1, 2):
                    assert rep.ser[u] <= prev.ser[u] + 1e-15
            prev = rep
