import cmath
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cachemod as cm
import cachemod.modem as modem_mod
from conftest import compatible_labels, demodulate

PSK_WIDTHS = list(range(1, 9))
QAM_WIDTHS = [2, 4, 6, 8]
CONSTELLATIONS = [cm.build_psk(m) for m in PSK_WIDTHS] + [cm.build_qam(m) for m in QAM_WIDTHS]


def brute_force_masked_dmin(c, prefix, suffix):
    """Independent oracle: scan labels bit by bit and take pairwise distances."""
    best = math.inf
    for fixed in itertools.product((0, 1), repeat=prefix + suffix):
        pts = []
        for label in range(len(c.points)):
            bits = [int(b) for b in format(label, f"0{c.m}b")]
            if tuple(bits[:prefix]) != fixed[:prefix]:
                continue
            if suffix and tuple(bits[c.m - suffix :]) != fixed[prefix:]:
                continue
            pts.append(complex(c.points[label]))
        for a, b in itertools.combinations(pts, 2):
            best = min(best, abs(a - b))
    return best


def angle_indices(c, points):
    """Each PSK point's angle index k, for the point exp(2 pi i k / 2^m)."""
    return np.rint(np.angle(points) / (2 * np.pi / len(c.points))).astype(np.int64) % len(c.points)


def enumerated_min_distance(c, prefix, suffix):
    """Oracle: pairwise distances within each known value's subconstellation, one value at a time."""
    best = math.inf
    for value in range(1 << (prefix + suffix)):
        pts = c.points[compatible_labels(c, (prefix, suffix), value)]
        diff = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diff, np.inf)
        best = min(best, float(diff.min()))
    return best


class TestBuildPsk:
    def test_unit_energy_and_bijective_labels(self):
        for m in PSK_WIDTHS:
            c = cm.build_psk(m)
            assert c.points.shape == (1 << c.m,) and not c.points.flags.writeable
            assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
            assert sorted(angle_indices(c, c.points).tolist()) == list(range(len(c.points)))

    def test_bpsk_is_antipodal(self):
        c = cm.build_psk(1)
        assert set(np.round(c.points, 12)) == {1.0 + 0j, -1.0 + 0j}

    def test_label_100_sits_at_45_degrees(self):
        c = cm.build_psk(3)
        point = c.points[0b100]
        assert cmath.phase(point) == pytest.approx(math.pi / 4)

    def test_prefix_selects_alternating_points(self):
        # fixing the first label bit keeps a QPSK at distance 2 sin(pi/4)
        c = cm.build_psk(3)
        assert len(compatible_labels(c, (1, 0), 0)) == 4
        assert cm.min_distance(c, 1) == pytest.approx(2 * math.sin(math.pi / 4))

    def test_width_range(self):
        with pytest.raises(cm.ConfigurationError):
            cm.build_psk(0)
        with pytest.raises(cm.ConfigurationError):
            cm.build_psk(9)

    @pytest.mark.parametrize("build", [cm.build_psk, cm.build_qam])
    @pytest.mark.parametrize("m", [4.0, 3.0, True, "4", None, np.float64(4)])
    def test_width_must_be_an_int(self, build, m):
        # rejected even when the equal int width is built and cached
        build(4)
        with pytest.raises(cm.ConfigurationError, match="bits per symbol"):
            build(m)

    def test_numpy_width_is_stored_as_a_python_int(self):
        # in a fresh process, so the numpy width is the first to build 16-QAM
        code = (
            "import numpy as np, cachemod as cm\n"
            "c = cm.build_qam(np.int64(4))\n"
            "assert type(c.m) is int and c is cm.build_qam(4), type(c.m)\n"
            "assert type(cm.build_psk(np.uint8(3)).m) is int\n"
        )
        src = os.path.dirname(os.path.dirname(cm.__file__))  # the package under test first
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr


class TestBuildQam:
    def test_unit_energy_and_bijective_labels(self):
        for m in QAM_WIDTHS:
            c = cm.build_qam(m)
            assert c.points.shape == (1 << c.m,) and not c.points.flags.writeable
            assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
            # each point of the odd-integer grid of side 2^(m/2) once
            side, odd = 1 << (m // 2), 2 * c.points / c.spacing
            assert np.allclose(odd, np.round(odd.real) + 1j * np.round(odd.imag), atol=1e-9)
            cells = sorted((round(z.real), round(z.imag)) for z in odd)
            assert cells == list(itertools.product(range(1 - side, side, 2), repeat=2))

    def test_16qam_native_spacing(self):
        # +-1,+-3 grid has mean energy 10, so the normalized spacing is 2/sqrt(10)
        c = cm.build_qam(4)
        assert c.spacing == pytest.approx(2 / math.sqrt(10), rel=1e-12)

    def test_three_fixed_bits_leave_a_distant_pair(self):
        c = cm.build_qam(4)
        assert len(compatible_labels(c, (3, 0), 0b011)) == 2
        assert cm.min_distance(c, 3) == pytest.approx(2 ** 1.5 * c.spacing, rel=1e-12)

    def test_4qam_min_distance_is_spacing(self):
        c = cm.build_qam(2)
        assert cm.min_distance(c, 0) == pytest.approx(c.spacing, rel=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(cm.ConfigurationError):
            cm.build_qam(3)


class TestDistanceLaw:
    @pytest.mark.parametrize("m", PSK_WIDTHS)
    def test_psk_prefix_law_every_assignment(self, m):
        c = cm.build_psk(m)
        for n in range(m):
            want = 2 * math.sin(math.pi / 2 ** (m - n))
            assert brute_force_masked_dmin(c, n, 0) == pytest.approx(want, rel=1e-9)
            assert cm.min_distance(c, n) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("m", QAM_WIDTHS)
    def test_qam_prefix_law_every_assignment(self, m):
        c = cm.build_qam(m)
        for n in range(m):
            want = math.sqrt(2) ** n * c.spacing
            assert brute_force_masked_dmin(c, n, 0) == pytest.approx(want, rel=1e-9)
            assert cm.min_distance(c, n) == pytest.approx(want, rel=1e-9)

    def test_psk_suffix_mask_keeps_full_distance(self):
        c = cm.build_psk(3)
        assert cm.min_distance(c, 0, 1) == pytest.approx(2 * math.sin(math.pi / 8))
        assert cm.min_distance(c, 0, 2) == pytest.approx(2 * math.sin(math.pi / 8))

    def test_monotone_in_prefix(self):
        for c in (cm.build_psk(4), cm.build_qam(4)):
            dists = [cm.min_distance(c, n) for n in range(c.m)]
            assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize("c", CONSTELLATIONS, ids=lambda c: f"{c.family}{c.m}")
    def test_equals_enumeration_for_every_shape(self, c):
        for p, s in itertools.product(range(c.m), repeat=2):
            if p + s < c.m:
                assert cm.min_distance(c, p, s) == enumerated_min_distance(c, p, s)

    def test_single_point_mask_rejected(self):
        c = cm.build_psk(3)
        with pytest.raises(cm.ConfigurationError):
            cm.min_distance(c, 3)

    @pytest.mark.parametrize("counts", [(1.0, 0), (1, 0.0), (True, 0), (0, False), ("1", 0)])
    def test_counts_must_be_ints(self, counts):
        # rejected even when the equal int counts' distance is cached
        c = cm.build_psk(3)
        cm.min_distance(c, 1, 0)
        with pytest.raises(cm.ConfigurationError, match="mask counts"):
            cm.min_distance(c, *counts)

    def test_numpy_counts_accepted(self):
        c = cm.build_qam(4)
        assert cm.min_distance(c, np.int64(1), np.int8(1)) == cm.min_distance(c, 1, 1)


class TestSubconstellation:
    def test_empty_mask_keeps_everything(self):
        c = cm.build_psk(3)
        assert len(compatible_labels(c, (0, 0), 0)) == 8

    def test_full_mask_single_point(self):
        c = cm.build_psk(3)
        assert compatible_labels(c, (3, 0), 0b101) == [0b101]

    def test_prefix_zero_selects_even_positions(self):
        c = cm.build_psk(3)
        idx = angle_indices(c, c.points[compatible_labels(c, (1, 0), 0)])
        assert sorted(idx.tolist()) == [0, 2, 4, 6]


class TestModulateDemodulate:
    """Modulation as the label-to-point lookup, with `detect` as its demodulator."""

    def test_bpsk_zero_label(self):
        c = cm.build_psk(1)
        assert c.points[0] == pytest.approx(1.0 + 0j)

    @pytest.mark.parametrize("build,m", [(cm.build_psk, 3), (cm.build_qam, 4)])
    def test_noiseless_roundtrip_all_labels(self, build, m):
        c = build(m)
        labels = np.arange(len(c.points))
        y = c.points[labels]
        assert cm.detect(c, y, 1.0, (0, 0), np.zeros_like(labels)).tolist() == labels.tolist()

    def test_mask_overrides_nearest_point(self):
        # receive exactly on an excluded point; decision must stay compatible
        c = cm.build_psk(3)
        allowed = set(compatible_labels(c, (1, 0), 0))
        got = cm.detect(c, c.points, 1.0, (1, 0), np.zeros(8, dtype=int))
        assert set(got.tolist()) <= allowed

    def test_tie_breaks_to_smallest_label(self):
        c = cm.build_psk(1)  # points +1 and -1, labels 0 and 1
        assert cm.detect(c, np.array([0j]), 1.0, (0, 0), np.array([0])).tolist() == [0]

    @given(
        st.integers(0, 7),
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.integers(0, 2),
        st.floats(0.5, 9.0),
    )
    # y lands near the origin, equidistant from every compatible point, so
    # only identical distance arithmetic agrees on the tie break
    @example(label=5, dx=0.5, dy=0.5, prefix=1, gamma=0.5)
    @settings(max_examples=300)
    def test_matches_brute_force_ml(self, label, dx, dy, prefix, gamma):
        c = cm.build_psk(3)
        bits = format(label, "03b")
        y = math.sqrt(gamma) * c.points[label] + complex(dx, dy)
        value = int(bits[:prefix], 2) if prefix else 0
        got = cm.detect(c, np.array([y]), math.sqrt(gamma), (prefix, 0), np.array([value]))
        # the detector's distance expression, scanned point by point
        dist = np.abs(y - math.sqrt(gamma) * c.points)
        best = None
        for lab in range(8):
            if format(lab, "03b")[:prefix] != bits[:prefix]:
                continue
            d = float(dist[lab])
            if best is None or d < best[0] or (d == best[0] and lab < best[1]):
                best = (d, lab)
        assert got.tolist() == [best[1]]

    def test_compatible_labels_survive_zero_noise(self):
        # transmitted labels always demodulate exactly when the mask matches
        rng = np.random.default_rng(11)
        for c in (cm.build_psk(3), cm.build_qam(4)):
            sent = {}
            for _ in range(5000):
                label = int(rng.integers(0, len(c.points)))
                p = int(rng.integers(0, c.m + 1))
                s = int(rng.integers(0, c.m - p + 1))
                bits = format(label, f"0{c.m}b")
                known = bits[:p] + bits[c.m - s :]
                sent.setdefault((p, s), []).append((label, int(known, 2) if known else 0))
            for shape, pairs in sent.items():
                labels, known = np.array(pairs).T
                y = c.points[labels]
                assert cm.detect(c, y, 1.0, shape, known).tolist() == labels.tolist()


class TestDetect:
    @given(
        c=st.sampled_from(CONSTELLATIONS),
        prefix=st.integers(0, 8),
        suffix=st.integers(0, 8),
        # per symbol: sent label, known value, noise offset (reduced mod range below)
        symbols=st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255), st.floats(-2, 2), st.floats(-2, 2)),
            min_size=1,
            max_size=8,
        ),
        gamma=st.floats(0.5, 9.0),
    )
    # 8PSK label 5 with offset (0.5, 0.5) at gamma 0.5 lands on the origin,
    # equidistant from every compatible point: the tie case
    @example(c=cm.build_psk(3), prefix=1, suffix=0, symbols=[(5, 1, 0.5, 0.5)], gamma=0.5)
    @settings(max_examples=300)
    def test_matches_brute_force_demodulate(self, c, prefix, suffix, symbols, gamma):
        p = prefix % (c.m + 1)
        s = suffix % (c.m - p + 1)
        sqrt_snr = math.sqrt(gamma)
        labels = np.array([lab % len(c.points) for lab, _, _, _ in symbols])
        y = sqrt_snr * c.points[labels]
        y += np.array([complex(dx, dy) for _, _, dx, dy in symbols])
        known = np.array([value % (1 << (p + s)) for _, value, _, _ in symbols])
        got = cm.detect(c, y, sqrt_snr, (p, s), known)
        want = [demodulate(c, y[i], sqrt_snr, (p, s), int(known[i])) for i in range(len(y))]
        assert got.tolist() == want

    def test_rejects_bad_arguments(self):
        c = cm.build_psk(3)
        y, known = np.zeros(2, dtype=complex), np.array([0, 1])
        for shape, sqrt_snr, values in [
            ((2, 2), 1.0, known),  # four known bits of three
            ((1, 0), 0.0, known),
            ((1, 0), math.nan, known),
            ((1, 0), 1.0, np.array([0, 2])),  # a value wider than the one known bit
            ((1, 0), 1.0, np.array([0, -1])),
            ((1, 0), 1.0, np.array([0, 0.5])),  # not truncated to 0
            ((1, 0), 1.0, np.array([0])),  # one known value for two symbols
            ((1.5, 0), 1.0, known),  # counts are ints, not floats or bools
            ((1.0, 0), 1.0, known),
            ((True, 0), 1.0, known),
            ((1,), 1.0, known),
            ((1, 0), "1", known),  # sqrt_snr is a real number, not a string or bool
            ((1, 0), True, known),
        ]:
            with pytest.raises(cm.ConfigurationError):
                cm.detect(c, y, sqrt_snr, shape, values)
        for bad in (math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1, -math.inf)):
            with pytest.raises(cm.ConfigurationError):
                cm.detect(c, np.array([0.5, bad]), 1.0, (1, 0), known)

    @given(
        c=st.sampled_from(CONSTELLATIONS),
        prefix=st.integers(0, 8),
        suffix=st.integers(0, 8),
        # per symbol: known value, phase, log10 of |y| / sqrt(gamma); radii run
        # from deep inside to beyond the window QAM's rounding paths accept,
        # and every PSK shape is decided by brute force at any radius
        symbols=st.lists(
            st.tuples(st.integers(0, 255), st.floats(-4, 4), st.floats(-3, 3)),
            min_size=1,
            max_size=16,
        ),
        log_gamma=st.floats(-2, 4),
    )
    @settings(max_examples=300)
    def test_structured_paths_match_demodulate(self, c, prefix, suffix, symbols, log_gamma):
        p = prefix % (c.m + 1)
        s = suffix % (c.m - p + 1)
        sqrt_snr = 10 ** (log_gamma / 2)
        y = np.array([sqrt_snr * 10**r * cmath.exp(1j * phase) for _, phase, r in symbols])
        known = np.array([value % (1 << (p + s)) for value, _, _ in symbols])
        got = cm.detect(c, y, sqrt_snr, (p, s), known)
        want = [demodulate(c, y[i], sqrt_snr, (p, s), int(known[i])) for i in range(len(y))]
        assert got.tolist() == want

    @pytest.mark.parametrize("m", PSK_WIDTHS)
    def test_psk_neighbour_midpoints_match_demodulate(self, m):
        # midpoints of angular neighbours sit on the boundary of two
        # candidates, where brute force must break the tie as the oracle does;
        # for an arc, the midpoint of its two ends and that point's antipode
        # are as far from one end as from the other
        c = cm.build_psk(m)
        for p, s in itertools.product(range(m + 1), repeat=2):
            if p + s > m:
                continue
            for value in range(1 << (p + s)):
                points = c.points[compatible_labels(c, (p, s), value)]
                points = points[np.argsort(angle_indices(c, points))]  # by angle
                mid = 3 * (points + np.roll(points, -1)) / 2
                y = np.concatenate([mid, -mid])
                got = cm.detect(c, y, 1.0, (p, s), np.full(len(y), value))
                assert got.tolist() == [demodulate(c, v, 1.0, (p, s), value) for v in y]

    @pytest.mark.parametrize("m", QAM_WIDTHS)
    def test_qam_grid_midpoints_match_brute_force(self, m):
        # every point, every midpoint of two axis neighbours and every square's
        # centre on the full grid, each at 1x and 3x: ties within every coset
        # (a checkerboard's two grids tie at square centres) and beyond its
        # edges, for every shape
        c = cm.build_qam(m)
        side = 1 << (m // 2)
        # row a, column b: the point at (a, b) on the integer grid
        grid = c.points[np.lexsort((c.points.imag, c.points.real))].reshape(side, side)
        between = [
            (grid[1:] + grid[:-1]) / 2,
            (grid[:, 1:] + grid[:, :-1]) / 2,
            (grid[1:, 1:] + grid[:-1, :-1]) / 2,
        ]
        y = np.concatenate([grid.ravel(), *(b.ravel() for b in between)])
        y = np.concatenate([y, 3 * y])
        for p, s in itertools.product(range(m + 1), repeat=2):
            if p + s > m:
                continue
            for value in range(1 << (p + s)):
                # oracle: one argmin over the label-sorted compatible points
                labels = np.array(compatible_labels(c, (p, s), value))
                points = c.points[labels]
                want = labels[np.argmin(np.abs(y[:, None] - points), axis=1)]
                got = cm.detect(c, y, 1.0, (p, s), np.full(len(y), value))
                assert np.array_equal(got, want)

    def test_extreme_radii_match_demodulate(self):
        y = np.array([0, 1e-300, -1e-300j, 1e300, 1e300j, -1e200, complex(-1e250, 1e250)])
        for c in CONSTELLATIONS:
            for p, s in itertools.product(range(c.m + 1), repeat=2):
                if p + s > c.m:
                    continue
                known = np.arange(len(y)) % (1 << (p + s))
                with np.errstate(all="raise"):
                    got = cm.detect(c, y, 1.0, (p, s), known)
                    want = [demodulate(c, v, 1.0, (p, s), int(k)) for v, k in zip(y, known)]
                assert got.tolist() == want

    def test_huge_distances_do_not_overflow(self):
        # |y - sqrt(gamma) x|^2 overflowed to inf for every 8PSK point here, and
        # the all-way tie went to label 0; the point at pi (label 1) is nearest
        c, y, sqrt_snr = cm.build_psk(3), np.array([-1e200 + 0j]), 1e200
        with np.errstate(all="raise"):
            assert cm.detect(c, y, sqrt_snr, (0, 0), np.array([0])).tolist() == [1]
            assert modem_mod._brute_force(c, y, sqrt_snr, (0, 0), np.array([0])).tolist() == [1]
            assert demodulate(c, y[0], sqrt_snr, (0, 0), 0) == 1
