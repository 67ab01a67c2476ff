import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachemod as cm
import cachemod.mc as mc_mod
import cachemod.modem as modem_mod
from cachemod.mc import _cell_key, _cell_seed
from cachemod.modem import _RHO_MAX, _RHO_MIN, _candidates
from conftest import (
    demodulate,
    message_subsets,
    screen_bound,
    screened_trials,
    shape_histogram,
    subfile_map,
    subset_code,
    wedge_trials,
)


def _cell_rng(master_seed, cell_id):
    """The cell's one-shot generator: labels, then noise, from one stream."""
    return np.random.default_rng(_cell_seed(master_seed, cell_id))


def _wedge_prefix_shapes():
    """PSK prefix shapes (m, p) with p < m: the first and last prefix, and a middle one."""
    return [(m, p) for m in (1, 2, 3, 8) for p in sorted({0, m // 2, m - 1})]


def _replay_errors(c, shape, gamma, trials, seed, cell_id):
    """Replay the cell's RNG stream and decide every trial one symbol at a
    time with the brute-force oracle; the number of wrong decisions."""
    rng = _cell_rng(seed, cell_id)
    labels = rng.integers(0, len(c.points), size=trials, dtype=np.int64)
    noise = rng.normal(0.0, math.sqrt(0.5), size=(trials, 2))
    errors = 0
    for t in range(trials):
        label = int(labels[t])
        bits = format(label, f"0{c.m}b")
        p, s = shape
        known = int("0" + bits[:p] + bits[c.m - s :], 2)
        x = c.points[label]
        y = math.sqrt(gamma) * x + complex(noise[t, 0], noise[t, 1])
        errors += demodulate(c, y, math.sqrt(gamma), shape, known) != label
    return errors


class TestCampaignConfig:
    """A campaign's trial budget and master seed, as `estimate_cell_ser` checks them."""

    @pytest.mark.parametrize("trials", [1.5, 2.0, True, "3", None])
    def test_trials_must_be_an_int(self, trials):
        with pytest.raises(cm.ConfigurationError, match="trials"):
            cm.estimate_cell_ser(cm.build_psk(2), (0, 0), 1.0, trials, 0, "budget")

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.0, True, "5", None])
    def test_seed_must_be_an_int_in_64_bits(self, seed):
        # a masked seed aliased -1 to 2**64 - 1 and 2**64 + 5 to 5
        with pytest.raises(cm.ConfigurationError, match="master_seed"):
            cm.estimate_cell_ser(cm.build_psk(2), (0, 0), 1.0, 10, seed, "budget")

    @pytest.mark.parametrize("shape", [(1.0, 0), (1.5, 0), (0, 2.0), (True, 0), (0, False), ("1", 0)])
    def test_shape_counts_must_be_ints(self, shape):
        with pytest.raises(cm.ConfigurationError, match="mask counts"):
            cm.estimate_cell_ser(cm.build_psk(3), shape, 1.0, 10, 0, "budget")

    @pytest.mark.parametrize("gamma", ["1", True, None, 1j])
    def test_gamma_must_be_a_real_number(self, gamma):
        # read as `ser_report` reads its SNRs: a bool is not a real number here
        with pytest.raises(cm.ConfigurationError, match="SNRs"):
            cm.estimate_cell_ser(cm.build_psk(3), (0, 0), gamma, 10, 0, "budget")

    def test_numpy_shape_and_gamma_read_as_python_values(self):
        c = cm.build_psk(3)
        want = cm.estimate_cell_ser(c, (1, 0), 2.0, 1000, 5, "numpy")
        shape = (np.int64(1), np.int32(0))
        assert cm.estimate_cell_ser(c, shape, np.float64(2.0), 1000, 5, "numpy") == want
        assert cm.estimate_cell_ser(c, (1, 0), 2, 1000, 5, "numpy") == want

    def test_seed_range_ends_accepted(self):
        c = cm.build_psk(2)
        lo, hi = (
            cm.estimate_cell_ser(c, (0, 0), 1.0, 1000, seed, "ends")
            for seed in (0, 2**64 - 1)
        )
        assert lo != hi


class TestCellStream:
    @given(
        m=st.integers(1, 8),
        trials=st.one_of(st.sampled_from([1, 2, 7, 4095, 16385]), st.integers(1, 5000)),
        data=st.data(),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=80)
    def test_chunked_draws_are_the_one_shot_draws(self, m, trials, data, seed):
        # the stream contract `estimate_cell_ser` chunks on: labels drawn chunk
        # by chunk from the cell's generator, and normals chunk by chunk from a
        # second one on the same seed advanced by ceil(N/2) words, are the
        # one-shot integers + standard_normal arrays byte for byte
        chunk = data.draw(
            st.one_of(st.sampled_from([1, 2, 3, 999, 4096]), st.integers(1, trials + 10))
        )
        rng = _cell_rng(seed, "stream")
        want_labels = rng.integers(0, 1 << m, size=trials, dtype=np.int64)
        want_noise = rng.standard_normal((trials, 2))

        cell_seed = _cell_seed(seed, "stream")
        label_rng = np.random.default_rng(cell_seed)
        noise_rng = np.random.Generator(np.random.PCG64(cell_seed).advance(-(-trials // 2)))
        sizes = [min(chunk, trials - start) for start in range(0, trials, chunk)]
        labels = [label_rng.integers(0, 1 << m, size=n, dtype=np.int64) for n in sizes]
        noise = [noise_rng.standard_normal((n, 2)) for n in sizes]
        assert np.concatenate(labels).tobytes() == want_labels.tobytes()
        assert np.concatenate(noise).tobytes() == want_noise.tobytes()


class TestEstimateCellSer:
    def test_deterministic(self):
        c = cm.build_psk(3)
        trials, seed = 5000, 77
        a = cm.estimate_cell_ser(c, (1, 0), 2.0, trials, seed, "cell-x")
        b = cm.estimate_cell_ser(c, (1, 0), 2.0, trials, seed, "cell-x")
        assert a == b

    def test_distinct_cells_get_distinct_streams(self):
        ra = _cell_rng(77, "cell-x")
        rb = _cell_rng(77, "cell-y")
        assert ra.integers(0, 8, size=32).tolist() != rb.integers(0, 8, size=32).tolist()

    def test_master_seed_changes_stream(self):
        ra = _cell_rng(1, "cell-x")
        rb = _cell_rng(2, "cell-x")
        assert ra.integers(0, 8, size=32).tolist() != rb.integers(0, 8, size=32).tolist()

    def test_matches_scalar_demodulator(self):
        # the replayed oracle's error count and the cell's must agree exactly
        c, shape, gamma = cm.build_psk(3), (1, 1), 1.5
        trials, seed = 400, 13
        ser, _ = cm.estimate_cell_ser(c, shape, gamma, trials, seed, "replay")
        errors = _replay_errors(c, shape, gamma, trials, seed, "replay")
        assert ser == pytest.approx(errors / trials, abs=1e-15)

    @pytest.mark.parametrize(
        "family, m, shape, gamma",
        [("psk", 3, (0, 0), 30.0), ("qam", 4, (2, 0), 20.0), ("qam", 8, (0, 3), 300.0)],
    )
    def test_screened_cells_match_scalar_demodulator(self, family, m, shape, gamma):
        # cells where the screen keeps most trials from `detect`
        c = cm.build_constellation(family, m)
        trials, seed = 400, 13
        ser, _ = cm.estimate_cell_ser(c, shape, gamma, trials, seed, "replay")
        errors = _replay_errors(c, shape, gamma, trials, seed, "replay")
        assert ser == pytest.approx(errors / trials, abs=1e-15)
        assert screened_trials(c, shape, gamma, trials, seed, "replay").mean() > 0.7

    @pytest.mark.parametrize("gamma", [0.5, 30.0, 1e4])
    @pytest.mark.parametrize("m, p", _wedge_prefix_shapes())
    def test_wedge_cells_match_scalar_demodulator(self, m, p, gamma, monkeypatch):
        # PSK prefix cells count most rows past the screen by the wedge test,
        # m = 1 and p = m - 1 on a half-plane; the count must be the oracle's,
        # and only the rows the replay leaves to it may reach `detect`
        detected = []

        def capture(c, y, *args):
            detected.append(len(y))
            return cm.detect(c, y, *args)

        monkeypatch.setattr(mc_mod, "detect", capture)
        c, shape = cm.build_psk(m), (p, 0)
        trials, seed = 400, 13
        ser, _ = cm.estimate_cell_ser(c, shape, gamma, trials, seed, "replay")
        errors = _replay_errors(c, shape, gamma, trials, seed, "replay")
        assert ser == pytest.approx(errors / trials, abs=1e-15)
        screened = screened_trials(c, shape, gamma, trials, seed, "replay")
        wedge = wedge_trials(c, shape, gamma, trials, seed, "replay")
        assert sum(detected) == np.count_nonzero(~screened & ~wedge)

    def test_wedge_edges_match_scalar_demodulator(self):
        # received points a few ulps either side of the sent point's wedge
        # edge, within and just past the band, at and near the origin and past
        # the radius window: the cell's error indicator, one row at a time, is
        # the oracle's on each.  First the band's bound (see `mc._BAND`)
        eps = np.finfo(float).eps
        rho = _RHO_MIN  # where 32 eps (rho + 1)(rho + 2) / rho peaks in the window
        need = math.asin(32 * eps * (rho + 1) * (rho + 2) / (rho * math.sin(math.pi / 256)))
        assert mc_mod._BAND > need + 30 * eps

        band = mc_mod._BAND
        for (m, p), gamma in itertools.product(_wedge_prefix_shapes(), (0.5, 1e4)):
            c, shape, sqrt_gamma = cm.build_psk(m), (p, 0), math.sqrt(gamma)
            sent = sqrt_gamma * c.points
            half = math.pi / (1 << (m - p))
            edge = [half + k * math.ulp(half) for k in range(-4, 5)]
            turns = [s * (half + d) for s in (1, -1) for d in (0.5 * band, 2 * band, -0.5 * band)]
            turns += [s * t for s in (1, -1) for t in edge]
            near = [(r, t) for r in (1.0, 0.3, 3.0) for t in turns]
            near += [(r, t) for r in (0.0, 1e-300, 1e-12, 0.5 * _RHO_MIN) for t in (0.0, 1.0, half)]
            near += [(2 * _RHO_MAX, t) for t in (0.0, half, half + band, math.pi)]
            labels, targets = [], []
            for label in range(0, len(c.points), max(1, len(c.points) // 8)):
                for r, t in near:
                    labels.append(label)
                    targets.append(r * sent[label] * complex(math.cos(t), math.sin(t)))
            labels = np.array(labels, dtype=np.int64)
            noise = (np.array(targets) - sent[labels]) / math.sqrt(0.5)
            for row, (label, raw) in enumerate(zip(labels.tolist(), noise.tolist())):
                y = complex(raw.real * math.sqrt(0.5), raw.imag * math.sqrt(0.5)) + sent[label]
                want = demodulate(c, y, sqrt_gamma, shape, label >> (m - p)) != label
                got = mc_mod._errors(c, shape, sqrt_gamma, sent, noise[[row]], labels[[row]])
                assert got == want, (m, p, gamma, label, y)

    def test_antipodal_matches_exact_binary_error(self):
        # a 2-point subconstellation has a closed-form error probability
        c = cm.build_psk(3)
        gamma = 2.0
        d_sub = cm.min_distance(c, 2)
        want = float(cm.q_function(math.sqrt(gamma / 2) * d_sub))
        trials, seed = 200_000, 5
        ser, std_error = cm.estimate_cell_ser(c, (2, 0), gamma, trials, seed, "antipodal")
        assert abs(ser - want) <= 3 * std_error

    def test_std_error_definition(self):
        c = cm.build_psk(2)
        trials, seed = 10_000, 1
        ser, std_error = cm.estimate_cell_ser(c, (0, 0), 1.0, trials, seed, "se")
        assert std_error == pytest.approx(math.sqrt(ser * (1 - ser) / trials))

    @pytest.mark.parametrize("seed", range(5))
    def test_received_points_are_the_normal_pairs(self, seed, monkeypatch):
        # the cell builds y from standard normals, here for an odd N in odd
        # chunks of at most 999 trials, for the trials the screen keeps; bit
        # for bit those must be sqrt(gamma) x plus the one-shot
        # rng.normal(0, sqrt(1/2)) pairs read as complex, in order
        seen = []

        def capture(c, y, sqrt_snr, shape, known):
            seen.append((y.copy(), known.copy()))
            return cm.detect(c, y, sqrt_snr, shape, known)

        monkeypatch.setattr(mc_mod, "detect", capture)
        monkeypatch.setattr(mc_mod, "_TRIALS_PER_CHUNK", 999)
        c, shape, gamma, trials = cm.build_qam(4), (2, 0), 3.7, 4999
        cm.estimate_cell_ser(c, shape, gamma, trials, seed, "draws")
        rng = _cell_rng(seed, "draws")
        labels = rng.integers(0, len(c.points), size=trials, dtype=np.int64)
        noise = rng.normal(0.0, math.sqrt(0.5), size=(trials, 2))
        want = math.sqrt(gamma) * c.points[labels] + (
            noise[:, 0] + 1j * noise[:, 1]
        )
        screened = screened_trials(c, shape, gamma, trials, seed, "draws")
        # the chunk law: ceil(4999 / 999) = 6 chunks, one of 834 and five of 833
        ends = np.cumsum([len(part) for part in np.array_split(screened, 6)])
        assert np.diff(ends, prepend=0).tolist() == [834] + [833] * 5
        kept = [np.count_nonzero(~part) for part in np.split(screened, ends[:-1])]
        assert 0 < screened.mean() < 1
        assert [len(y) for y, _ in seen] == [k for k in kept if k]
        assert np.concatenate([y for y, _ in seen]).tobytes() == want[~screened].tobytes()
        assert np.concatenate([k for _, k in seen]).tolist() == (labels[~screened] >> 2).tolist()
        # no trial the screen keeps from `detect` is an error
        sqrt_gamma = math.sqrt(gamma)
        for label, y in zip(labels[screened].tolist(), want[screened].tolist()):
            assert demodulate(c, y, sqrt_gamma, shape, label >> 2) == label

    @pytest.mark.parametrize("seed, band", [(0, 0.3), (1, 0.3), (2, math.pi)])
    def test_band_rows_reach_detect_as_received_points(self, seed, band, monkeypatch):
        # a wide band makes rows of an 8PSK prefix cell reach `detect` (every
        # row past the screen at a band of pi); bit for bit those must be the
        # one-shot points, and the count still the oracle's
        seen = []

        def capture(c, y, sqrt_snr, shape, known):
            seen.append((y.copy(), known.copy()))
            return cm.detect(c, y, sqrt_snr, shape, known)

        monkeypatch.setattr(mc_mod, "detect", capture)
        monkeypatch.setattr(mc_mod, "_TRIALS_PER_CHUNK", 999)
        monkeypatch.setattr(mc_mod, "_BAND", band)
        c, shape, gamma, trials = cm.build_psk(3), (1, 0), 3.7, 4999
        ser, _ = cm.estimate_cell_ser(c, shape, gamma, trials, seed, "draws")
        rng = _cell_rng(seed, "draws")
        labels = rng.integers(0, len(c.points), size=trials, dtype=np.int64)
        noise = rng.normal(0.0, math.sqrt(0.5), size=(trials, 2))
        x = c.points[labels]
        want = math.sqrt(gamma) * x + (noise[:, 0] + 1j * noise[:, 1])
        # the band rows, with the wedge edge at pi / 4 and the phase taken apart
        phase = np.abs(np.remainder(np.angle(want) - np.angle(x) + np.pi, 2 * np.pi) - np.pi)
        taken = ~screened_trials(c, shape, gamma, trials, seed, "draws")
        taken &= np.abs(phase - math.pi / 4) <= band
        assert 0 < taken.mean() < 1
        assert np.concatenate([y for y, _ in seen]).tobytes() == want[taken].tobytes()
        assert np.concatenate([k for _, k in seen]).tolist() == (labels[taken] >> 2).tolist()
        errors = _replay_errors(c, shape, gamma, trials, seed, "draws")
        assert ser == pytest.approx(errors / trials, abs=1e-15)

    @pytest.mark.parametrize("family", ["psk", "qam"])
    def test_noise_at_the_screen_radius_is_decided_correctly(self, family):
        # every compatible point of every plan-reachable shape, sent with raw
        # noise of squared length `screen_bound` towards its nearest
        # candidate: the brute-force oracle still decides the sent label
        for m in range(1, 9) if family == "psk" else (2, 4, 6, 8):
            c = cm.build_constellation(family, m)
            shapes = {(k, 0) for k in range(m)} | {(0, k) for k in range(m)}
            for shape, gamma in itertools.product(sorted(shapes), (0.5, 1e4)):
                sqrt_gamma = math.sqrt(gamma)
                safe = screen_bound(c, shape, gamma)
                labels, points = _candidates(family, m, *shape)
                for known, (row, pts) in enumerate(zip(labels.tolist(), points)):
                    gaps = pts[None, :] - pts[:, None]
                    np.fill_diagonal(gaps, np.inf)
                    toward = gaps[np.arange(len(pts)), np.argmin(np.abs(gaps), axis=1)]
                    raw = math.sqrt(safe) * toward / np.abs(toward)
                    assert np.all(raw.real**2 + raw.imag**2 <= safe * (1 + 1e-15))
                    ys = raw * math.sqrt(0.5) + sqrt_gamma * pts
                    for label, y in zip(row, ys.tolist()):
                        assert demodulate(c, y, sqrt_gamma, shape, known) == label

    @pytest.mark.parametrize(
        "family, m, shape",
        [("psk", 1, (1, 0)), ("psk", 3, (3, 0)), ("psk", 3, (1, 2)), ("qam", 4, (0, 4))],
    )
    def test_single_candidate_cells_never_detect(self, family, m, shape, monkeypatch):
        # p + s = m leaves one candidate: no trial can be an error, at any SNR
        calls = []
        monkeypatch.setattr(mc_mod, "detect", lambda *args: calls.append(args))
        c, trials, seed = cm.build_constellation(family, m), 20_001, 4
        assert cm.estimate_cell_ser(c, shape, 0.01, trials, seed, "single") == (0.0, 0.0)
        assert calls == []

    @pytest.mark.parametrize(
        "family, m, shape, gamma",
        [
            ("psk", 3, (0, 0), 30.0),
            ("qam", 8, (0, 0), 300.0),
            ("qam", 8, (0, 3), 300.0),
            ("qam", 8, (1, 2), 300.0),
        ],
    )
    def test_trials_per_chunk_does_not_change_estimates(
        self, family, m, shape, gamma, monkeypatch
    ):
        # 20,001 trials: two default chunks (10,001 and 10,000), 21 chunks of
        # 952 or 953, one chunk, or 26 chunks of 769 or 770 (a cap of 1,000
        # would split as 999 does)
        c, trials, seed = cm.build_constellation(family, m), 20_001, 6
        estimates = []
        for chunk in (mc_mod._TRIALS_PER_CHUNK, 999, 1 << 15, 777):
            monkeypatch.setattr(mc_mod, "_TRIALS_PER_CHUNK", chunk)
            estimates.append(cm.estimate_cell_ser(c, shape, gamma, trials, seed, "chunks"))
        assert estimates[1:] == estimates[:1] * 3
        assert 0 < estimates[0][0] < 1

    @pytest.mark.parametrize("trials", [1, 1 << 14, (1 << 14) + 1, 10_000, 100_000, 1_000_000])
    def test_chunks_are_equal_and_at_most_the_cap(self, trials, monkeypatch):
        # a cell of N trials draws its labels in ceil(N / 2^14) chunks whose
        # lengths differ by at most one, so a 1e4-trial cell is one chunk
        sizes, default_rng = [], np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, low, high, size, dtype):
                sizes.append(size)
                return self.rng.integers(low, high, size=size, dtype=dtype)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        # one candidate: every trial is drawn, none detected
        cm.estimate_cell_ser(cm.build_psk(1), (1, 0), 1.0, trials, 1, "law")
        assert mc_mod._TRIALS_PER_CHUNK == 1 << 14
        assert len(sizes) == -(-trials // (1 << 14))
        assert sum(sizes) == trials
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= 1 << 14
        if trials == 10_000:
            assert sizes == [10_000]

    def test_memory_flat_in_trials(self):
        # one-shot draws held every trial's arrays at once, 72.5 MiB at 1e6
        # trials of this cell; chunks keep it near 0.6 MiB (0.4 MiB with
        # 8,192-trial chunks; 2.2 MiB in a fresh process, which also builds
        # the constellation's cached tables)
        c = cm.build_qam(8)
        tracemalloc.start()
        try:
            cm.estimate_cell_ser(c, (0, 0), 300.0, 1_000_000, 2, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cell_memory_per_thread(self):
        # the sweep runs one cell per usable CPU at once, so this peak counts
        # once per thread: 7.2 MiB with 16,384-trial chunks and 2^18-entry
        # distance steps, 2.8 MiB with 8,192-trial chunks (8,192 + 1,808
        # here) and 2^16, 2.7 MiB as one 10,000-trial chunk that keeps only
        # the rows past the screen for `detect`, and 1.2 MiB with 2^14-entry
        # steps, whose complex differences take 256 KiB
        c = cm.build_qam(8)
        tracemalloc.start()
        try:
            cm.estimate_cell_ser(c, (0, 1), 1.0, 10_000, 2, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_repeated_cell_reuses_the_thread_buffer(self):
        # a cell that almost never reaches `detect` holds little but its noise
        # buffer: 561 KiB when each cell allocates its own, 338 KiB when the
        # thread's buffer from the warm-up cell is reused
        c = cm.build_psk(3)
        cm.estimate_cell_ser(c, (0, 0), 100.0, 100_000, 2, "warm")
        tracemalloc.start()
        try:
            cm.estimate_cell_ser(c, (0, 0), 100.0, 100_000, 2, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 450 * 2**10

    def test_kept_buffer_does_not_change_estimates(self):
        # a short cell draws into the front of the longer cell's buffer on this
        # thread, stale noise behind it, and must estimate as on a fresh thread
        c = cm.build_qam(8)
        cm.estimate_cell_ser(c, (0, 1), 10.0, 100_000, 3, "long")
        assert len(mc_mod._scratch.pairs) >= 14_286  # more than the short cell's 10,000
        after = cm.estimate_cell_ser(c, (0, 1), 10.0, 10_000, 3, "short")
        fresh = []
        thread = threading.Thread(
            target=lambda: fresh.append(cm.estimate_cell_ser(c, (0, 1), 10.0, 10_000, 3, "short"))
        )
        thread.start()
        thread.join()
        assert after == fresh[0]
        assert 0 < after[0] < 1

    def test_brute_force_memory(self):
        # one call over 20,000 rows of 256-QAM (0, 1), 128 candidates each:
        # 2.16 MiB with 2^16-entry steps, 0.66 MiB with 2^14
        c, sqrt_snr, shape = cm.build_qam(8), 3.0, (0, 1)
        rng = np.random.default_rng(4)
        labels = rng.integers(0, len(c.points), 20_000)
        y = sqrt_snr * c.points[labels] + rng.normal(0.0, math.sqrt(0.5), (20_000, 2)) @ [1, 1j]
        known = modem_mod._known_value(labels, c.m, shape)
        modem_mod._brute_force(c, y[:10], sqrt_snr, shape, known[:10])  # builds the tables
        tracemalloc.start()
        try:
            modem_mod._brute_force(c, y, sqrt_snr, shape, known)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("shape", [(0, 7), (0, 0)])
    def test_brute_force_step_boundaries(self, shape):
        # at the real `_CHUNK`, 2 candidates (8,192 rows a step) and 256 (64
        # rows a step): one row short of a step, exactly one step, one row over
        c, sqrt_snr = cm.build_qam(8), 2.0
        count = _candidates(c.family, c.m, *shape)[0].shape[1]
        step = modem_mod._CHUNK // count
        assert (count, step) in [(2, 8192), (256, 64)]
        rng = np.random.default_rng(9)
        labels = rng.integers(0, len(c.points), step + 1)
        y = sqrt_snr * c.points[labels] + rng.normal(0.0, math.sqrt(0.5), (step + 1, 2)) @ [1, 1j]
        y[0] = 0.0  # an exact tie
        known = modem_mod._known_value(labels, c.m, shape)
        want = [demodulate(c, yi, sqrt_snr, shape, int(v)) for yi, v in zip(y, known)]
        for rows in (step - 1, step, step + 1):
            decided = modem_mod._brute_force(c, y[:rows], sqrt_snr, shape, known[:rows])
            assert decided.tolist() == want[:rows], rows

    def test_wedge_cell_memory_per_thread(self):
        # the cell with the most rows past the screen in the paper sweep, 86 %
        # of them, sets its peak: 0.57 MiB with 8,192-trial chunks, 0.61 MiB
        # with 14,286-trial chunks that keep only those rows through the
        # count (0.39 MiB with 2^14-entry distance steps), and 1.0 MiB when
        # the chunk's labels, row indices and a separate copy of the kept
        # noise live through `_errors`
        c, trials, seed = cm.build_psk(3), 100_000, 2
        cm.estimate_cell_ser(c, (0, 0), 1.0, 1000, 2, "warm")
        tracemalloc.start()
        try:
            cm.estimate_cell_ser(c, (0, 0), 1.0, trials, seed, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2**20

    def test_chunk_size_does_not_change_decisions(self, monkeypatch):
        import cachemod.modem as modem_mod

        # 256-QAM shapes of 32, 64, 128 and 256 candidates, with the symbols'
        # known values in random order and a few exact ties at y = 0: every
        # step of the gather loop must decide as the one-symbol oracle does
        c, sqrt_snr = cm.build_qam(8), 3.0
        rng = np.random.default_rng(8)
        monkeypatch.setattr(modem_mod, "_CHUNK", 1 << 9)  # 2 to 16 rows per step
        for shape in [(1, 2), (2, 0), (0, 1), (0, 0)]:
            labels = rng.integers(0, len(c.points), 60)
            noise = rng.normal(0.0, math.sqrt(0.5), (60, 2)) @ [1, 1j]
            y = sqrt_snr * c.points[labels] + noise
            y[:3] = 0.0
            known = modem_mod._known_value(labels, c.m, shape)
            decided = modem_mod._brute_force(c, y, sqrt_snr, shape, known)
            want = [demodulate(c, yi, sqrt_snr, shape, int(v)) for yi, v in zip(y, known)]
            assert decided.tolist() == want, shape
            count = _candidates(c.family, c.m, *shape)[0].shape[1]
            assert 32 <= count <= 256
            assert len(y) > modem_mod._CHUNK // count  # more than one step
            if shape != (0, 0):  # one known value, 0, when nothing is known
                assert np.any(np.diff(known) < 0)  # unsorted

    def test_high_snr_error_free(self):
        c = cm.build_psk(3)
        trials, seed = 100_000, 3
        ser, _ = cm.estimate_cell_ser(c, (2, 0), 1e4, trials, seed, "clean")
        assert ser == 0.0


class TestRunCampaign:
    @pytest.fixture
    def small_instance(self):
        lib = cm.Library((0.5, 0.5), 240)
        caches = cm.CacheProfile((0.25, 0.5))
        em = cm.expected_subfile_lengths(lib, caches)
        demands = cm.DemandVector((1, 2))
        return em, demands

    def test_high_snr_all_users_clean(self, small_instance):
        em, demands = small_instance
        plan = cm.build_delivery_plan(em, demands, cm.PROPOSED, 3)
        c = cm.build_psk(3)
        report = cm.ser_report(plan, (1e4, 1e4), cm.estimate_table(c, 20_000, 0))
        assert all(v == 0.0 for v in report.ser.values())

    def test_deterministic_reports(self, small_instance):
        em, demands = small_instance
        plan = cm.build_delivery_plan(em, demands, cm.ZERO_PADDING, 3)
        c, gammas = cm.build_psk(3), (2.0, 3.0)
        assert cm.ser_report(plan, gammas, cm.estimate_table(c, 5000, 21)) == cm.ser_report(
            plan, gammas, cm.estimate_table(c, 5000, 21)
        )

    def test_empirical_within_analytic_bound(self, small_instance):
        em, demands = small_instance
        c = cm.build_psk(3)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(em, demands, scheme, 3)
            analytic = cm.ser_report(plan, (2.0, 2.0), cm.bound_table(c))
            empirical = cm.ser_report(plan, (2.0, 2.0), cm.estimate_table(c, 50_000, 9))
            for u in (1, 2):
                assert empirical.ser[u] <= analytic.ser[u] + 3 * empirical.stderr[u]

    def test_useful_symbol_counts_match_plan(self, small_instance):
        em, demands = small_instance
        plan = cm.build_delivery_plan(em, demands, cm.PROPOSED, 3)
        c = cm.build_psk(3)
        report = cm.ser_report(plan, (1.0, 1.0), cm.estimate_table(c, 1000, 0))
        for u in (1, 2):
            assert report.useful_symbols[u] == plan.known_counts[u - 1].sum()
            assert sum(shape_histogram(plan, u).values()) == report.useful_symbols[u]

    def test_shared_estimates_match_fresh_campaigns(self, small_instance, monkeypatch):
        # one table across both schemes and two SNR points: every distinct
        # (shape, gamma) cell is simulated once and no number changes
        em, demands = small_instance
        c, trials, seed = cm.build_psk(3), 2000, 4
        plans = [cm.build_delivery_plan(em, demands, s, 3) for s in cm.SCHEMES]
        sweep = [(2.0, 5.0), (2.0, 2.0)]
        fresh = [cm.ser_report(p, g, cm.estimate_table(c, trials, seed)) for g in sweep
                 for p in plans]

        calls = []
        real = mc_mod.estimate_cell_ser

        def counting(c, shape, gamma, trials, seed, cell_id):
            calls.append((shape, gamma))
            return real(c, shape, gamma, trials, seed, cell_id)

        monkeypatch.setattr(mc_mod, "estimate_cell_ser", counting)
        table = cm.estimate_table(c, trials, seed)
        shared = [cm.ser_report(p, g, table) for g in sweep for p in plans]
        assert shared == fresh
        cells = {
            (shape, gammas[u - 1])
            for gammas in sweep
            for p in plans
            for u in (1, 2)
            for shape in shape_histogram(p, u)
        }
        assert sorted(calls) == sorted(cells)

    def test_cell_keys_stable(self):
        c = cm.build_psk(3)
        assert _cell_key(c, (1, 0), 2.0) == "psk:m3:p1:s0:g2.0"

    @pytest.mark.parametrize("gamma", [4.0, 0.3])
    def test_numpy_gamma_is_the_float_cell(self, gamma):
        # one `CellTable` key, so one substream: numpy 2 reprs np.float64(4.0)
        # as "np.float64(4.0)", which named a second stream
        c = cm.build_psk(3)
        assert _cell_key(c, (0, 0), np.float64(gamma)) == _cell_key(c, (0, 0), gamma)
        read = [cm.estimate_table(c, 2000, 5)((0, 0), g) for g in (np.float64(gamma), gamma)]
        assert read[0] == read[1]


class TestEndToEnd:
    def test_pair_fixture_both_schemes(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(rm, pair_demands, scheme, 3)
            c = cm.build_psk(plan.label_len)
            result = cm.end_to_end_noiseless(two_user_pair_placement, plan, pair_demands, c)
            assert result.all_passed
            assert result.first_mismatch == {}

    def test_single_user_no_cache_gets_whole_file(self):
        lib = cm.Library((0.7, 0.3), 40)
        caches = cm.CacheProfile((0.0,))
        pl = cm.sample_placement(lib, caches, seed=4)
        rm = cm.realized_subfile_map(pl)
        demands = cm.DemandVector((1,))
        plan = cm.build_delivery_plan(rm, demands, cm.PROPOSED, 3)
        assert plan.subfiles.lengths[0, subset_code(())] == plan.ell[0b1] == 28
        assert cm.end_to_end_noiseless(pl, plan, demands, cm.build_psk(plan.label_len)).all_passed

    def test_random_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(8):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k, k + 2))
            fr = rng.random(n) + 0.2
            lib = cm.Library(tuple(fr / fr.sum()), int(rng.integers(50, 600)))
            caches = cm.CacheProfile(tuple(np.sort(rng.random(k) * 0.9)))
            pl = cm.sample_placement(lib, caches, seed=trial)
            rm = cm.realized_subfile_map(pl)
            demands = cm.DemandVector(tuple(int(x) + 1 for x in rng.permutation(n)[:k]))
            if trial % 2:
                c = cm.build_qam(4)
            else:
                c = cm.build_psk(int(rng.integers(1, 9)))
            for scheme in cm.SCHEMES:
                plan = cm.build_delivery_plan(rm, demands, scheme, c.m)
                result = cm.end_to_end_noiseless(pl, plan, demands, c)
                assert result.all_passed, (trial, scheme, result.first_mismatch)

    def test_psk256_brute_force_takes_several_steps(self, monkeypatch):
        # every PSK symbol is decided by brute force, and at 256 candidates a
        # `_CHUNK` step holds 64 symbols; the full-constellation runs of this
        # library are longer, so a call walks several steps
        pl, rm, demands = self.three_users(50_000, seed=5)
        c, brute_force, steps = cm.build_psk(8), modem_mod._brute_force, []

        def counting(c, y, sqrt_snr, shape, known):
            step = modem_mod._CHUNK >> (c.m - sum(shape))
            steps.append(-(-len(y) // step))
            return brute_force(c, y, sqrt_snr, shape, known)

        monkeypatch.setattr(modem_mod, "_brute_force", counting)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(rm, demands, scheme, c.m)
            assert cm.end_to_end_noiseless(pl, plan, demands, c).all_passed, scheme
        assert max(steps) > 1

    def test_reports_first_mismatch_when_demodulation_breaks(
        self, two_user_pair_placement, pair_demands, monkeypatch
    ):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        monkeypatch.setattr(
            mc_mod, "detect", lambda c, y, s, shape, known: np.full(len(y), 0b111)
        )
        c = cm.build_psk(plan.label_len)
        result = cm.end_to_end_noiseless(two_user_pair_placement, plan, pair_demands, c)
        assert not result.all_passed
        for user, ok in result.passed.items():
            if not ok:
                fidx, pos = result.first_mismatch[user]
                assert fidx == pair_demands.file_for(user)
                assert 0 <= pos < two_user_pair_placement.library.file_bits[fidx - 1]

    @staticmethod
    def three_users(total_bits, seed):
        lib = cm.Library((0.4, 0.35, 0.25), total_bits)
        pl = cm.sample_placement(lib, cm.CacheProfile((0.2, 1 / 3, 0.5)), seed=seed)
        return pl, cm.realized_subfile_map(pl), cm.DemandVector((1, 2, 3))

    def test_demands_must_be_the_plans(self):
        pl, rm, demands = self.three_users(3000, seed=1)
        plan = cm.build_delivery_plan(rm, demands, cm.PROPOSED, 3)
        c = cm.build_psk(plan.label_len)
        with pytest.raises(cm.ConfigurationError, match="demands"):
            cm.end_to_end_noiseless(pl, plan, cm.DemandVector((2, 1, 3)), c)

    @pytest.mark.parametrize("scheme", cm.SCHEMES)
    def test_plan_map_must_be_the_placements(self, scheme):
        # a plan built from the expected map does not fit a sampled placement
        pl, _, demands = self.three_users(3000, seed=1)
        lib, caches = pl.library, pl.caches
        em = cm.expected_subfile_lengths(lib, caches)
        plan = cm.build_delivery_plan(em, demands, scheme, 3)
        with pytest.raises(cm.ConfigurationError, match="bits in the placement"):
            cm.end_to_end_noiseless(pl, plan, demands, cm.build_psk(plan.label_len))

    @pytest.mark.parametrize("scheme", cm.SCHEMES)
    def test_codec_and_detect_calls_per_member(self, scheme, monkeypatch):
        # per (member, subset with a message): one encode, one decode and a
        # detect per non-empty run of the member's pieces, at most two;
        # never one call per m-bit block
        pl, rm, demands = self.three_users(200_000, seed=6)
        plan = cm.build_delivery_plan(rm, demands, scheme, 3)
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("encode_block", "decode_block", "detect"):
            monkeypatch.setattr(mc_mod, name, counting(name, getattr(mc_mod, name)))
        assert cm.end_to_end_noiseless(pl, plan, demands, cm.build_psk(plan.label_len)).all_passed
        pairs = sum(int(code).bit_count() for code in np.flatnonzero(plan.ell))
        assert calls.count("encode_block") == calls.count("decode_block") == pairs
        # a member's detects come right before its decode
        detects, per_pair = 0, []
        for name in calls:
            if name == "detect":
                detects += 1
            elif name == "decode_block":
                per_pair.append(detects)
                detects = 0
        assert detects == 0
        assert max(per_pair) <= 2

    def test_paper_scale_library(self):
        pl, rm, demands = self.three_users(1_000_000, seed=3)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(rm, demands, scheme, 3)
            c = cm.build_psk(plan.label_len)
            assert cm.end_to_end_noiseless(pl, plan, demands, c).all_passed, scheme

    @pytest.mark.parametrize("scheme", cm.SCHEMES)
    def test_flipped_decoded_bit_is_first_mismatch(self, scheme, monkeypatch):
        pl, rm, demands = self.three_users(3000, seed=2)
        plan = cm.build_delivery_plan(rm, demands, scheme, 3)
        real_decode, flipped = mc_mod.decode_block, []

        def decode_and_flip(scheme, labels, subfile_len, m):
            bits = real_decode(scheme, labels, subfile_len, m)
            if not flipped and subfile_len:
                flipped.append(subfile_len)
                bits = bits.copy()
                bits[0] ^= 1
            return bits

        monkeypatch.setattr(mc_mod, "decode_block", decode_and_flip)
        result = cm.end_to_end_noiseless(pl, plan, demands, cm.build_psk(plan.label_len))
        def member_positions(u, subset):
            codes = pl.subset_codes[demands.file_for(u) - 1]
            return np.flatnonzero(codes == subset_code(subset - {u}))

        # the first non-empty subfile decoded, subsets in code order and
        # members ascending; its first bit is the subfile's first position
        user, subset = next(
            (u, subset)
            for subset in sorted(message_subsets(plan), key=subset_code)
            for u in sorted(subset)
            if member_positions(u, subset).size
        )
        file = demands.file_for(user)
        positions = member_positions(user, subset)
        assert flipped == [positions.size]
        assert result.first_mismatch == {user: (file, int(positions[0]))}
        assert [u for u, ok in result.passed.items() if not ok] == [user]
