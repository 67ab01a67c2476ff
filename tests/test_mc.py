import math

import numpy as np
import pytest

import cachemod as cm
from cachemod.mc import _cell_key, _cell_rng
from conftest import demodulate, subfile_map


class TestEstimateCellSer:
    def test_deterministic(self):
        c = cm.build_psk(3)
        cfg = cm.CampaignConfig(trials_per_cell=5000, master_seed=77)
        a = cm.estimate_cell_ser(c, (1, 0), 2.0, cfg, "cell-x")
        b = cm.estimate_cell_ser(c, (1, 0), 2.0, cfg, "cell-x")
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
        # replay the cell's RNG stream and decide every trial one symbol at a
        # time with the brute-force oracle; counts must agree exactly
        c = cm.build_psk(3)
        shape, gamma = (1, 1), 1.5
        cfg = cm.CampaignConfig(trials_per_cell=400, master_seed=13)
        cell_id = "replay"
        est = cm.estimate_cell_ser(c, shape, gamma, cfg, cell_id)

        rng = _cell_rng(cfg.master_seed, cell_id)
        labels = rng.integers(0, c.size, size=cfg.trials_per_cell, dtype=np.int64)
        noise = rng.normal(0.0, math.sqrt(0.5), size=(cfg.trials_per_cell, 2))
        errors = 0
        for t in range(cfg.trials_per_cell):
            label = int(labels[t])
            bits = format(label, f"0{c.m}b")
            p, s = shape
            known = int(bits[:p] + bits[c.m - s :], 2)
            x = c.points[c._label_to_index[label]]
            y = math.sqrt(gamma) * x + complex(noise[t, 0], noise[t, 1])
            errors += demodulate(c, y, math.sqrt(gamma), shape, known) != label
        assert est.ser == pytest.approx(errors / cfg.trials_per_cell, abs=1e-15)

    def test_antipodal_matches_exact_binary_error(self):
        # a 2-point subconstellation has a closed-form error probability
        c = cm.build_psk(3)
        gamma = 2.0
        d_sub = cm.min_distance(c, 2)
        want = float(cm.q_function(math.sqrt(gamma / 2) * d_sub))
        cfg = cm.CampaignConfig(trials_per_cell=200_000, master_seed=5)
        est = cm.estimate_cell_ser(c, (2, 0), gamma, cfg, "antipodal")
        assert abs(est.ser - want) <= 3 * est.std_error

    def test_std_error_definition(self):
        c = cm.build_psk(2)
        cfg = cm.CampaignConfig(trials_per_cell=10_000, master_seed=1)
        est = cm.estimate_cell_ser(c, (0, 0), 1.0, cfg, "se")
        assert est.std_error == pytest.approx(
            math.sqrt(est.ser * (1 - est.ser) / est.trials)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_received_points_are_the_normal_pairs(self, seed, monkeypatch):
        # the cell builds y in place from standard normals; bit for bit it must
        # be sqrt(gamma) x plus rng.normal(0, sqrt(1/2)) pairs read as complex
        import cachemod.mc as mc_mod

        seen = {}

        def capture(c, y, sqrt_snr, shape, known):
            seen["y"], seen["known"] = y.copy(), known.copy()
            return cm.detect(c, y, sqrt_snr, shape, known)

        monkeypatch.setattr(mc_mod, "detect", capture)
        c, shape, gamma, trials = cm.build_qam(4), (2, 0), 3.7, 5000
        cm.estimate_cell_ser(c, shape, gamma, cm.CampaignConfig(trials, seed), "draws")
        rng = _cell_rng(seed, "draws")
        labels = rng.integers(0, c.size, size=trials, dtype=np.int64)
        noise = rng.normal(0.0, math.sqrt(0.5), size=(trials, 2))
        want = math.sqrt(gamma) * c.points[c._label_to_index[labels]] + (
            noise[:, 0] + 1j * noise[:, 1]
        )
        assert seen["y"].tobytes() == want.tobytes()
        assert seen["known"].tolist() == (labels >> 2).tolist()

    def test_chunk_size_does_not_change_decisions(self, monkeypatch):
        import cachemod.modem as modem_mod

        # 256-QAM (2, 2) has 16 candidates per value (one gather over every
        # row) and (1, 2) has 32 (a loop over the known values); both go to
        # brute force entirely
        cfg = cm.CampaignConfig(trials_per_cell=3000, master_seed=8)
        cases = [(cm.build_qam(8), (2, 2)), (cm.build_qam(8), (1, 2))]
        default = [cm.estimate_cell_ser(c, shape, 3.0, cfg, "chunk") for c, shape in cases]
        chunks = {}
        real_brute = modem_mod._brute_force

        def brute(c, y, sqrt_snr, shape, known):
            # the steps each kernel takes: over all rows, or over each value's rows
            step = modem_mod._CHUNK >> (c.m - shape[0] - shape[1])
            rows = len(y) if shape == (2, 2) else np.bincount(known).max()
            chunks[shape] = -(-rows // step)
            return real_brute(c, y, sqrt_snr, shape, known)

        monkeypatch.setattr(modem_mod, "_brute_force", brute)
        monkeypatch.setattr(modem_mod, "_CHUNK", 1 << 9)  # 32 rows per step at 16 candidates
        assert [cm.estimate_cell_ser(c, shape, 3.0, cfg, "chunk") for c, shape in cases] == default
        assert chunks[(2, 2)] > 1 and chunks[(1, 2)] > 1

    def test_high_snr_error_free(self):
        c = cm.build_psk(3)
        cfg = cm.CampaignConfig(trials_per_cell=100_000, master_seed=3)
        est = cm.estimate_cell_ser(c, (2, 0), 1e4, cfg, "clean")
        assert est.ser == 0.0


class TestRunCampaign:
    @pytest.fixture
    def small_instance(self):
        lib = cm.Library((0.5, 0.5), 240)
        caches = cm.CacheProfile((0.25, 0.5))
        em = cm.quantize_expected_map(cm.expected_subfile_lengths(lib, caches), lib)
        demands = cm.DemandVector((1, 2))
        return em, demands

    def test_high_snr_all_users_clean(self, small_instance):
        em, demands = small_instance
        plan = cm.build_delivery_plan(em, demands, cm.PROPOSED, 3)
        report = cm.run_campaign(
            plan, cm.build_psk(3), cm.SnrProfile((1e4, 1e4)), cm.CampaignConfig(20_000, 0)
        )
        assert all(v == 0.0 for v in report.ser.values())

    def test_deterministic_reports(self, small_instance):
        em, demands = small_instance
        plan = cm.build_delivery_plan(em, demands, cm.ZERO_PADDING, 3)
        args = (plan, cm.build_psk(3), cm.SnrProfile((2.0, 3.0)), cm.CampaignConfig(5000, 21))
        assert cm.run_campaign(*args) == cm.run_campaign(*args)

    def test_empirical_within_analytic_bound(self, small_instance):
        em, demands = small_instance
        c = cm.build_psk(3)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(em, demands, scheme, 3)
            snr = cm.SnrProfile((2.0, 2.0))
            analytic = cm.plan_metrics(plan, c, snr)
            empirical = cm.run_campaign(plan, c, snr, cm.CampaignConfig(50_000, 9))
            for u in (1, 2):
                assert empirical.ser[u] <= analytic.ser[u] + 3 * empirical.stderr[u]

    def test_useful_symbol_counts_match_plan(self, small_instance):
        em, demands = small_instance
        plan = cm.build_delivery_plan(em, demands, cm.PROPOSED, 3)
        report = cm.run_campaign(
            plan, cm.build_psk(3), cm.SnrProfile((1.0, 1.0)), cm.CampaignConfig(1000, 0)
        )
        for u in (1, 2):
            assert report.useful_symbols[u] == plan.useful_symbols(u)
            assert sum(plan.shape_counts(u).values()) == report.useful_symbols[u]

    def test_shared_estimates_match_fresh_campaigns(self, small_instance, monkeypatch):
        # one table across both schemes and two SNR points: every distinct
        # (shape, gamma) cell is simulated once and no number changes
        import cachemod.mc as mc_mod

        em, demands = small_instance
        c, cfg = cm.build_psk(3), cm.CampaignConfig(2000, 4)
        plans = [cm.build_delivery_plan(em, demands, s, 3) for s in cm.SCHEMES]
        snrs = [cm.SnrProfile((2.0, 5.0)), cm.SnrProfile((2.0, 2.0))]
        fresh = [cm.run_campaign(p, c, snr, cfg) for snr in snrs for p in plans]

        calls = []
        real = mc_mod.estimate_cell_ser

        def counting(c, shape, gamma, cfg, cell_id):
            calls.append((shape, gamma))
            return real(c, shape, gamma, cfg, cell_id)

        monkeypatch.setattr(mc_mod, "estimate_cell_ser", counting)
        table = cm.estimate_table(c, cfg)
        shared = [cm.run_campaign(p, c, snr, cfg, table) for snr in snrs for p in plans]
        assert shared == fresh
        cells = {
            (shape, snr.gamma(u))
            for snr in snrs
            for p in plans
            for u in (1, 2)
            for shape in p.shape_counts(u)
        }
        assert sorted(calls) == sorted(cells)

    def test_cell_keys_stable(self):
        c = cm.build_psk(3)
        assert _cell_key(c, (1, 0), 2.0) == "psk:m3:p1:s0:g2.0"


class TestEndToEnd:
    def test_pair_fixture_both_schemes(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(rm, pair_demands, scheme, 3)
            result = cm.end_to_end_noiseless(two_user_pair_placement, plan, pair_demands)
            assert result.all_passed
            assert result.first_mismatch == {}

    def test_single_user_no_cache_gets_whole_file(self):
        lib = cm.Library((0.7, 0.3), 40)
        caches = cm.CacheProfile((0.0,))
        pl = cm.sample_placement(lib, caches, seed=4)
        rm = cm.realized_subfile_map(pl)
        demands = cm.DemandVector((1,))
        plan = cm.build_delivery_plan(rm, demands, cm.PROPOSED, 3)
        assert plan.per_subset[frozenset({1})].subfile_len[1] == 28
        assert cm.end_to_end_noiseless(pl, plan, demands).all_passed

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
                c = cm.build_psk(int(rng.integers(1, 5)))
            for scheme in cm.SCHEMES:
                plan = cm.build_delivery_plan(rm, demands, scheme, c.m)
                result = cm.end_to_end_noiseless(pl, plan, demands, c)
                assert result.all_passed, (trial, scheme, result.first_mismatch)

    def test_reports_first_mismatch_when_demodulation_breaks(
        self, two_user_pair_placement, pair_demands, monkeypatch
    ):
        import cachemod.mc as mc_mod

        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        monkeypatch.setattr(
            mc_mod, "detect", lambda c, y, s, shape, known: np.full(len(y), 0b111)
        )
        result = cm.end_to_end_noiseless(two_user_pair_placement, plan, pair_demands)
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

    @pytest.mark.parametrize("scheme", cm.SCHEMES)
    def test_one_block_spec_per_run(self, scheme, monkeypatch):
        # a block spec per run of equal piece lengths, not per m-bit block
        pl, rm, demands = self.three_users(200_000, seed=6)
        plan = cm.build_delivery_plan(rm, demands, scheme, 3)
        built = []
        real_init = cm.caching.MulticastBlockSpec.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cm.caching.MulticastBlockSpec, "__init__", counting_init)
        assert cm.end_to_end_noiseless(pl, plan, demands).all_passed
        assert len(built) <= sum(2 * len(subset) + 1 for subset in plan.per_subset)

    def test_paper_scale_library(self):
        pl, rm, demands = self.three_users(1_000_000, seed=3)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(rm, demands, scheme, 3)
            assert cm.end_to_end_noiseless(pl, plan, demands).all_passed, scheme

    @pytest.mark.parametrize("scheme", cm.SCHEMES)
    def test_flipped_decoded_bit_is_first_mismatch(self, scheme, monkeypatch):
        import cachemod.mc as mc_mod

        pl, rm, demands = self.three_users(3000, seed=2)
        plan = cm.build_delivery_plan(rm, demands, scheme, 3)
        real_decode, flipped = mc_mod.decode_block, []

        def decode_and_flip(label, block, user, cached_pieces):
            piece = real_decode(label, block, user, cached_pieces)
            if not flipped:
                # the first bit of the first decoded run starts the user's subfile
                assert block.block_index == 1
                file = demands.file_for(user)
                pos = pl.subfile_positions(file, block.subset - {user})[0]
                flipped.append((user, (file, int(pos))))
                piece = piece.copy()
                piece[0, 0] ^= 1
            return piece

        monkeypatch.setattr(mc_mod, "decode_block", decode_and_flip)
        result = cm.end_to_end_noiseless(pl, plan, demands)
        [(user, bit)] = flipped
        assert result.first_mismatch == {user: bit}
        assert [u for u, ok in result.passed.items() if not ok] == [user]
