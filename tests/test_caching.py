import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachemod as cm
from cachemod import caching
from cachemod.caching import (
    MAX_TOTAL_BITS,
    SubfileMap,
    canonical_codes,
    largest_remainder,
    proposed_piece_len,
    quantize_expected_map,
    subset_code,
    zero_padding_piece_len,
)
from conftest import (
    all_subsets,
    loop_delivery_plan,
    loop_largest_remainder,
    loop_quantized_lengths,
    subfile_map,
    subset_tuples,
)


class TestLibrary:
    def test_rejects_bad_fractions(self):
        with pytest.raises(cm.ConfigurationError):
            cm.Library((0.5, 0.6), 10)
        with pytest.raises(cm.ConfigurationError):
            cm.Library((1.0,), 0)
        with pytest.raises(cm.ConfigurationError):
            cm.Library((0.0, 1.0), 10)

    def test_file_bits_partition_total(self):
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 100)
        assert sum(lib.file_bits) == 100
        assert sorted(lib.file_bits) == [33, 33, 34]
        assert all(type(n) is int for n in lib.file_bits)

    def test_total_bits_bounded(self):
        assert cm.Library((0.5, 0.5), MAX_TOTAL_BITS).file_bits == (2**61, 2**61)
        for too_many in (MAX_TOTAL_BITS + 1, 10**20):
            with pytest.raises(cm.ConfigurationError, match="total_bits"):
                cm.Library((0.5, 0.5), too_many)

    @pytest.mark.parametrize(
        "fractions, total_bits",
        [
            # float shares floor 10 bits short of the total: more than one per file
            ((0.3, 0.6999999999999), 10**14),
            # float shares floor 10 bits above it
            ((0.3, 0.7000000000001), 10**14),
            # thirds floor 4 bits short at 2**56 and 256 at 2**62
            ((1 / 3, 1 / 3, 1 / 3), 2**56),
            ((1 / 3, 1 / 3, 1 / 3), MAX_TOTAL_BITS),
        ],
    )
    def test_inexact_split_rejected_at_construction(self, fractions, total_bits):
        with pytest.raises(cm.ConfigurationError, match=f"total_bits {total_bits} has no exact split"):
            cm.Library(fractions, total_bits)

    def test_exact_split_above_float_precision(self):
        # thirds of 2**53 + 1 floor 3 bits short, one per file
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 2**53 + 1)
        assert sum(lib.file_bits) == 2**53 + 1


class TestCacheProfile:
    def test_requires_sorted(self):
        with pytest.raises(cm.ConfigurationError):
            cm.CacheProfile((0.5, 0.2))

    def test_requires_unit_interval(self):
        with pytest.raises(cm.ConfigurationError):
            cm.CacheProfile((-0.1, 0.5))
        with pytest.raises(cm.ConfigurationError):
            cm.CacheProfile((0.5, 1.1))


class TestExpectedSubfileLengths:
    def test_hand_evaluated_pair(self):
        # F=(0.6,0.4), B=15, mu=(1/3,1/3): file 1 cached only by user 2 covers
        # 9 * (1/3) * (2/3) = 2 bits on average
        lib = cm.Library((0.6, 0.4), 15)
        caches = cm.CacheProfile((1 / 3, 1 / 3))
        em = cm.expected_subfile_lengths(lib, caches)
        assert em.length(1, frozenset({2})) == pytest.approx(2.0, rel=1e-12)
        assert em.lengths.dtype == np.float64
        assert (em.num_files, em.num_users) == (2, 2)
        assert not em.lengths.flags.writeable

    def test_map_width_must_be_a_power_of_two(self):
        with pytest.raises(cm.ConfigurationError):
            SubfileMap(np.zeros((2, 3), dtype=np.int64))


    @pytest.mark.parametrize("index", [0, -1, 3, 10])
    def test_file_index_outside_library_rejected(self, index):
        # a 2-file map: index 0 used to read the last file's row
        em = cm.expected_subfile_lengths(cm.Library((0.6, 0.4), 15), cm.CacheProfile((0.5,)))
        with pytest.raises(cm.ConfigurationError, match=f"file index {index} outside 1..2"):
            em.length(index, frozenset({1}))
        with pytest.raises(cm.ConfigurationError, match=f"file index {index} outside 1..2"):
            em.file_total(index)

    def test_no_caching(self):
        lib = cm.Library((0.6, 0.4), 15)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((0.0, 0.0)))
        for i, frac in ((1, 0.6), (2, 0.4)):
            assert em.length(i, frozenset()) == pytest.approx(frac * 15)
            for subset in all_subsets(2):
                assert em.length(i, subset) == 0.0

    def test_full_caching(self):
        lib = cm.Library((0.6, 0.4), 15)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((1.0, 1.0)))
        assert em.length(1, frozenset({1, 2})) == pytest.approx(9.0)
        assert em.length(1, frozenset({1})) == 0.0
        assert em.length(1, frozenset()) == 0.0

    @given(
        mus=st.lists(st.floats(0, 1), min_size=1, max_size=4),
        fracs=st.lists(st.floats(0.05, 1), min_size=1, max_size=4),
        b=st.integers(1, 10**6),
    )
    def test_per_file_totals(self, mus, fracs, b):
        total = sum(fracs)
        lib = cm.Library(tuple(f / total for f in fracs), b)
        caches = cm.CacheProfile(tuple(sorted(mus)))
        em = cm.expected_subfile_lengths(lib, caches)
        for i, frac in enumerate(lib.file_fractions, start=1):
            assert em.file_total(i) == pytest.approx(frac * b, rel=1e-9)


class TestSamplePlacement:
    def test_deterministic(self):
        lib = cm.Library((0.6, 0.4), 500)
        caches = cm.CacheProfile((0.3, 0.7))
        a = cm.sample_placement(lib, caches, seed=9)
        b = cm.sample_placement(lib, caches, seed=9)
        for fa, fb in zip(a.bit_values, b.bit_values):
            assert np.array_equal(fa, fb)
        for ma, mb in zip(a.cached_by, b.cached_by):
            assert np.array_equal(ma, mb)

    def test_full_cache_user(self):
        lib = cm.Library((0.6, 0.4), 200)
        pl = cm.sample_placement(lib, cm.CacheProfile((0.2, 1.0)), seed=1)
        for mask in pl.cached_by:
            assert mask[1].all()

    def test_enumeration_guard(self):
        lib = cm.Library((1.0,), 10**7 + 1)
        with pytest.raises(cm.ConfigurationError):
            cm.sample_placement(lib, cm.CacheProfile((0.5,)), seed=0)

    def test_binomial_concentration(self):
        # realized |W_{1,{2}}| ~ Binom(60000, 2/9); one seed stays within 3 sigma
        lib = cm.Library((0.6, 0.4), 10**5)
        caches = cm.CacheProfile((1 / 3, 1 / 3))
        pl = cm.sample_placement(lib, caches, seed=3)
        rm = cm.realized_subfile_map(pl)
        n, p = 60000, (1 / 3) * (2 / 3)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(rm.length(1, frozenset({2})) - n * p) <= 3 * sigma


class TestRealizedSubfileMap:
    @pytest.mark.parametrize("index", [0, -1, 3])
    def test_file_index_outside_library_rejected(self, two_user_pair_placement, index):
        placement = two_user_pair_placement
        with pytest.raises(cm.ConfigurationError, match=f"file index {index} outside 1..2"):
            placement.subset_codes(index)
        with pytest.raises(cm.ConfigurationError, match=f"file index {index} outside 1..2"):
            placement.subfile_positions(index, frozenset({1}))

    def test_pair_fixture_lengths(self, two_user_pair_placement):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        assert rm.length(1, frozenset({2})) == 3
        assert rm.length(2, frozenset({1})) == 2
        assert rm.length(1, frozenset()) == 3
        assert rm.length(1, frozenset({1, 2})) == 0

    def test_empty_caches(self):
        lib = cm.Library((0.6, 0.4), 50)
        pl = cm.sample_placement(lib, cm.CacheProfile((0.0, 0.0)), seed=0)
        rm = cm.realized_subfile_map(pl)
        assert rm.length(1, frozenset()) == 30
        assert rm.length(2, frozenset()) == 20

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed):
        lib = cm.Library((0.35, 0.65), 400)
        caches = cm.CacheProfile((0.25, 0.5))
        rm = cm.realized_subfile_map(cm.sample_placement(lib, caches, seed))
        for i, nbits in enumerate(lib.file_bits, start=1):
            assert rm.file_total(i) == nbits


class TestQuantization:
    def test_largest_remainder(self):
        assert largest_remainder([1.4, 1.4, 1.2], 4).tolist() == [2, 1, 1]
        assert largest_remainder([2.0, 2.0], 4).tolist() == [2, 2]
        with pytest.raises(ValueError):
            largest_remainder([0.5, 0.5], 5)  # deficit beyond the length
        with pytest.raises(ValueError):
            largest_remainder([2.0, 2.5], 3)

    @given(
        targets=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.5, 2.5, 3.0]) | st.floats(0, 50),
            min_size=1,
            max_size=40,
        ),
        extra=st.integers(0, 45),
    )
    def test_largest_remainder_matches_loop(self, targets, extra):
        # repeated remainders exercise the ties at the cut; _LOOP_MAX = 0
        # sends short lists through the partition too
        total = sum(math.floor(t) for t in targets) + extra

        def outcome(apportion):
            # an extra beyond the length raises: no unit may go twice to one share
            try:
                return [int(n) for n in apportion(targets, total)]
            except ValueError:
                return ValueError

        want = outcome(loop_largest_remainder)
        assert (want is ValueError) == (extra > len(targets))
        for loop_max in (caching._LOOP_MAX, 0):
            with mock.patch.object(caching, "_LOOP_MAX", loop_max):
                assert outcome(largest_remainder) == want

    @given(
        # magnitudes past 2**53, where the float shares round; the sum stays
        # within MAX_TOTAL_BITS, as every caller's does
        targets=st.lists(st.floats(0, 2.0**57), min_size=1, max_size=32),
        offset=st.integers(-50, 50),
    )
    def test_returned_shares_sum_to_total(self, targets, offset):
        total = int(sum(targets)) + offset
        for loop_max in (caching._LOOP_MAX, 0):
            with mock.patch.object(caching, "_LOOP_MAX", loop_max):
                try:
                    shares = largest_remainder(targets, total).tolist()
                except ValueError:
                    continue
            assert sum(shares) == total
            assert all(0 <= n - math.floor(t) <= 1 for n, t in zip(shares, targets))

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("loop_max", [caching._LOOP_MAX, 0])
    def test_canonical_codes(self, k, loop_max):
        with mock.patch.object(caching, "_LOOP_MAX", loop_max):
            codes = canonical_codes.__wrapped__(k)  # not the cached array
        assert codes.tolist() == [0, *(subset_code(s) for s in subset_tuples(k))]
        assert codes.dtype == np.int64
        assert not codes.flags.writeable

    def test_conserves_file_totals(self):
        lib = cm.Library((1 / 3, 2 / 3), 100)
        caches = cm.CacheProfile((0.21, 0.47))
        em = cm.expected_subfile_lengths(lib, caches)
        qm = quantize_expected_map(em, lib)
        assert np.issubdtype(qm.lengths.dtype, np.integer)
        for i, nbits in enumerate(lib.file_bits, start=1):
            assert qm.file_total(i) == nbits

    @pytest.mark.parametrize("loop_max", [caching._LOOP_MAX, 0])
    def test_inexact_rounding_rejected(self, loop_max):
        # each file of thirds of 3 * 2**55 is exactly 2**55 bits, but the
        # float subset lengths of each floor 4 bits above it
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 3 * 2**55)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((0.2, 1 / 3, 0.5)))
        with mock.patch.object(caching, "_LOOP_MAX", loop_max):
            with pytest.raises(cm.ConfigurationError, match="do not round"):
                quantize_expected_map(em, lib)

    def test_ties_follow_canonical_subset_order(self):
        # 250 bits over 16 equally likely subsets: every remainder is 0.625, so
        # the ten leftover bits go to the first ten subsets in canonical order
        lib = cm.Library((0.25,) * 4, 1000)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((0.5,) * 4))
        qm = quantize_expected_map(em, lib)
        canonical = [frozenset(), *all_subsets(4)]
        assert [qm.length(1, s) for s in canonical] == [16] * 10 + [15] * 6


def oracle_runs(scheme, label_len, sched):
    """A subset's maximal runs [(first block, count, pieces)] from its blocks one by one."""
    runs = []
    for i in range(1, sched.n_blocks + 1):
        if scheme == cm.PROPOSED:
            pieces = {u: proposed_piece_len(n, sched.n_blocks, i) for u, n in sched.subfile_len.items()}
        else:
            pieces = {u: zero_padding_piece_len(n, label_len, i) for u, n in sched.subfile_len.items()}
        if runs and runs[-1][2] == pieces:
            runs[-1][1] += 1
        else:
            runs.append([i, 1, pieces])
    return [tuple(run) for run in runs]


@st.composite
def planning_instances(draw):
    """(map, library or None, demands) over every kind of map the planner meets."""
    k = draw(st.integers(1, 8))
    num_files = k + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["expected", "placement", "sparse"]))
    demands = cm.DemandVector(tuple(draw(st.permutations(range(1, num_files + 1)))[:k]))
    if kind == "sparse":  # arbitrary lengths, mostly zero, and empty plans
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([0, 1, 5, 60]))
        lengths = rng.integers(0, scale + 1, (num_files, 2**k))
        lengths[rng.random(lengths.shape) < draw(st.floats(0, 1))] = 0
        return SubfileMap(lengths), None, demands
    # equal cache sizes and equal files tie many remainders
    mu = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)
    mus = tuple(sorted(draw(st.lists(mu, min_size=k, max_size=k))))
    if draw(st.booleans()):
        fractions = (1 / num_files,) * num_files
    else:
        weights = draw(st.lists(st.integers(1, 9), min_size=num_files, max_size=num_files))
        fractions = tuple(w / sum(weights) for w in weights)
    lib = cm.Library(fractions, draw(st.integers(1, 3000)))
    caches = cm.CacheProfile(mus)
    if kind == "placement":
        placement = cm.sample_placement(lib, caches, draw(st.integers(0, 2**32 - 1)))
        return cm.realized_subfile_map(placement), None, demands
    return cm.expected_subfile_lengths(lib, caches), lib, demands


class TestPlannerMatchesLoop:
    @given(
        instance=planning_instances(),
        m=st.integers(1, 8),
        loop_max=st.sampled_from([caching._LOOP_MAX, 0]),  # 0: arrays at every K
    )
    @settings(max_examples=120, deadline=None)
    def test_quantise_and_plan_equal_the_loop(self, instance, m, loop_max):
        with mock.patch.object(caching, "_LOOP_MAX", loop_max):
            self.check(*instance, m)

    def check(self, smap, lib, demands, m):
        if lib is not None:
            quantised = quantize_expected_map(smap, lib)
            assert np.array_equal(quantised.lengths, loop_quantized_lengths(smap, lib))
            smap = quantised
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(smap, demands, scheme, m)
            per_subset, histograms, load = loop_delivery_plan(smap, demands, scheme, m)
            for u in range(1, smap.num_users + 1):
                # ordered items: the insertion order fixes ser_report's float sums
                assert list(plan.shape_counts(u).items()) == list(histograms[u].items())
            assert plan.load == load
            assert list(plan.per_subset.items()) == list(per_subset.items())
            for subset, sched in per_subset.items():
                got = [(b.block_index, count, b.per_user_piece_len) for b, count in plan.block_runs(subset)]
                assert got == oracle_runs(scheme, m, sched)

    def test_scenario_never_builds_schedules(self):
        lib = cm.Library((0.25,) * 4, 1000)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((0.1, 0.2, 0.3, 0.4)))
        plan = cm.build_delivery_plan(
            quantize_expected_map(em, lib), cm.DemandVector((1, 2, 3, 4)), cm.PROPOSED, 3
        )
        cm.plan_metrics(plan, cm.build_psk(3), cm.SnrProfile((10.0,) * 4))
        assert "per_subset" not in vars(plan)
        assert len(plan.per_subset) == 15


class TestBuildDeliveryPlan:
    def test_pair_message_single_block(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        sched = plan.per_subset[frozenset({1, 2})]
        assert sched.n_blocks == 1
        block = plan.block(frozenset({1, 2}), 1)
        assert block.per_user_piece_len == {1: 3, 2: 2}

    def test_three_to_one_split_proposed(self):
        # 9-bit vs 3-bit subfiles at 3 bits/symbol: 3 blocks, pieces 3 and 1
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        sched = plan.per_subset[frozenset({1, 2})]
        assert sched.n_blocks == 3
        assert [plan.useful_symbols(u) for u in (1, 2)] == [3, 3]
        for i in range(1, 4):
            assert plan.block(frozenset({1, 2}), i).per_user_piece_len == {1: 3, 2: 1}

    def test_three_to_one_split_zero_padding(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        sched = plan.per_subset[frozenset({1, 2})]
        assert sched.n_blocks == 3
        assert [plan.useful_symbols(u) for u in (1, 2)] == [3, 1]
        assert plan.block(frozenset({1, 2}), 1).per_user_piece_len == {1: 3, 2: 3}
        assert plan.block(frozenset({1, 2}), 2).per_user_piece_len == {1: 3, 2: 0}

    def test_duplicate_demands_rejected(self):
        with pytest.raises(cm.ConfigurationError):
            cm.DemandVector((1, 1))

    @pytest.mark.parametrize("k", [2, 5])  # the loop and the array planner
    def test_negative_lengths_rejected(self, k):
        smap = subfile_map(k, k, {(1, (2,)): 4, (2, (1,)): -1})
        with pytest.raises(cm.ConfigurationError, match="non-negative"):
            cm.build_delivery_plan(smap, cm.DemandVector(tuple(range(1, k + 1))), cm.PROPOSED, 3)

    def test_bad_symbol_width(self):
        smap = subfile_map(2, 2, {(1, (2,)): 4})
        with pytest.raises(cm.ConfigurationError):
            cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 0)

    def test_empty_plan_is_not_an_error(self):
        smap = subfile_map(2, 2, {})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert list(plan.iter_blocks()) == []
        assert plan.per_subset == {}

    def test_load_matches_message_bits(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        # messages: W_{1,empty}=3, W_{2,empty}=2, pair max(3,2)=3 -> 8/15
        assert plan.load == pytest.approx(8 / 15)

    def test_load_equal_across_schemes(self):
        smap = subfile_map(2, 2, {(1, (2,)): 7, (2, (1,)): 3, (1, ()): 5, (2, ()): 2})
        loads = [
            cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), s, 3).load
            for s in cm.SCHEMES
        ]
        assert loads[0] == loads[1]

    def test_float_map_rejected(self):
        lib = cm.Library((0.5, 0.5), 40)
        caches = cm.CacheProfile((0.3, 0.6))
        em = cm.expected_subfile_lengths(lib, caches)
        with pytest.raises(cm.ConfigurationError, match="quantize"):
            cm.build_delivery_plan(em, cm.DemandVector((1, 2)), cm.PROPOSED, 2)
        plan = cm.build_delivery_plan(
            quantize_expected_map(em, lib), cm.DemandVector((1, 2)), cm.PROPOSED, 2
        )
        for sched in plan.per_subset.values():
            for v in sched.subfile_len.values():
                assert isinstance(v, int)

    @given(
        w1=st.integers(0, 40),
        w2=st.integers(0, 40),
        m=st.integers(1, 6),
        scheme=st.sampled_from(cm.SCHEMES),
    )
    def test_plan_conserves_subfile_bits(self, w1, w2, m, scheme):
        smap = subfile_map(2, 2, {(1, (2,)): w1, (2, (1,)): w2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), scheme, m)
        subset = frozenset({1, 2})
        if max(w1, w2) == 0:
            assert subset not in plan.per_subset
            return
        sched = plan.per_subset[subset]
        for user, w in ((1, w1), (2, w2)):
            pieces = [
                plan.block(subset, i).piece_len(user) for i in range(1, sched.n_blocks + 1)
            ]
            assert sum(pieces) == w
            assert all(0 <= x <= m for x in pieces)
            if scheme == cm.PROPOSED:
                assert max(pieces) - min(pieces) <= 1
                assert pieces == sorted(pieces, reverse=True)

    @given(w=st.integers(1, 40), m=st.integers(1, 6))
    def test_proposed_split_sizes(self, w, m):
        n = -(-w // m)
        sizes = [proposed_piece_len(w, n, i) for i in range(1, n + 1)]
        assert sum(sizes) == w
        assert max(sizes) <= m



def enumerated_histogram(plan, user):
    """Brute-force oracle: walk every block and count the user's known-bit shapes."""
    counts = {}
    for subset, sched in plan.per_subset.items():
        if user not in subset:
            continue
        for i in range(1, sched.n_blocks + 1):
            block = plan.block(subset, i)
            if block.piece_len(user) == 0:
                continue
            shape = block.known_shape(user)
            counts[shape] = counts.get(shape, 0) + 1
    return counts


class TestShapeHistograms:
    @given(
        k=st.integers(1, 3),
        m=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_enumeration(self, k, m, data):
        entries = {}
        for i in range(1, k + 1):
            for subset in all_subsets(k):
                entries[(i, tuple(sorted(subset)))] = data.draw(st.integers(0, 60))
        smap = subfile_map(k, k, entries)
        demands = cm.DemandVector(tuple(range(1, k + 1)))
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(smap, demands, scheme, m)
            for u in range(1, k + 1):
                want = enumerated_histogram(plan, u)
                got = plan.shape_counts(u)
                # same insertion (block) order, so per-shape sums add up identically
                assert list(got.items()) == list(want.items())
                assert sum(got.values()) == plan.useful_symbols(u)
            for subset, sched in plan.per_subset.items():
                runs = plan.block_runs(subset)
                lengths = [block.per_user_piece_len for block, _ in runs]
                expanded = [lens for lens, (_, count) in zip(lengths, runs) for _ in range(count)]
                assert expanded == [
                    plan.block(subset, i).per_user_piece_len for i in range(1, sched.n_blocks + 1)
                ]
                assert all(a != b for a, b in zip(lengths, lengths[1:]))  # maximal runs
                assert len(runs) <= 2 * len(subset) + 1

    def test_hand_evaluated_runs(self):
        # 7 bits over 3 blocks of width 3: pieces 3, 2, 2 -> shapes (0,0) and 2 x (1,0)
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 7})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert plan.shape_counts(2) == {(0, 0): 1, (1, 0): 2}
        # sequential fill: two full labels, then one with 2 padded bits
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        assert plan.shape_counts(2) == {(0, 0): 2, (0, 2): 1}

    def test_block_index_out_of_range(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        for i in (0, 4):
            with pytest.raises(cm.ConfigurationError):
                plan.block(frozenset({1, 2}), i)
        with pytest.raises(cm.ConfigurationError):
            plan.block(frozenset({1}), 1)

class TestEncodeDecode:
    def test_pair_block_encoding(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        block = plan.block(frozenset({1, 2}), 1)
        label = cm.encode_block(block, {1: "010", 2: "10"})
        assert label.tolist() == [0, 0, 0]

    def test_single_piece_identity(self):
        smap = subfile_map(1, 1, {(1, ()): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1,)), cm.PROPOSED, 3)
        block = plan.block(frozenset({1}), 1)
        assert cm.encode_block(block, {1: "101"}).tolist() == [1, 0, 1]

    def test_all_zero_pieces(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        block = plan.block(frozenset({1, 2}), 1)
        assert cm.encode_block(block, {1: "000", 2: "00"}).tolist() == [0, 0, 0]

    def test_piece_length_mismatch_rejected(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        block = plan.block(frozenset({1, 2}), 1)
        with pytest.raises(cm.ConfigurationError):
            cm.encode_block(block, {1: "0100", 2: "10"})

    def test_decode_recovers_piece(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        block = plan.block(frozenset({1, 2}), 1)
        piece = cm.decode_block("000", block, 2, {1: "010"})
        assert piece.tolist() == [1, 0]

    def test_decode_missing_piece(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        block = plan.block(frozenset({1, 2}), 1)
        with pytest.raises(cm.ConfigurationError):
            cm.decode_block("000", block, 2, {})

    @given(
        w1=st.integers(1, 30),
        w2=st.integers(1, 30),
        m=st.integers(1, 5),
        scheme=st.sampled_from(cm.SCHEMES),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, w1, w2, m, scheme, data):
        smap = subfile_map(2, 2, {(1, (2,)): w1, (2, (1,)): w2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), scheme, m)
        subset = frozenset({1, 2})
        bits1 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=w1, max_size=w1)), dtype=np.uint8)
        bits2 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=w2, max_size=w2)), dtype=np.uint8)
        payload = {1: bits1, 2: bits2}
        taken = {1: 0, 2: 0}
        got = {1: [], 2: []}
        for i in range(1, plan.per_subset[subset].n_blocks + 1):
            block = plan.block(subset, i)
            pieces = {}
            for u in (1, 2):
                n = block.piece_len(u)
                pieces[u] = payload[u][taken[u] : taken[u] + n]
                taken[u] += n
            label = cm.encode_block(block, pieces)
            for u, other in ((1, 2), (2, 1)):
                out = cm.decode_block(label, block, u, {other: pieces[other]})
                got[u].extend(out.tolist())
        assert got[1] == bits1.tolist()
        assert got[2] == bits2.tolist()


    @given(
        w1=st.integers(0, 30),
        w2=st.integers(1, 30),
        m=st.integers(1, 5),
        scheme=st.sampled_from(cm.SCHEMES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_run_matches_single_blocks(self, w1, w2, m, scheme, seed):
        # a (count, n_u) run encodes and decodes exactly like its blocks one by one
        smap = subfile_map(2, 2, {(1, (2,)): w1, (2, (1,)): w2})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), scheme, m)
        rng = np.random.default_rng(seed)
        subset = frozenset({1, 2})
        first = 1
        for block, count in plan.block_runs(subset):
            pieces = {
                u: rng.integers(0, 2, size=(count, block.piece_len(u)), dtype=np.uint8)
                for u in (1, 2)
            }
            labels = cm.encode_block(block, pieces)
            singles = [plan.block(subset, first + i) for i in range(count)]
            assert labels.tolist() == [
                cm.encode_block(b, {u: pieces[u][i] for u in (1, 2)}).tolist()
                for i, b in enumerate(singles)
            ]
            for u, other in ((1, 2), (2, 1)):
                got = cm.decode_block(labels, block, u, {other: pieces[other]})
                assert got.tolist() == pieces[u].tolist()
            first += count

    def test_run_counts_must_agree(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        block = plan.block(frozenset({1, 2}), 1)
        two, three = np.zeros((2, 3), np.uint8), np.zeros((3, 2), np.uint8)
        with pytest.raises(cm.ConfigurationError):
            cm.encode_block(block, {1: two, 2: three})
        with pytest.raises(cm.ConfigurationError):
            cm.encode_block(block, {1: "010", 2: three})
        with pytest.raises(cm.ConfigurationError):
            cm.decode_block(np.zeros((2, 3), np.uint8), block, 2, {1: np.zeros((3, 3), np.uint8)})


class TestKnownBitMask:
    def test_pair_block_masks(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        assert plan.block({1, 2}, 1).known_shape(2) == (1, 0)
        assert plan.block({1, 2}, 1).known_shape(1) == (0, 0)

    def test_uneven_split_prefixes(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        for i in range(1, 4):
            assert plan.block({1, 2}, i).known_shape(2) == (2, 0)

    def test_zero_padding_suffix(self):
        smap = subfile_map(2, 2, {(1, (2,)): 6, (2, (1,)): 4})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        assert plan.block({1, 2}, 1).known_shape(2) == (0, 0)
        assert plan.block({1, 2}, 2).known_shape(2) == (0, 2)

    def test_useless_block_raises(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        with pytest.raises(cm.UselessBlockError):
            plan.block({1, 2}, 2).known_shape(2)

    def test_divisible_lengths_dominate_zero_padding(self):
        # when the symbol width divides everything, the even split never knows
        # fewer bits than sequential fill on any useful block
        smap = subfile_map(2, 2, {(1, (2,)): 12, (2, (1,)): 6})
        pp = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        pz = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        subset = frozenset({1, 2})
        for u in (1, 2):
            for i in range(1, pz.useful_symbols(u) + 1):
                prop = pp.block(subset, i).known_shape(u)[0]
                zp = pz.block(subset, i).known_shape(u)[0]
                assert prop >= zp
