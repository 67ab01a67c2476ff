import math
import tracemalloc
from functools import partial
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
    _canonical_key,
    decode_block,
    encode_block,
    known_shape,
    largest_remainder,
    piece_runs,
)
from conftest import (
    all_subsets,
    loop_delivery_plan,
    loop_largest_remainder,
    loop_quantized_lengths,
    message_subsets,
    oracle_blocks,
    oracle_pieces,
    oracle_shape,
    oracle_subfile_lens,
    shape_histogram,
    subfile_map,
    subset_code,
    subset_tuples,
)


class TestLibrary:
    def test_rejects_bad_fractions(self):
        with pytest.raises(cm.ConfigurationError, match="file fractions sum to 1.1"):
            cm.Library((0.5, 0.6), 10)
        with pytest.raises(cm.ConfigurationError, match="total_bits 0 outside 1.."):
            cm.Library((1.0,), 0)
        with pytest.raises(cm.ConfigurationError, match="must be positive and finite, not"):
            cm.Library((0.0, 1.0), 10)

    def test_file_bits_partition_total(self):
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 100)
        assert sum(lib.file_bits) == 100
        assert sorted(lib.file_bits) == [33, 33, 34]
        assert all(type(n) is int for n in lib.file_bits)

    def test_total_bits_bounded(self):
        assert cm.Library((0.5, 0.5), MAX_TOTAL_BITS).file_bits == (2**61, 2**61)
        for too_many in (MAX_TOTAL_BITS + 1, 10**20):
            with pytest.raises(cm.ConfigurationError, match=r"exceeds the limit of 2\*\*62"):
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
        inexact = f"total_bits {total_bits} has no exact split over the file fractions"
        with pytest.raises(cm.ConfigurationError, match=inexact):
            cm.Library(fractions, total_bits)

    @pytest.mark.parametrize("total_bits", [100.5, 100.0, True, "100", None])
    def test_total_bits_must_be_an_exact_int(self, total_bits):
        # no float is truncated or reaches a slice, and True is not a 1-bit library
        with pytest.raises(cm.ConfigurationError, match="total_bits must be an integer, not"):
            cm.Library((1.0,), total_bits)

    @pytest.mark.parametrize("fractions", [("1",), (True,), (0.5, None), (0.5, 0.5j)])
    def test_fractions_must_be_real_numbers(self, fractions):
        # "1" is not parsed into a one-file library, nor True taken for 1.0
        with pytest.raises(cm.ConfigurationError, match="file fractions must be real numbers, not"):
            cm.Library(fractions, 10)

    def test_int_and_float_fractions_accepted(self):
        assert cm.Library((1,), 10).file_fractions == (1.0,)
        assert cm.Library((np.float64(0.25), 0.75), 8).file_bits == (2, 6)

    def test_exact_split_above_float_precision(self):
        # thirds of 2**53 + 1 floor 3 bits short, one per file
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 2**53 + 1)
        assert sum(lib.file_bits) == 2**53 + 1


class TestCacheProfile:
    def test_requires_sorted(self):
        with pytest.raises(cm.ConfigurationError):
            cm.CacheProfile((0.5, 0.2))

    def test_requires_unit_interval(self):
        for mus in ((-0.1, 0.5), (0.5, 1.1)):
            with pytest.raises(cm.ConfigurationError, match=r"cache fractions must lie in \[0, 1\]"):
                cm.CacheProfile(mus)

    def test_rejects_nan(self):
        # NaN fails every comparison: only a check written as `not 0 <= mu <= 1` rejects it
        for mus in ((math.nan,), (0.2, math.nan)):
            with pytest.raises(cm.ConfigurationError, match=r"\[0, 1\]"):
                cm.CacheProfile(mus)

    @pytest.mark.parametrize("mus", [("0.5", True), (0.5, True), (np.False_,), (None,), (0.5j,)])
    def test_entries_must_be_real_numbers(self, mus):
        # a coercing profile read ("0.5", True) as (0.5, 1.0)
        with pytest.raises(cm.ConfigurationError, match="cache fractions must be real numbers"):
            cm.CacheProfile(mus)

    def test_int_and_float_entries_accepted(self):
        assert cm.CacheProfile((0, 0.5, np.float64(0.75), 1)).mus == (0.0, 0.5, 0.75, 1.0)


class TestDemandVector:
    @pytest.mark.parametrize("demands", [(1.5, 2), (1.0, 2), ("1", 2), (True, 2), (None,)])
    def test_entries_must_be_exact_ints(self, demands):
        # 1.5 is not truncated to file 1, nor "1" taken for a file index
        with pytest.raises(cm.ConfigurationError, match="integer file indices"):
            cm.DemandVector(demands)

    @pytest.mark.parametrize("user", [0, -1, 4])
    def test_file_for_user_outside_range_rejected(self, user):
        # user 0 used to read the last user's file through a negative index
        demands = cm.DemandVector((3, 1, 2))
        assert [demands.file_for(u) for u in (1, 2, 3)] == [3, 1, 2]
        with pytest.raises(cm.ConfigurationError, match=f"user {user} outside 1..3"):
            demands.file_for(user)


class TestSubfileMapSize:
    """N * 2**K map entries are bounded before a map is allocated."""

    def test_expected_map_checks_size(self):
        lib, caches = cm.Library((0.2,) * 5, 100), cm.CacheProfile((0.5,) * 3)
        with mock.patch.object(caching, "MAX_SUBFILE_ENTRIES", 5 << 3):
            assert cm.expected_subfile_lengths(lib, caches).lengths.shape == (5, 8)
        with mock.patch.object(caching, "MAX_SUBFILE_ENTRIES", (5 << 3) - 1):
            with pytest.raises(cm.ConfigurationError, match="5 files x 2\\^3 subsets exceed"):
                cm.expected_subfile_lengths(lib, caches)

    def test_realized_map_checks_size(self):
        placement = cm.sample_placement(
            cm.Library((0.2,) * 5, 100), cm.CacheProfile((0.5,) * 3), seed=0
        )
        with mock.patch.object(caching, "MAX_SUBFILE_ENTRIES", (5 << 3) - 1):
            limit = "subsets exceed the subfile map limit of 39 entries"
            with pytest.raises(cm.ConfigurationError, match=limit):
                cm.realized_subfile_map(placement)


class TestExpectedSubfileLengths:
    def test_hand_evaluated_pair(self):
        # F=(0.6,0.4), B=15, mu=(1/3,1/3): file 1 cached only by user 2 covers
        # 9 * (1/3) * (2/3) = 2 bits on average
        lib = cm.Library((0.6, 0.4), 15)
        caches = cm.CacheProfile((1 / 3, 1 / 3))
        em = cm.expected_subfile_lengths(lib, caches)
        assert [em.lengths[0, subset_code(s)] for s in ((), (1,), (2,), (1, 2))] == [4, 2, 2, 1]
        assert em.lengths.dtype == np.int64
        assert (em.num_files, em.num_users) == (2, 2)
        assert not em.lengths.flags.writeable

    def test_map_width_must_be_a_power_of_two(self):
        shape = r"subfile lengths must have shape \(num_files, 2\*\*num_users\)"
        with pytest.raises(cm.ConfigurationError, match=shape):
            SubfileMap(np.zeros((2, 3), dtype=np.int64))

    def test_maps_compare_and_hash_by_identity(self):
        # a generated `==` compared the arrays as one truth value, and raised for
        # any two distinct maps of more than one entry; a generated `hash` raised too
        lengths = np.arange(8).reshape(2, 4)
        a, b = SubfileMap(lengths), SubfileMap(lengths)
        assert a == a and a != b and not (a == b)
        assert {a, b, a} == {a, b} and len({a, b}) == 2

    def test_no_caching(self):
        lib = cm.Library((0.6, 0.4), 15)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((0.0, 0.0)))
        for i, frac in ((1, 0.6), (2, 0.4)):
            assert em.lengths[i - 1, subset_code(())] == round(frac * 15)
            for subset in all_subsets(2):
                assert em.lengths[i - 1, subset_code(subset)] == 0

    def test_full_caching(self):
        lib = cm.Library((0.6, 0.4), 15)
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((1.0, 1.0)))
        assert em.lengths[0, subset_code({1, 2})] == 9
        assert em.lengths[0, subset_code({1})] == 0
        assert em.lengths[0, subset_code(())] == 0

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
        for i, nbits in enumerate(lib.file_bits, start=1):
            assert em.lengths[i - 1].sum() == nbits


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

    @pytest.mark.parametrize("k, nbits", [(3, 15000), (20, 1001), (1, 7)])
    def test_rows_are_the_one_shot_draws(self, k, nbits):
        # per file: bit values, then random((K, nbits)) < mu_k, row by row
        caches = cm.CacheProfile(tuple(np.linspace(0.05, 0.95, k)))
        placement = cm.sample_placement(cm.Library((0.5, 0.5), 2 * nbits), caches, seed=k)
        rng = np.random.default_rng(k)
        for values, codes, mask in zip(
            placement.bit_values, placement.subset_codes, placement.cached_by, strict=True
        ):
            assert np.array_equal(values, rng.integers(0, 2, size=nbits, dtype=np.uint8))
            want = rng.random(size=(k, nbits)) < np.array(caches.mus)[:, None]
            assert mask.dtype == bool and np.array_equal(mask, want)
            # one int64 code per bit, bit u - 1 set when user u cached it
            assert codes.dtype == np.int64 and codes.shape == (nbits,)
            assert np.array_equal(codes, (want << np.arange(k)[:, None]).sum(axis=0))

    def test_float_draws_take_one_row(self):
        # 20 users, 2e5 bits: a (K, nbits) float array would take 32 MB
        lib, caches = cm.Library((1.0,), 200_000), cm.CacheProfile((0.5,) * 20)
        tracemalloc.start()
        try:
            cm.sample_placement(lib, caches, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int64 subset codes 1.6 MB, bit values 0.2 MB, one row of floats 1.6 MB
        assert peak < 5 * 2**20

    def test_full_cache_user(self):
        lib = cm.Library((0.6, 0.4), 200)
        pl = cm.sample_placement(lib, cm.CacheProfile((0.2, 1.0)), seed=1)
        for mask in pl.cached_by:
            assert mask[1].all()

    @pytest.mark.parametrize("seed", [None, True, 1.0, "1", np.int64(1), -1, 2**64])
    def test_seed_must_be_a_64_bit_int(self, seed):
        # None would draw fresh OS entropy, so the placement would not repeat
        lib = cm.Library((0.6, 0.4), 20)
        with pytest.raises(cm.ConfigurationError, match="seed must be an integer in"):
            cm.sample_placement(lib, cm.CacheProfile((0.5,)), seed=seed)

    def test_seed_bounds_accepted(self):
        lib, caches = cm.Library((0.6, 0.4), 20), cm.CacheProfile((0.5,))
        for seed in (0, 2**64 - 1):
            assert cm.sample_placement(lib, caches, seed=seed).subset_codes[0].size == 12

    def test_enumeration_guard(self):
        lib = cm.Library((1.0,), 10**7 + 1)
        guard = r"total_bits 10000001 exceeds the enumeration guard \(10000000\)"
        with pytest.raises(cm.ConfigurationError, match=guard):
            cm.sample_placement(lib, cm.CacheProfile((0.5,)), seed=0)

    def test_binomial_concentration(self):
        # realized |W_{1,{2}}| ~ Binom(60000, 2/9); one seed stays within 3 sigma
        lib = cm.Library((0.6, 0.4), 10**5)
        caches = cm.CacheProfile((1 / 3, 1 / 3))
        pl = cm.sample_placement(lib, caches, seed=3)
        rm = cm.realized_subfile_map(pl)
        n, p = 60000, (1 / 3) * (2 / 3)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(rm.lengths[0, subset_code({2})] - n * p) <= 3 * sigma


class TestRealizedSubfileMap:
    def test_pair_fixture_lengths(self, two_user_pair_placement):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        assert rm.lengths[0, subset_code({2})] == 3
        assert rm.lengths[1, subset_code({1})] == 2
        assert rm.lengths[0, subset_code(())] == 3
        assert rm.lengths[0, subset_code({1, 2})] == 0

    def test_empty_caches(self):
        lib = cm.Library((0.6, 0.4), 50)
        pl = cm.sample_placement(lib, cm.CacheProfile((0.0, 0.0)), seed=0)
        rm = cm.realized_subfile_map(pl)
        assert rm.lengths[0, subset_code(())] == 30
        assert rm.lengths[1, subset_code(())] == 20

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_partition_property(self, seed):
        lib = cm.Library((0.35, 0.65), 400)
        caches = cm.CacheProfile((0.25, 0.5))
        rm = cm.realized_subfile_map(cm.sample_placement(lib, caches, seed))
        for i, nbits in enumerate(lib.file_bits, start=1):
            assert rm.lengths[i - 1].sum() == nbits


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
        # repeated remainders exercise the ties at the cut
        total = sum(math.floor(t) for t in targets) + extra

        def outcome(apportion):
            # an extra beyond the length raises: no unit may go twice to one share
            try:
                return [int(n) for n in apportion(targets, total)]
            except ValueError:
                return ValueError

        want = outcome(loop_largest_remainder)
        assert (want is ValueError) == (extra > len(targets))
        assert outcome(largest_remainder) == want

    @given(
        # magnitudes past 2**53, where the float shares round; the sum stays
        # within MAX_TOTAL_BITS, as every caller's does
        targets=st.lists(st.floats(0, 2.0**57), min_size=1, max_size=32),
        offset=st.integers(-50, 50),
    )
    def test_returned_shares_sum_to_total(self, targets, offset):
        total = int(sum(targets)) + offset
        try:
            shares = largest_remainder(targets, total).tolist()
        except ValueError:
            return
        assert sum(shares) == total
        assert all(0 <= n - math.floor(t) <= 1 for n, t in zip(shares, targets))

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("whole", [16, 0])
    def test_canonical_codes(self, k, whole):
        # the tie key sorts the codes canonically, on ints and on arrays ...
        canonical = [0, *(subset_code(s) for s in subset_tuples(k))]
        assert sorted(range(1 << k), key=lambda c: _canonical_key(c, k)) == canonical
        keys = _canonical_key(np.arange(1 << k, dtype=np.int64), k)
        assert keys.dtype == np.int64
        assert np.argsort(keys).tolist() == canonical
        # ... and equal remainders take their units in that order, whatever
        # whole number of units each share holds below them
        n = 1 << k
        for units in {1, n // 3, n - 1}:
            tie_key = partial(_canonical_key, num_users=k)
            shares = largest_remainder([whole + 0.5] * n, whole * n + units, tie_key)
            assert set(shares.tolist()) <= {whole, whole + 1}
            assert sorted(np.flatnonzero(shares - whole).tolist()) == sorted(canonical[:units])

    def test_conserves_file_totals(self):
        lib = cm.Library((1 / 3, 2 / 3), 100)
        caches = cm.CacheProfile((0.21, 0.47))
        em = cm.expected_subfile_lengths(lib, caches)
        assert em.lengths.dtype == np.int64
        for i, nbits in enumerate(lib.file_bits, start=1):
            assert em.lengths[i - 1].sum() == nbits

    @pytest.mark.parametrize("idle_users", [16, 0])
    def test_inexact_rounding_rejected(self, idle_users):
        # each file of thirds of 3 * 2**55 is exactly 2**55 bits, but the
        # float subset lengths of each floor 4 bits above it; users who cache
        # nothing add empty subsets, which cannot take up the excess
        lib = cm.Library((1 / 3, 1 / 3, 1 / 3), 3 * 2**55)
        caches = cm.CacheProfile((0.0,) * idle_users + (0.2, 1 / 3, 0.5))
        with pytest.raises(cm.ConfigurationError, match="do not round"):
            cm.expected_subfile_lengths(lib, caches)

    def test_ties_follow_canonical_subset_order(self):
        # 250 bits over 16 equally likely subsets: every remainder is 0.625, so
        # the ten leftover bits go to the first ten subsets in canonical order
        lib = cm.Library((0.25,) * 4, 1000)
        canonical = [frozenset(), *all_subsets(4)]
        em = cm.expected_subfile_lengths(lib, cm.CacheProfile((0.5,) * 4))
        assert [em.lengths[0, subset_code(s)] for s in canonical] == [16] * 10 + [15] * 6


def message_blocks(plan, subset):
    """The number of m-bit blocks of a subset's message in the plan."""
    return -(-int(plan.ell[subset_code(subset)]) // plan.label_len)


def message_runs(plan, subset):
    """{user: its two `piece_runs`} over the blocks of a subset's message in the plan."""
    return {
        u: piece_runs(plan.scheme, n, message_blocks(plan, subset), plan.label_len)
        for u, n in oracle_subfile_lens(plan, subset).items()
    }


def expand(runs, n_blocks):
    """Each of n_blocks blocks' piece length: the runs in order, then empty pieces."""
    pieces = [piece for piece, count in runs for _ in range(count)]
    return pieces + [0] * (n_blocks - len(pieces))


@st.composite
def planning_instances(draw):
    """(map, or the (library, caches) of an expected map, and demands) over every kind of map."""
    k = draw(st.integers(1, 8))
    num_files = k + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["expected", "placement", "sparse"]))
    demands = cm.DemandVector(tuple(draw(st.permutations(range(1, num_files + 1)))[:k]))
    if kind == "sparse":  # arbitrary lengths, mostly zero, and empty plans
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([0, 1, 5, 60]))
        lengths = rng.integers(0, scale + 1, (num_files, 2**k))
        lengths[rng.random(lengths.shape) < draw(st.floats(0, 1))] = 0
        return SubfileMap(lengths), demands
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
        return cm.realized_subfile_map(placement), demands
    return (lib, caches), demands


class TestPlannerMatchesLoop:
    @given(
        instance=planning_instances(),
        m=st.integers(1, 8),
        # entries per array step: one subset a step below K, a few, all of them
        plan_entries=st.sampled_from([caching._PLAN_ENTRIES, 1, 13]),
    )
    @settings(max_examples=120)
    def test_quantise_and_plan_equal_the_loop(self, instance, m, plan_entries):
        with mock.patch.object(caching, "_PLAN_ENTRIES", plan_entries):
            self.check(*instance, m)

    def check(self, smap, demands, m):
        if not isinstance(smap, SubfileMap):  # an expected map, quantised here
            expected = cm.expected_subfile_lengths(*smap)
            assert np.array_equal(expected.lengths, loop_quantized_lengths(*smap))
            smap = expected
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(smap, demands, scheme, m)
            ell, histograms, load = loop_delivery_plan(smap, demands, scheme, m)
            for u in range(1, smap.num_users + 1):
                assert shape_histogram(plan, u) == histograms[u]
            assert plan.load == load
            assert plan.ell.tolist() == ell  # by subset code


class TestBuildDeliveryPlan:
    def test_plan_memory_does_not_grow_with_users(self):
        # K = 16: steps of 8,192 subsets held (16, 8192, 2) int64 arrays and
        # peaked at 13.7 MiB; steps of 8,192 (user, subset) entries take 1.4
        # MiB, half of it the (2^16,) ell table
        k = 16
        lib = cm.Library((1 / k,) * k, 1_000_000)
        caches = cm.CacheProfile(tuple(0.05 + 0.06 * i for i in range(k)))
        smap, demands = cm.expected_subfile_lengths(lib, caches), cm.DemandVector(tuple(range(1, k + 1)))
        tracemalloc.start()
        try:
            for scheme in cm.SCHEMES:
                cm.build_delivery_plan(smap, demands, scheme, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_pair_message_single_block(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        assert plan.ell[subset_code({1, 2})] == 3  # one block
        assert message_runs(plan, {1, 2}) == {1: ((4, 0), (3, 1)), 2: ((3, 0), (2, 1))}

    def test_three_to_one_split_proposed(self):
        # 9-bit vs 3-bit subfiles at 3 bits/symbol: 3 blocks, pieces 3 and 1
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert plan.ell[subset_code({1, 2})] == 9  # three blocks
        assert plan.known_counts.sum(axis=1).tolist() == [3, 3]  # useful symbols per user
        assert message_runs(plan, {1, 2}) == {1: ((4, 0), (3, 3)), 2: ((2, 0), (1, 3))}

    def test_three_to_one_split_zero_padding(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        assert plan.ell[subset_code({1, 2})] == 9  # three blocks
        assert plan.known_counts.sum(axis=1).tolist() == [3, 1]
        # user 2's third label is partial with no bits; its last two blocks are empty
        assert message_runs(plan, {1, 2}) == {1: ((3, 3), (0, 0)), 2: ((3, 1), (0, 0))}

    def test_duplicate_demands_rejected(self):
        with pytest.raises(cm.ConfigurationError):
            cm.DemandVector((1, 1))

    @pytest.mark.parametrize("k", [2, 5])  # map sizes of the loop and the array planner
    def test_negative_lengths_rejected(self, k):
        # caught when the map is built, so no planner sees it
        with pytest.raises(cm.ConfigurationError, match="subfile lengths must be non-negative"):
            subfile_map(k, k, {(1, (2,)): 4, (2, (1,)): -1})

    def test_bad_symbol_width(self):
        smap = subfile_map(2, 2, {(1, (2,)): 4})
        with pytest.raises(cm.ConfigurationError):
            cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 0)

    def test_empty_plan_is_not_an_error(self):
        smap = subfile_map(2, 2, {})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert not plan.ell.any()
        assert plan.known_counts.sum(axis=1).tolist() == [0, 0]

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

    @pytest.mark.parametrize("k, mu", [(3, 0.3), (4, 0.25), (5, 0.5), (12, 0.2)])
    def test_load_is_the_decentralized_rate(self, k, mu):
        # homogeneous caches of fraction mu, N = K equal files, distinct
        # demands: the expected delivery sends (1 - mu) / mu (1 - (1 - mu)^K)
        # files (Maddah-Ali & Niesen 2015), and the load is per B = K files.
        # B = 1e12 leaves the rounding to whole bits far below the tolerance
        library, caches = cm.Library((1 / k,) * k, 10**12), cm.CacheProfile((mu,) * k)
        smap = cm.expected_subfile_lengths(library, caches)
        rate = (1 - mu) / mu * (1 - (1 - mu) ** k)
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(smap, cm.DemandVector(tuple(range(1, k + 1))), scheme, 3)
            assert plan.load * k == pytest.approx(rate, rel=1e-8)

    def test_float_map_rejected(self):
        # no map of fractional, boolean or untyped lengths can be built, so none reaches a plan
        for lengths in (
            np.full((2, 4), 2.5),
            np.full((2, 4), 2.0),
            np.ones((2, 4), dtype=bool),
            np.full((2, 4), 2 + 0j),
            np.full((2, 4), 2, dtype=object),
        ):
            with pytest.raises(cm.ConfigurationError, match="subfile lengths must be integers, not"):
                SubfileMap(lengths)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.int64])
    def test_integer_maps_stored_as_int64(self, dtype):
        lengths = np.arange(24, dtype=np.int64).reshape(3, 8) * 5
        given = lengths.astype(dtype)
        smap, reference = SubfileMap(given), SubfileMap(lengths)
        assert smap.lengths.dtype == np.int64 and not smap.lengths.flags.writeable
        assert np.array_equal(smap.lengths, lengths)
        # an int64 map is a read-only view, not a copy, and the caller's array stays writeable
        assert np.shares_memory(smap.lengths, given) == (dtype == np.int64)
        assert given.flags.writeable
        for scheme in cm.SCHEMES:
            plan, want = (cm.build_delivery_plan(x, cm.DemandVector((1, 2, 3)), scheme, 3)
                          for x in (smap, reference))
            assert plan.load == want.load
            assert np.array_equal(plan.ell, want.ell)
            assert np.array_equal(plan.known_counts, want.known_counts)

    def test_total_past_the_bit_limit_rejected(self):
        # its int64 sum wraps to 0, which used to plan with load 0.0
        with pytest.raises(cm.ConfigurationError, match="subfile lengths sum past the limit of"):
            SubfileMap(np.array([[2**62] * 4] * 2))

    def test_total_at_the_bit_limit_plans_exactly(self):
        smap = SubfileMap(np.array([[2**59] * 4] * 2))  # 8 * 2**59 = 2**62 bits
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert smap.lengths[0].sum() + smap.lengths[1].sum() == MAX_TOTAL_BITS
        assert plan.ell.tolist() == [0, 2**59, 2**59, 2**59]
        assert plan.load == 3 / 8

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
            assert plan.ell[subset_code(subset)] == 0
            return
        runs, n_blocks = message_runs(plan, subset), message_blocks(plan, subset)
        assert n_blocks == -(-max(w1, w2) // m)
        for user, w in ((1, w1), (2, w2)):
            assert len(runs[user]) == 2
            pieces = expand(runs[user], n_blocks)
            assert len(pieces) == n_blocks
            assert sum(pieces) == w
            assert all(0 <= x <= m for x in pieces)
            if scheme == cm.PROPOSED:
                assert max(pieces) - min(pieces) <= 1
                assert pieces == sorted(pieces, reverse=True)

    @given(w=st.integers(1, 40), m=st.integers(1, 6))
    def test_proposed_split_sizes(self, w, m):
        n = -(-w // m)
        sizes = [piece for piece, count in piece_runs(cm.PROPOSED, w, n, m) for _ in range(count)]
        assert len(sizes) == n
        assert sum(sizes) == w
        assert max(sizes) <= m

    @given(
        n=st.integers(0, 60),
        m=st.integers(1, 8),
        spare=st.integers(0, 3),  # blocks beyond the subfile's own
        scheme=st.sampled_from(cm.SCHEMES),
    )
    def test_piece_runs_match_dealt_bits(self, n, m, spare, scheme):
        n_blocks = max(1, -(-n // m)) + spare
        runs = piece_runs(scheme, n, n_blocks, m)
        assert len(runs) == 2
        assert all(count >= 0 for _, count in runs)
        assert expand(runs, n_blocks) == oracle_pieces(scheme, n, n_blocks, m)

    @given(
        columns=st.lists(  # (block count, three subfile lengths) per subset
            st.tuples(
                st.integers(1, 2**40), st.lists(st.integers(0, 2**48), min_size=3, max_size=3)
            ),
            max_size=12,
        ),
        m=st.integers(1, 8),
        scheme=st.sampled_from(cm.SCHEMES),
    )
    def test_piece_runs_on_arrays_match_scalar_calls(self, columns, m, scheme):
        # the array planner's call: (users, subsets) subfile lengths over one
        # block count per subset, each length fitting its message
        n_blocks = np.array([nb for nb, _ in columns], dtype=np.int64)
        lens = np.array(
            [[n % (nb * m + 1) for n in ns] for nb, ns in columns], dtype=np.int64
        ).reshape(-1, 3).T
        runs = piece_runs(scheme, lens, n_blocks, m)
        assert len(runs) == 2
        runs = [[np.broadcast_to(x, lens.shape) for x in run] for run in runs]
        for u, j in np.ndindex(lens.shape):
            got = tuple((int(piece[u, j]), int(count[u, j])) for piece, count in runs)
            assert got == piece_runs(scheme, int(lens[u, j]), int(n_blocks[j]), m)



def enumerated_histogram(plan, user):
    """Brute-force oracle: walk every block and count the user's known-bit shapes."""
    counts = {}
    for subset in message_subsets(plan):
        if user not in subset:
            continue
        for block in oracle_blocks(plan, subset):
            n = block[user]
            if n == 0:
                continue
            shape = oracle_shape(plan.scheme, n, plan.label_len)
            counts[shape] = counts.get(shape, 0) + 1
    return counts


class TestShapeHistograms:
    @given(
        k=st.integers(1, 3),
        m=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=150)
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
                got = shape_histogram(plan, u)
                assert got == want
                assert sum(got.values()) == plan.known_counts[u - 1].sum()

    def test_hand_evaluated_runs(self):
        # 7 bits over 3 blocks of width 3: pieces 3, 2, 2 -> shapes (0,0) and 2 x (1,0)
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 7})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        assert shape_histogram(plan, 2) == {(0, 0): 1, (1, 0): 2}
        # sequential fill: two full labels, then one with 2 padded bits
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        assert shape_histogram(plan, 2) == {(0, 0): 2, (0, 2): 1}

    def test_known_counts_table(self):
        # one read-only row per user, one column per number of known label bits
        # user 1: 4 bits alone in 2 blocks, then 9 bits over the pair's 3 blocks;
        # user 2: 7 bits over the pair's 3 blocks
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 7, (1, ()): 4})
        cases = (
            (cm.PROPOSED, [[3, 2, 0], [1, 2, 0]], [(0, 0), (1, 0)]),
            (cm.ZERO_PADDING, [[4, 0, 1], [2, 0, 1]], [(0, 0), (0, 2)]),
        )
        for scheme, table, user_1_shapes in cases:
            plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), scheme, 3)
            assert plan.known_counts.dtype == np.int64
            assert plan.known_counts.tolist() == table
            assert not plan.known_counts.flags.writeable
            assert list(shape_histogram(plan, 1)) == user_1_shapes  # by ascending known bits
            # one row per user 1..K, which `ser_report` zips with the K SNRs
            assert plan.known_counts.shape == (plan.num_users, plan.label_len)

    @pytest.mark.parametrize("k", [2, 5])  # the subset loop, then the code arrays
    def test_ell_is_read_only(self, k):
        # editing ell would change what the end-to-end check encodes, behind
        # known_counts and load
        smap = subfile_map(k, k, {(1, (2,)): 9, (2, (1,)): 7})
        for scheme in cm.SCHEMES:
            plan = cm.build_delivery_plan(smap, cm.DemandVector(tuple(range(1, k + 1))), scheme, 3)
            with pytest.raises(ValueError, match="read-only"):
                plan.ell[3] = 0

class TestEncodeDecode:
    def test_pair_block_encoding(self):
        # the pair fixture's message: user 1's piece 010 XOR user 2's 10, right-aligned
        label = encode_block(cm.PROPOSED, [0, 1, 0], 1, 3) ^ encode_block(cm.PROPOSED, [1, 0], 1, 3)
        assert label.dtype == np.int64
        assert label.tolist() == [0b000]

    def test_single_piece_identity(self):
        assert encode_block(cm.PROPOSED, [1, 0, 1], 1, 3).tolist() == [0b101]
        assert encode_block(cm.ZERO_PADDING, [1, 1], 1, 3).tolist() == [0b110]

    def test_all_zero_pieces(self):
        for scheme in cm.SCHEMES:
            assert encode_block(scheme, np.zeros(5, np.uint8), 2, 3).tolist() == [0, 0]

    def test_piece_length_mismatch_rejected(self):
        # the subfile must fit its message's labels, and a message has a label
        for scheme in cm.SCHEMES:
            for bits, n_blocks in (([0, 1, 0, 0], 1), ([1] * 7, 2), ([], 0)):
                with pytest.raises(cm.ConfigurationError, match="-bit subfile does not fit"):
                    encode_block(scheme, bits, n_blocks, 3)

    @pytest.mark.parametrize("scheme", ["bogus", "PROPOSED", "", None])
    def test_unknown_scheme_rejected(self, scheme):
        # any other value ran as zero padding: ("bogus", [1, 0, 1], 2, 3) encoded as [5, 0]
        with pytest.raises(cm.ConfigurationError, match="unknown scheme"):
            encode_block(scheme, [1, 0, 1], 2, 3)
        with pytest.raises(cm.ConfigurationError, match="unknown scheme"):
            decode_block(scheme, [5, 0], 3, 3)

    def test_decode_recovers_piece(self):
        # user 2 XORs off its cached copy of user 1's share of the pair label
        labels = np.array([0b000])
        known = encode_block(cm.PROPOSED, [0, 1, 0], 1, 3)
        piece = decode_block(cm.PROPOSED, labels ^ known, 2, 3)
        assert piece.dtype == np.uint8
        assert piece.tolist() == [1, 0]

    def test_bits_must_be_runs_of_0_1(self):
        # a subfile is one flat run of 0/1 bits
        for bad in ("010", [[0, 1, 0]], [0, 2, 0], np.zeros((1, 3), np.uint8)):
            with pytest.raises(ValueError, match="subfile bits must be a one-dimensional array of 0/1"):
                encode_block(cm.PROPOSED, bad, 1, 3)

    def test_bits_are_checked_before_the_cast(self):
        # a cast to uint8 would truncate 0.5 and 1.7 and wrap -1 and 257
        bad = ([0.5, 1.7, 1.0], [-1, 1, 0], [1, 257], np.array([0.0, np.nan]), [0j, 1j])
        for bits in bad:
            with pytest.raises(ValueError, match="subfile bits must be a one-dimensional array of 0/1"):
                encode_block(cm.PROPOSED, bits, 1, 3)
        for bits in ([1.0, 0.0, 1.0], np.array([True, False, True]), np.array([1, 0, 1], np.int8)):
            assert encode_block(cm.PROPOSED, bits, 1, 3).tolist() == [0b101]

    def test_labels_must_be_whole_labels(self):
        # 2.9 is not label 2, and -1 and 8 are not 3-bit labels
        for labels in (np.array([2.9]), [-1], [8], np.array([np.nan]), np.array([np.inf])):
            with pytest.raises(ValueError, match=r"labels must be whole numbers in \[0, 8\)"):
                decode_block(cm.PROPOSED, labels, 3, 3)
        for labels in (np.array([2.0]), [2], np.array([2], np.uint8)):
            assert decode_block(cm.PROPOSED, labels, 3, 3).tolist() == [0, 1, 0]

    def test_labels_must_be_one_dimensional(self):
        # as a subfile's bits are: a scalar label indexed out of range, and a
        # (2, 1) column decoded as if it were flat
        for labels in (np.int64(5), 5, [[5, 0]], np.array([[5], [0]])):
            with pytest.raises(cm.ConfigurationError, match="labels must be a one-dimensional array"):
                decode_block(cm.PROPOSED, labels, 3, 3)

    @given(
        w1=st.integers(0, 30),
        w2=st.integers(0, 30),
        m=st.integers(1, 8),
        spare=st.integers(0, 2),  # labels beyond the message's own
        scheme=st.sampled_from(cm.SCHEMES),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, w1, w2, m, spare, scheme, data):
        n_blocks = max(1, -(-max(w1, w2) // m)) + spare
        a, b = (
            np.array(data.draw(st.lists(st.integers(0, 1), min_size=w, max_size=w)), np.uint8)
            for w in (w1, w2)
        )
        share_a, share_b = (encode_block(scheme, bits, n_blocks, m) for bits in (a, b))
        labels = share_a ^ share_b
        assert labels.shape == (n_blocks,)
        assert labels.min() >= 0 and labels.max() < 1 << m
        assert decode_block(scheme, labels ^ share_b, w1, m).tolist() == a.tolist()
        assert decode_block(scheme, labels ^ share_a, w2, m).tolist() == b.tolist()

    @given(
        n=st.integers(0, 60),
        m=st.integers(1, 8),
        spare=st.integers(0, 3),
        scheme=st.sampled_from(cm.SCHEMES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_run_matches_single_blocks(self, n, m, spare, scheme, seed):
        # label by label, the share holds the bits the oracle deals to that
        # block, between the known bits of its shape, MSB-first
        n_blocks = max(1, -(-n // m)) + spare
        bits = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
        labels = encode_block(scheme, bits, n_blocks, m)
        taken = 0
        pieces = oracle_pieces(scheme, n, n_blocks, m)
        for label, piece in zip(labels.tolist(), pieces, strict=True):
            prefix, suffix = oracle_shape(scheme, piece, m)
            row = [0] * prefix + bits[taken : taken + piece].tolist() + [0] * suffix
            assert label == int("".join(map(str, row)), 2)
            taken += piece
        assert decode_block(scheme, labels, n, m).tolist() == bits.tolist()

    def test_run_counts_must_agree(self):
        # the labels must hold the whole subfile: 7 bits need three 3-bit labels
        for scheme in cm.SCHEMES:
            labels = encode_block(scheme, [1] * 7, 3, 3)
            assert decode_block(scheme, labels, 7, 3).tolist() == [1] * 7
            with pytest.raises(cm.ConfigurationError, match="-bit subfile does not fit"):
                decode_block(scheme, labels[:2], 7, 3)


class TestKnownBitMask:
    @given(scheme=st.sampled_from(cm.SCHEMES), m=st.integers(1, 8), data=st.data())
    def test_plans_yield_no_mixed_shapes(self, scheme, m, data):
        # a piece is right-aligned or starts the label, so one known run is
        # empty: no plan reaches a mixed QAM shape (p > 0, s > 0)
        n = data.draw(st.integers(1, m))
        shape = caching.known_shape(scheme, n, m)
        assert shape in {(m - n, 0), (0, m - n)}

    def test_pair_block_masks(self, two_user_pair_placement, pair_demands):
        rm = cm.realized_subfile_map(two_user_pair_placement)
        plan = cm.build_delivery_plan(rm, pair_demands, cm.PROPOSED, 3)
        runs = message_runs(plan, {1, 2})
        # the first run of each has no blocks: both pieces divide evenly
        assert [known_shape(cm.PROPOSED, piece, 3) for piece, n in runs[2] if n] == [(1, 0)]
        assert [known_shape(cm.PROPOSED, piece, 3) for piece, n in runs[1] if n] == [(0, 0)]

    def test_uneven_split_prefixes(self):
        smap = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 3})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        (_, none), (piece, count) = message_runs(plan, {1, 2})[2]
        assert (none, count) == (0, 3)
        assert known_shape(cm.PROPOSED, piece, 3) == (2, 0)

    def test_zero_padding_suffix(self):
        smap = subfile_map(2, 2, {(1, (2,)): 6, (2, (1,)): 4})
        plan = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        (first, one), (second, also_one) = message_runs(plan, {1, 2})[2]
        assert one == also_one == 1
        assert known_shape(cm.ZERO_PADDING, first, 3) == (0, 0)
        assert known_shape(cm.ZERO_PADDING, second, 3) == (0, 2)

    def test_divisible_lengths_dominate_zero_padding(self):
        # when the symbol width divides everything, the even split never knows
        # fewer bits than sequential fill on any useful block
        smap = subfile_map(2, 2, {(1, (2,)): 12, (2, (1,)): 6})
        pp = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.PROPOSED, 3)
        pz = cm.build_delivery_plan(smap, cm.DemandVector((1, 2)), cm.ZERO_PADDING, 3)
        subset = frozenset({1, 2})
        prop_runs, zp_runs = message_runs(pp, subset), message_runs(pz, subset)
        n_blocks = message_blocks(pz, subset)
        for u in (1, 2):
            prop_pieces, zp_pieces = expand(prop_runs[u], n_blocks), expand(zp_runs[u], n_blocks)
            for i in range(pz.known_counts[u - 1].sum()):
                prop = known_shape(cm.PROPOSED, prop_pieces[i], 3)[0]
                zp = known_shape(cm.ZERO_PADDING, zp_pieces[i], 3)[0]
                assert prop >= zp
