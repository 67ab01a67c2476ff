import math
from itertools import combinations

import numpy as np
import pytest

from cachemod import CacheProfile, DemandVector, Library
from cachemod.caching import (
    PlacementRealization,
    SubfileMap,
    SubsetSchedule,
    subset_code,
    subset_shapes,
)


def subset_tuples(num_users):
    """Non-empty user subsets as sorted tuples, in canonical order (by size, then members)."""
    users = range(1, num_users + 1)
    for size in range(1, num_users + 1):
        yield from combinations(users, size)


def all_subsets(num_users):
    """Non-empty user subsets as frozensets, in canonical order."""
    return map(frozenset, subset_tuples(num_users))


def loop_largest_remainder(targets, total):
    """Scalar oracle of `largest_remainder`: sort the remainders, ties by position."""
    floors = [math.floor(t) for t in targets]
    deficit = total - sum(floors)
    if not 0 <= deficit <= len(targets):
        raise ValueError("no exact apportionment")
    order = sorted(range(len(targets)), key=lambda i: (-(targets[i] - floors[i]), i))
    for i in order[:deficit]:
        floors[i] += 1
    return floors


def loop_quantized_lengths(subfiles, library):
    """Oracle of `quantize_expected_map`: one scalar apportionment per file."""
    order = [0, *map(subset_code, subset_tuples(subfiles.num_users))]
    lengths = np.empty(subfiles.lengths.shape, dtype=np.int64)
    for row, raw, nbits in zip(lengths, subfiles.lengths, library.file_bits, strict=True):
        row[order] = loop_largest_remainder(raw[order].tolist(), nbits)
    return lengths


def loop_delivery_plan(subfiles, demands, scheme, label_len):
    """Oracle of `build_delivery_plan`: one Python step per subset.

    Returns (per_subset, histograms, load) with the plan's meanings.
    """
    k = subfiles.num_users
    total_bits = int(subfiles.lengths.sum())
    rows = {u: subfiles.lengths[demands.file_for(u) - 1].tolist() for u in range(1, k + 1)}
    per_subset = {}
    histograms = {u: {} for u in range(1, k + 1)}
    sent_bits = 0
    for subset in all_subsets(k):
        code = subset_code(subset)
        sub_lens = {u: rows[u][code & ~(1 << (u - 1))] for u in subset}
        ell = max(sub_lens.values())
        if ell == 0:
            continue
        n_blocks = -(-ell // label_len)  # ceil
        for u, n in sub_lens.items():
            hist = histograms[u]
            for shape, count in subset_shapes(scheme, n, n_blocks, label_len):
                hist[shape] = hist.get(shape, 0) + count
        per_subset[subset] = SubsetSchedule(ell=ell, n_blocks=n_blocks, subfile_len=sub_lens)
        sent_bits += ell
    load = sent_bits / total_bits if total_bits else 0.0
    return per_subset, histograms, load


def compatible_labels(c, shape, value):
    """Ascending labels whose `shape` = (p, s) known bits, prefix then suffix MSB-first, are `value`."""
    p, s = shape
    low = (1 << s) - 1
    return [
        label
        for label in range(c.size)
        if label >> (c.m - p) == value >> s and label & low == value & low
    ]


def demodulate(c, y, sqrt_snr, shape, value):
    """Brute-force ML oracle of `modem.detect` for one symbol y with known bits `value`.

    Scans every point: the compatible label whose point minimises
    |y - sqrt(gamma) x| wins, exact ties going to the smallest label.
    """
    allowed = set(compatible_labels(c, shape, value))
    dist = np.abs(y - sqrt_snr * c.points)
    return min((float(d), int(label)) for d, label in zip(dist, c.labels) if label in allowed)[1]


def subfile_map(num_users, num_files, entries):
    """Build an integer SubfileMap from {(file, tuple_subset): length} with zero fill."""
    lengths = np.zeros((num_files, 2**num_users), dtype=np.int64)
    for (i, subset), v in entries.items():
        lengths[i - 1, subset_code(subset)] = v
    return SubfileMap(lengths)


@pytest.fixture
def two_user_pair_placement():
    """Two users, files of 9 and 6 bits, each bit cached by at most one user.

    File 1 = 101001010 split 3/3/3 over (nobody, user 1, user 2); file 2 =
    111001 split 2/2/2 the same way.  User 1 wants file 1, user 2 file 2, so
    the pair message XORs a 3-bit piece against a 2-bit one.
    """
    lib = Library((9 / 15, 6 / 15), 15)
    caches = CacheProfile((1 / 3, 1 / 3))
    f1 = np.array([1, 0, 1, 0, 0, 1, 0, 1, 0], dtype=np.uint8)
    f2 = np.array([1, 1, 1, 0, 0, 1], dtype=np.uint8)
    m1 = np.zeros((2, 9), dtype=bool)
    m1[0, 3:6] = True
    m1[1, 6:9] = True
    m2 = np.zeros((2, 6), dtype=bool)
    m2[0, 2:4] = True
    m2[1, 4:6] = True
    return PlacementRealization(
        library=lib, caches=caches, bit_values=(f1, f2), cached_by=(m1, m2)
    )


@pytest.fixture
def pair_demands():
    return DemandVector((1, 2))
