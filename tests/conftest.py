import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from cachemod import PROPOSED, CacheProfile, DemandVector, Library, min_distance
from cachemod.caching import PlacementRealization, SubfileMap
from cachemod.mc import _BAND, _SCREEN, _cell_seed
from cachemod.modem import _RHO_MAX, _RHO_MIN

# examples that build plans or scan constellations can take longer than
# hypothesis' 200 ms default on a slow machine; max_examples stays per test
settings.register_profile("cachemod", deadline=None)
settings.load_profile("cachemod")


def subset_code(subset) -> int:
    """A user subset's code, as `SubfileMap` indexes it: bit u - 1 is set when user u is a member."""
    return sum(1 << (u - 1) for u in subset)


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


def loop_quantized_lengths(library, caches):
    """Oracle of `expected_subfile_lengths`: F_i * B * p in plain floats, apportioned per file.

    p multiplies mu or 1 - mu user by user, and each file's row is
    apportioned by a scalar sort in canonical order.
    """
    order = [(), *subset_tuples(caches.num_users)]
    lengths = np.empty((library.num_files, 1 << caches.num_users), dtype=np.int64)
    for row, fraction, nbits in zip(lengths, library.file_fractions, library.file_bits, strict=True):
        targets = []
        for subset in order:
            p = 1.0
            for u, mu in enumerate(caches.mus, start=1):
                p *= mu if u in subset else 1.0 - mu
            targets.append(fraction * library.total_bits * p)
        row[[subset_code(s) for s in order]] = loop_largest_remainder(targets, nbits)
    return lengths


def oracle_pieces(scheme, subfile_len, n_blocks, label_len):
    """One subfile's piece length in each block of its message, by dealing out its bits.

    The even split deals bit j to block j mod n_blocks, so the first blocks
    take the extra bits; sequential fill puts m bits in each label in turn.
    """
    bits = range(subfile_len)
    if scheme == PROPOSED:
        return [len(bits[i::n_blocks]) for i in range(n_blocks)]
    return [len(bits[i * label_len : (i + 1) * label_len]) for i in range(n_blocks)]


def oracle_shape(scheme, piece_len, label_len):
    """Known label bits around a piece: in front of a right-aligned one, behind a front-filled one."""
    known = label_len - piece_len
    return (known, 0) if scheme == PROPOSED else (0, known)


def shape_histogram(plan, user):
    """{shape: count} of user `user`'s useful blocks: its `known_counts` row over `plan.shapes`.

    Shapes are listed by ascending known bits, and only those with blocks.
    """
    return {shape: n for shape, n in zip(plan.shapes, plan.known_counts[user - 1].tolist()) if n}


def oracle_subfile_lens(plan, subset):
    """{user: |W_{d_u, S minus u}|} of a subset's members, read from the plan's map."""
    code = subset_code(subset)
    lengths = plan.subfiles.lengths
    return {u: int(lengths[plan.demands.file_for(u) - 1, code & ~(1 << (u - 1))]) for u in subset}


def oracle_blocks(plan, subset):
    """Each block of a subset's message as {user: piece length}, in message order.

    The pieces are dealt out by `oracle_pieces` over the ceil(ell / m)
    blocks of the plan's message length ell.
    """
    ell = int(plan.ell[subset_code(subset)])
    n_blocks = -(-ell // plan.label_len)
    pieces = {
        u: oracle_pieces(plan.scheme, n, n_blocks, plan.label_len)
        for u, n in oracle_subfile_lens(plan, subset).items()
    }
    return [{u: p[i] for u, p in pieces.items()} for i in range(n_blocks)]


def message_subsets(plan):
    """The subsets that send a message, as frozensets in canonical order."""
    return [s for s in all_subsets(plan.num_users) if plan.ell[subset_code(s)]]


def loop_delivery_plan(subfiles, demands, scheme, label_len):
    """Oracle of `build_delivery_plan`: one Python step per subset, one per block.

    Returns (ell, histograms, load) with the plan's meanings; ell is a list
    indexed by subset code.
    """
    k = subfiles.num_users
    total_bits = int(subfiles.lengths.sum())
    rows = {u: subfiles.lengths[demands.file_for(u) - 1].tolist() for u in range(1, k + 1)}
    ell_by_code = [0] * (1 << k)
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
            for piece in oracle_pieces(scheme, n, n_blocks, label_len):
                if piece:
                    shape = oracle_shape(scheme, piece, label_len)
                    hist[shape] = hist.get(shape, 0) + 1
        ell_by_code[code] = ell
        sent_bits += ell
    load = sent_bits / total_bits if total_bits else 0.0
    return ell_by_code, histograms, load


def compatible_labels(c, shape, value):
    """Ascending labels whose `shape` = (p, s) known bits, prefix then suffix MSB-first, are `value`."""
    p, s = shape
    low = (1 << s) - 1
    return [
        label
        for label in range(len(c.points))
        if label >> (c.m - p) == value >> s and label & low == value & low
    ]


def demodulate(c, y, sqrt_snr, shape, value):
    """Brute-force ML oracle of `modem.detect` for one symbol y with known bits `value`.

    Scans every point: the compatible label whose point minimises
    |y - sqrt(gamma) x| wins, exact ties going to the smallest label.
    """
    allowed = set(compatible_labels(c, shape, value))
    dist = np.abs(y - sqrt_snr * c.points)
    return min((float(d), label) for label, d in enumerate(dist) if label in allowed)[1]


def screen_bound(c, shape, gamma):
    """The raw |n|^2 below which a Monte Carlo trial of the cell skips `detect`."""
    return (1 - _SCREEN) * 2 * gamma * (min_distance(c, *shape) / 2) ** 2


def screened_trials(c, shape, gamma, trials, master_seed, cell_id):
    """Which trials of the cell's one-shot stream (labels, then noise) skip `detect`."""
    rng = np.random.default_rng(_cell_seed(master_seed, cell_id))
    rng.integers(0, len(c.points), size=trials, dtype=np.int64)
    raw = rng.standard_normal((trials, 2))
    return raw[:, 0] ** 2 + raw[:, 1] ** 2 < screen_bound(c, shape, gamma)


def wedge_trials(c, shape, gamma, trials, master_seed, cell_id):
    """Which trials of the cell's one-shot stream the wedge test decides without `detect`.

    In PSK prefix shapes (p, 0): the trials the screen passes whose received
    point lies inside the radius window [_RHO_MIN, _RHO_MAX] and whose phase
    against the sent point x is more than `_BAND` from the wedge edge
    pi / 2^(m-p).
    """
    if c.family != "psk" or shape[1]:
        return np.zeros(trials, dtype=bool)
    rng = np.random.default_rng(_cell_seed(master_seed, cell_id))
    labels = rng.integers(0, len(c.points), size=trials, dtype=np.int64)
    raw = rng.standard_normal((trials, 2))
    x = c.points[labels]
    y = math.sqrt(gamma) * x + math.sqrt(0.5) * (raw[:, 0] + 1j * raw[:, 1])
    phase = np.abs(np.remainder(np.angle(y) - np.angle(x) + np.pi, 2 * np.pi) - np.pi)
    rho = np.abs(y) / math.sqrt(gamma)
    inside = (rho >= _RHO_MIN) & (rho <= _RHO_MAX)
    away = np.abs(phase - np.pi / 2 ** (c.m - shape[0])) > _BAND
    return ~screened_trials(c, shape, gamma, trials, master_seed, cell_id) & inside & away


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
    # subset codes: 0 cached by nobody, 0b01 by user 1, 0b10 by user 2
    c1 = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int64)
    c2 = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    return PlacementRealization(
        library=lib, caches=caches, bit_values=(f1, f2), subset_codes=(c1, c2)
    )


@pytest.fixture
def pair_demands():
    return DemandVector((1, 2))
