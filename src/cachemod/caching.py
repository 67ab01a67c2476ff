"""Decentralized cache placement and clique-cover delivery planning.

Users prefetch random subsets of the library bits; delivery then broadcasts
one XOR message per user subset.  Each message is chopped into m-bit symbol
labels under one of two padding schemes:

* ``proposed``  -- every subfile is split evenly over the subset's blocks and
  each piece is right-aligned inside its label, so the bits a user already
  knows sit at the front (most significant end) of the label.
* ``zero_padding`` -- subfiles are zero-extended to the longest subfile first
  and then chopped sequentially, so a user's pieces fill whole labels until a
  single possibly-partial final one.

Plans read a `SubfileMap`: whole-bit lengths |W_{i,S}|, from a sampled
placement or from the expected lengths, each file rounded to its bit count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import errors
from .errors import ConfigurationError, integer, reals, whole

PROPOSED = "proposed"
ZERO_PADDING = "zero_padding"
SCHEMES = (PROPOSED, ZERO_PADDING)

# sample_placement enumerates individual bits; keep instances tractable
MAX_ENUMERATED_BITS = 10**7
# subfile maps hold 2**K lengths per file; keep them allocatable
MAX_USERS = 20
MAX_SUBFILE_ENTRIES = 2**25  # N * 2**K; one int64 map of 256 MiB
# Every integer that a subfile map and planning store in int64 is at most B,
# the total bits of the library or of the map: a file's bit count, a subfile
# length, a message length ell_S, its block count and each sum of them.  With
# distinct demands each (user, subset) pair reads its own map entry
# W_{d_u, S minus u}, so sum_S ell_S <= sum_S sum_{u in S} |W_{d_u, S minus u}|
# <= B, and a user's block counts sum to at most that.  The float shares F_i * B may round a
# little above B (the fractions sum to 1 within 1e-12), so B <= 2**62 leaves
# int64 (largest value 2**63 - 1) a factor of two of headroom.
MAX_TOTAL_BITS = 2**62
# (user, subset) entries per step of the array planner: each step takes
# _PLAN_ENTRIES // K subsets, so its (K, subsets, 2) arrays do not grow with K
_PLAN_ENTRIES = 2**13


def largest_remainder(targets, total: int, tie_key=None) -> np.ndarray:
    """Integer apportionment of `total` proportional to `targets`, as int64.

    Floors every share and hands the leftover units to the largest fractional
    remainders, equal ones going to the smallest `tie_key(position)` (by
    default the position itself).  Preserves the exact total, or raises
    ValueError when that takes more than one unit per share or fewer than
    none.  One partition finds the cut, the deficit-th largest remainder:
    every remainder above it gets a unit, and the ties at it share the units
    left, ranked by `tie_key` (called on an int64 array of positions) only
    when they outnumber them.  That is a sort's choice in linear time.
    """
    tie_key = tie_key or (lambda i: i)
    targets = np.asarray(targets, dtype=np.float64)
    floors = np.floor(targets)
    shares = floors.astype(np.int64)
    deficit = total - int(shares.sum())
    if not 0 <= deficit <= targets.size:
        raise ValueError(f"total less floored shares is {deficit}, not in 0..{targets.size}")
    if deficit:
        remainders = targets - floors
        kth = remainders.size - deficit
        cut = np.partition(remainders, kth)[kth]
        above = remainders > cut
        shares += above
        ties = np.flatnonzero(remainders == cut)
        left = deficit - np.count_nonzero(above)
        if ties.size > left:
            ties = ties[np.argsort(tie_key(ties))[:left]]
        shares[ties] += 1
    return shares


@dataclass(frozen=True)
class Library:
    """File-size fractions plus the total library size in bits."""

    file_fractions: tuple
    total_bits: int

    def __post_init__(self):
        fractions = reals(self.file_fractions, "file fractions")
        object.__setattr__(self, "file_fractions", fractions)
        if not fractions or any(f <= 0 for f in fractions):
            raise ConfigurationError("file fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-12:
            raise ConfigurationError(f"file fractions sum to {sum(fractions):g}")
        object.__setattr__(self, "total_bits", integer(self.total_bits, "total_bits", 1))
        if self.total_bits > MAX_TOTAL_BITS:
            raise ConfigurationError(
                f"total_bits {self.total_bits} exceeds the limit of 2**62 ({MAX_TOTAL_BITS})"
            )
        try:
            self.file_bits  # apportioned here, so an inexact split fails at construction
        except ValueError as exc:
            raise ConfigurationError(
                f"total_bits {self.total_bits} has no exact split over the file fractions: {exc}"
            ) from exc

    @property
    def num_files(self) -> int:
        return len(self.file_fractions)

    @cached_property
    def file_bits(self) -> tuple:
        """Per-file integer bit counts summing exactly to total_bits."""
        targets = [f * self.total_bits for f in self.file_fractions]
        return tuple(largest_remainder(targets, self.total_bits).tolist())


@dataclass(frozen=True)
class CacheProfile:
    """Normalized cache sizes, one per user, sorted non-decreasing."""

    mus: tuple

    def __post_init__(self):
        mus = reals(self.mus, "cache fractions")
        object.__setattr__(self, "mus", mus)
        if not mus:
            raise ConfigurationError("at least one user required")
        if len(mus) > MAX_USERS:
            raise ConfigurationError(f"{len(mus)} users exceed the limit of {MAX_USERS}")
        if any(not 0 <= m <= 1 for m in mus):  # NaN fails too
            raise ConfigurationError("cache fractions must lie in [0, 1]")
        if any(a > b for a, b in zip(mus, mus[1:])):
            raise ConfigurationError("cache fractions must be sorted non-decreasing")

    @property
    def num_users(self) -> int:
        return len(self.mus)


@dataclass(frozen=True)
class DemandVector:
    """Demanded file index (1-based) per user; duplicates are rejected."""

    demands: tuple

    def __post_init__(self):
        demands = tuple(integer(d, "demands (integer file indices)") for d in self.demands)
        object.__setattr__(self, "demands", demands)
        if len(set(demands)) != len(demands):
            raise ConfigurationError("duplicate demands are not supported")

    def validate(self, num_files: int, num_users: int):
        if len(self.demands) != num_users:
            raise ConfigurationError("one demand per user required")
        if any(d < 1 or d > num_files for d in self.demands):
            raise ConfigurationError("demand indices must lie in [1, N]")

    def file_for(self, user: int) -> int:
        return self.demands[integer(user, "user", 1, len(self.demands)) - 1]


def _canonical_key(codes, num_users: int):
    """Sort key of subset codes (an int or an int64 array) for canonical order.

    Canonical order is by size, then members lexicographically, the empty
    set first.  Among subsets of one size, sorted member tuples compare like
    the codes with their bits reversed (user 1 highest), in descending order.
    """
    size = reversed_code = 0
    for u in range(num_users):
        bit = codes >> u & 1
        size = size + bit
        reversed_code = reversed_code | bit << (num_users - 1 - u)
    return size << num_users | reversed_code ^ ((1 << num_users) - 1)


@dataclass(frozen=True)
class SubfileMap:
    """Whole-bit lengths |W_{i,S}| for every (file, caching-subset) pair.

    `lengths` is a read-only int64 array of shape (num_files, 2**num_users):
    lengths[i - 1, code] is |W_{i,S}|, where bit u - 1 of the subset code is
    set when user u is in S.  Construction takes any integer array (not
    bool) with non-negative entries summing to at most MAX_TOTAL_BITS, and
    keeps it without a copy when it is already int64.
    """

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths)
        if lengths.ndim != 2 or lengths.shape[1].bit_count() != 1:
            raise ConfigurationError("subfile lengths must have shape (num_files, 2**num_users)")
        if lengths.dtype.kind not in "iu":
            raise ConfigurationError(f"subfile lengths must be integers, not {lengths.dtype}")
        if lengths.min(initial=0) < 0:
            raise ConfigurationError("subfile lengths must be non-negative")
        # summed in float64, which cannot wrap; within the bound the int64 sums are exact
        if lengths.sum(dtype=np.float64) > MAX_TOTAL_BITS:
            raise ConfigurationError(f"subfile lengths sum past the limit of {MAX_TOTAL_BITS}")
        lengths = lengths.astype(np.int64, copy=False).view()
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)

    @property
    def num_files(self) -> int:
        return self.lengths.shape[0]

    @property
    def num_users(self) -> int:
        return self.lengths.shape[1].bit_length() - 1


def check_subfile_map_size(num_files: int, num_users: int):
    """Raise ConfigurationError when an (N, 2**K) subfile map exceeds MAX_SUBFILE_ENTRIES."""
    if num_files << num_users > MAX_SUBFILE_ENTRIES:
        raise ConfigurationError(
            f"{num_files} files x 2^{num_users} subsets exceed the "
            f"subfile map limit of {MAX_SUBFILE_ENTRIES} entries"
        )


def expected_subfile_lengths(library: Library, caches: CacheProfile) -> SubfileMap:
    """Law-of-large-numbers subfile lengths for independent random caching, in whole bits.

    File i's expected lengths F_i * B * prod_{j in S} mu_j * prod_{k not in S} (1 - mu_k)
    are rounded by largest remainder to its `file_bits`, one file at a time,
    so no float map is held.  Tied remainders go to the earlier subset in
    canonical order (`_canonical_key`: the empty set, then by size and members).
    """
    check_subfile_map_size(library.num_files, caches.num_users)
    codes = np.arange(2**caches.num_users)
    p = np.ones(len(codes))
    for u, mu in enumerate(caches.mus):  # user by user: the order fixes the float results
        p *= np.where(codes >> u & 1, mu, 1.0 - mu)
    base = np.array(library.file_fractions) * library.total_bits
    tie_key = partial(_canonical_key, num_users=caches.num_users)
    lengths = np.empty((library.num_files, len(codes)), dtype=np.int64)
    for row, share, nbits in zip(lengths, base, library.file_bits, strict=True):
        try:
            row[:] = largest_remainder(share * p, nbits, tie_key)
        except ValueError as exc:
            raise ConfigurationError(
                f"expected subfile lengths do not round to a {nbits}-bit file: {exc}"
            ) from exc
    return SubfileMap(lengths)


class PlacementRealization(NamedTuple):
    """Concrete seeded cache contents: the caching subset of every library bit.

    Per file i, `bit_values[i - 1]` is its (file_bits,) uint8 bit values and
    `subset_codes[i - 1]` its (file_bits,) int64 subset codes, coded as in
    `SubfileMap`: bit u - 1 of a bit's code is set when user u cached that
    bit, so the subfile W_{i,S} is the bits whose code is that of S.
    """

    library: Library
    caches: CacheProfile
    bit_values: tuple
    subset_codes: tuple

    @property
    def num_users(self) -> int:
        return self.caches.num_users

    @property
    def cached_by(self) -> tuple:
        """Per file, the (num_users, file_bits) bool mask of the users that cached each bit."""
        users = np.arange(self.num_users)[:, None]
        return tuple((codes >> users & 1).astype(bool) for codes in self.subset_codes)


def sample_placement(library: Library, caches: CacheProfile, seed: int) -> PlacementRealization:
    """Draw a random placement: user k caches each bit independently w.p. mu_k."""
    seed = errors.seed(seed, "seed")
    if library.total_bits > MAX_ENUMERATED_BITS:
        raise ConfigurationError(
            f"total_bits {library.total_bits} exceeds the enumeration guard "
            f"({MAX_ENUMERATED_BITS})"
        )
    rng = np.random.default_rng(seed)
    values, codes = [], []
    for nbits in library.file_bits:
        values.append(rng.integers(0, 2, size=nbits, dtype=np.uint8))
        # user by user: the draws of random((K, nbits)) with one row of floats at a time
        code = np.zeros(nbits, dtype=np.int64)
        for u, mu in enumerate(caches.mus):
            code += (rng.random(nbits) < mu).astype(np.int64) << u
        codes.append(code)
    return PlacementRealization(library, caches, tuple(values), tuple(codes))


def realized_subfile_map(placement: PlacementRealization) -> SubfileMap:
    """Exact subfile lengths of a placement realization."""
    check_subfile_map_size(placement.library.num_files, placement.num_users)
    width = 2**placement.num_users
    counts = [np.bincount(codes, minlength=width) for codes in placement.subset_codes]
    return SubfileMap(np.stack(counts))


# ---------------------------------------------------------------------------
# Delivery plans
# ---------------------------------------------------------------------------


def check_scheme(scheme: str):
    """Raise ConfigurationError unless `scheme` is one of `SCHEMES`."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")


def piece_runs(scheme: str, subfile_len, n_blocks, label_len: int) -> tuple:
    """One subfile's piece lengths over its message's blocks, as two (piece_len, count) runs.

    The two runs fill the message's first blocks in order, and every block
    after them carries an empty piece.  With q, r = divmod(n, n_blocks) the
    even split puts q + 1 bits in the first r blocks and q in the rest;
    sequential fill gives n // m full labels, then one partial label when
    n % m > 0.  A run may have no blocks or an empty piece.  Python ints and
    int64 arrays (element by element) alike.
    """
    if scheme == PROPOSED:
        q, r = divmod(subfile_len, n_blocks)
        return (q + 1, r), (q, n_blocks - r)
    full, rest = divmod(subfile_len, label_len)
    return (label_len, full), (rest, -(-rest // label_len))


def piece_start(scheme: str, piece_len: int, label_len: int) -> int:
    """Label position where a piece begins: right-aligned, or from the front."""
    return label_len - piece_len if scheme == PROPOSED else 0


def known_shape(scheme: str, piece_len: int, label_len: int) -> tuple:
    """(prefix_known, suffix_known): the label bits before and after a piece."""
    start = piece_start(scheme, piece_len, label_len)
    return (start, label_len - start - piece_len)


@dataclass(frozen=True, eq=False)
class DeliveryPlan:
    """Per-subset message lengths for one demand vector under one padding scheme.

    What the error analysis needs is `known_counts`, a read-only (K, m) table
    computed in closed form when the plan is built: row u - 1, column j counts
    user u's useful blocks with j known label bits, whose shape is `shapes[j]`,
    so a row over `shapes` is that user's shape histogram.  The plan keeps each
    subset's message length `ell`, read-only and indexed by subset code, and the
    map it was built from; a message's ceil(ell / m) labels hold each member's
    subfile as laid out by `piece_runs` and `piece_start` (`encode_block`).
    """

    scheme: str
    label_len: int
    num_users: int
    load: float  # transmitted bits / B
    known_counts: np.ndarray = field(repr=False)  # (user - 1, known bits) -> blocks
    subfiles: SubfileMap = field(repr=False)
    demands: DemandVector = field(repr=False)
    ell: np.ndarray = field(repr=False)  # message bits per subset code

    @cached_property
    def shapes(self) -> tuple:
        """Each `known_counts` column's shape: column j's is `known_shape(scheme, m - j, m)`."""
        m = self.label_len
        return tuple(known_shape(self.scheme, m - j, m) for j in range(m))

    def check_constellation(self, c) -> None:
        if c.m != self.label_len:
            raise ConfigurationError("plan and constellation disagree on bits per symbol")


def build_delivery_plan(
    subfiles: SubfileMap,
    demands: DemandVector,
    scheme: str,
    label_len: int,
) -> DeliveryPlan:
    """Compile a subfile map and demand vector into per-subset block schedules.

    No block is enumerated.  For user u in subset S, n_u = |W_{d_u, S minus u}|;
    the message has ell = max n_u bits in ceil(ell / m) blocks, and each
    (user, subset) pair adds the blocks of its two `piece_runs`, skipping
    empty pieces, to the user's `known_counts`, in the column of the
    m - piece_len label bits it knows.  `_plan_arrays` handles the subsets
    as arrays of codes.
    """
    check_scheme(scheme)
    label_len = integer(label_len, "bits per symbol", 1)
    demands.validate(subfiles.num_files, subfiles.num_users)

    ell, known_counts = _plan_arrays(subfiles, demands, scheme, label_len)
    ell.flags.writeable = known_counts.flags.writeable = False
    total_bits = int(subfiles.lengths.sum())
    return DeliveryPlan(
        scheme=scheme,
        label_len=label_len,
        num_users=subfiles.num_users,
        load=int(ell.sum()) / total_bits if total_bits else 0.0,
        known_counts=known_counts,
        subfiles=subfiles,
        demands=demands,
        ell=ell,
    )


def _plan_arrays(subfiles: SubfileMap, demands: DemandVector, scheme: str, m: int) -> tuple:
    """(ell by code, known_counts) from arrays over subset codes, `_PLAN_ENTRIES` // K at a time.

    `piece_runs` on int64 arrays gives each (user, subset) pair's two runs,
    and their block counts are summed per (user, known bits).
    """
    k = subfiles.num_users
    files = np.array(demands.demands)[:, None] - 1
    bits = np.int64(1) << np.arange(k)[:, None]
    ell = np.empty(1 << k, dtype=np.int64)  # by code
    # blocks per (user, known bits j); j = m collects the dropped runs
    counts = np.zeros((k, m + 1), dtype=np.int64)
    slot_base = np.arange(k)[:, None, None] * (m + 1)  # flat index of (user, 0)
    # codes in natural order, so each user's gather walks its file's row forward
    step = max(1, _PLAN_ENTRIES // k)
    for start in range(0, ell.size, step):
        stop = min(start + step, ell.size)
        codes = np.arange(start, stop)
        sub_lens = np.where(codes & bits, subfiles.lengths[files, codes & ~bits], 0)  # 0 off S
        chunk_ell = ell[start:stop] = sub_lens.max(axis=0)
        n_blocks = np.maximum(-(-chunk_ell // m), 1)  # 1 where ell = 0: every piece is empty
        # two runs of blocks per (user, subset) as (known bits, block count);
        # a run with no blocks, or with empty pieces (known = m), is dropped
        known, blocks = np.empty((2, k, stop - start, 2), dtype=np.int64)
        for i, (piece, count) in enumerate(piece_runs(scheme, sub_lens, n_blocks, m)):
            known[..., i], blocks[..., i] = m - piece, count
        slot = (np.where(blocks > 0, known, m) + slot_base).ravel()
        np.add.at(counts.reshape(-1), slot, blocks.ravel())
    return ell, counts[:, :m].copy()


def piece_spans(scheme: str, subfile_len: int, n_blocks: int, label_len: int) -> list:
    """[(blocks, bits, positions)] of each non-empty run of a subfile's pieces over its message.

    `blocks` and `bits` slice the message's labels and the subfile; each of
    the run's pieces fills label bits `positions`, most significant first,
    bit 0 being the label's least significant.  At most two runs.
    """
    check_scheme(scheme)
    subfile_len, n_blocks = integer(subfile_len, "subfile_len"), integer(n_blocks, "n_blocks")
    label_len = integer(label_len, "bits per symbol", 1)
    if n_blocks < 1 or not 0 <= subfile_len <= n_blocks * label_len:
        raise ConfigurationError(
            f"a {subfile_len}-bit subfile does not fit {n_blocks} labels of {label_len} bits"
        )
    spans, block, bit = [], 0, 0
    for piece, count in piece_runs(scheme, subfile_len, n_blocks, label_len):
        if piece and count:
            end = label_len - piece_start(scheme, piece, label_len)
            positions = np.arange(end - 1, end - 1 - piece, -1)
            spans.append((slice(block, block + count), slice(bit, bit + piece * count), positions))
        block += count
        bit += piece * count
    return spans


def encode_block(scheme: str, bits, n_blocks: int, label_len: int) -> np.ndarray:
    """One member's share of a message: its subfile's pieces in n_blocks m-bit labels.

    Returns (n_blocks,) int64 labels holding each piece at its label
    position and 0 elsewhere, so the XOR of the members' shares is the
    message.  `bits` is the subfile as a one-dimensional array of 0/1; other
    values are rejected before the cast to uint8 could wrap or truncate them.
    """
    bits = np.asarray(bits)
    kind = bits.dtype.kind  # unsigned and bool arrays are checked by their maximum alone
    if bits.ndim != 1 or kind not in "biuf" or not (
        bits.max(initial=0) <= 1 if kind in "bu" else ((bits == 0) | (bits == 1)).all()
    ):
        raise ConfigurationError("subfile bits must be a one-dimensional array of 0/1")
    spans = piece_spans(scheme, bits.size, n_blocks, label_len)
    bits = bits.astype(np.uint8, copy=False)
    labels = np.zeros(n_blocks, dtype=np.int64)
    for blocks, span, positions in spans:
        pieces = bits[span].reshape(-1, positions.size).astype(np.int64)
        labels[blocks] = (pieces << positions).sum(axis=1)
    return labels


def decode_block(scheme: str, labels, subfile_len: int, label_len: int) -> np.ndarray:
    """The (subfile_len,) uint8 subfile whose pieces `labels` hold: `encode_block` inverted.

    Reads only the subfile's piece positions, so the other members' shares
    must have been XORed off those positions first.  Labels must be whole
    numbers in [0, 2^label_len) (`errors.whole`).
    """
    labels = np.asarray(labels)
    spans = piece_spans(scheme, subfile_len, labels.size, label_len)
    labels = whole(labels, "labels", 1 << int(label_len))
    bits = np.empty(subfile_len, dtype=np.uint8)
    for blocks, span, positions in spans:
        bits[span] = (labels[blocks, None] >> positions & 1).ravel()
    return bits
