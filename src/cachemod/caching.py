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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .bits import as_bits
from .errors import ConfigurationError, UselessBlockError

PROPOSED = "proposed"
ZERO_PADDING = "zero_padding"
SCHEMES = (PROPOSED, ZERO_PADDING)

# sample_placement enumerates individual bits; keep instances tractable
MAX_ENUMERATED_BITS = 10**7
# subfile maps hold 2**K lengths per file; keep them allocatable
MAX_USERS = 20
MAX_SUBFILE_ENTRIES = 2**25  # N * 2**K; 256 MiB per float64 or int64 map
# Every integer that quantisation and planning store in int64 is at most
# B = total_bits: a file's bit count, a subfile length, a message length
# ell_S, its block count and each sum of them.  With distinct demands each
# (user, subset) pair reads its own map entry W_{d_u, S minus u}, so
# sum_S ell_S <= sum_S sum_{u in S} |W_{d_u, S minus u}| <= B, and a user's
# block counts sum to at most that.  The float shares F_i * B may round a
# little above B (the fractions sum to 1 within 1e-12), so B <= 2**62 leaves
# int64 (largest value 2**63 - 1) a factor of two of headroom.
MAX_TOTAL_BITS = 2**62
# subsets per step of the array planner, bounding its (K, chunk, 2) arrays
_PLAN_CHUNK = 2**13
# Up to this many entries (targets of `largest_remainder`, subsets of a plan)
# Python loops beat array code.  The array code calls some thirty numpy
# kernels, and in a fresh process each one's first call costs 2-40 us: about
# 0.4 ms in all, a third of a K = 3 analytic sweep.  Timed in fresh processes
# on a 2-vCPU VM, quantising and planning both schemes took the loops 0.4 ms
# at K = 3 and the arrays 0.9 ms; at K = 5 the arrays win, 1.0 against 1.1 ms.
_LOOP_MAX = 2**4


def largest_remainder(targets, total: int) -> np.ndarray:
    """Integer apportionment of `total` proportional to `targets`, as int64.

    Floors every share and hands the leftover units to the largest fractional
    remainders, ties going to the earlier position.  Preserves the exact
    total, or raises ValueError when that takes more than one unit per share
    or fewer than none.  Up to `_LOOP_MAX` targets a sort ranks the
    remainders.  Beyond, one partition finds the cut, the deficit-th largest
    remainder: every remainder above it gets a unit, the earliest ones equal
    to it share the rest.  That is the sort's choice in linear time.
    """
    if len(targets) <= _LOOP_MAX:
        targets = [float(t) for t in targets]
        floors = [math.floor(t) for t in targets]
        deficit = total - sum(floors)
        if not 0 <= deficit <= len(targets):
            raise ValueError(f"total less floored shares is {deficit}, not in 0..{len(targets)}")
        order = sorted(range(len(targets)), key=lambda i: (-(targets[i] - floors[i]), i))
        for i in order[:deficit]:
            floors[i] += 1
        return np.array(floors, dtype=np.int64)
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
        shares[ties[: deficit - np.count_nonzero(above)]] += 1
    return shares


@dataclass(frozen=True)
class Library:
    """File-size fractions plus the total library size in bits."""

    file_fractions: tuple
    total_bits: int

    def __post_init__(self):
        fractions = tuple(float(f) for f in self.file_fractions)
        object.__setattr__(self, "file_fractions", fractions)
        if not fractions or any(f <= 0 for f in fractions):
            raise ConfigurationError("file fractions must be positive")
        if abs(sum(fractions) - 1.0) > 1e-12:
            raise ConfigurationError(f"file fractions sum to {sum(fractions):g}")
        if self.total_bits < 1:
            raise ConfigurationError("total_bits must be >= 1")
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
        mus = tuple(float(m) for m in self.mus)
        object.__setattr__(self, "mus", mus)
        if not mus:
            raise ConfigurationError("at least one user required")
        if len(mus) > MAX_USERS:
            raise ConfigurationError(f"{len(mus)} users exceed the limit of {MAX_USERS}")
        if any(m < 0 or m > 1 for m in mus):
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
        demands = tuple(int(d) for d in self.demands)
        object.__setattr__(self, "demands", demands)
        if len(set(demands)) != len(demands):
            raise ConfigurationError("duplicate demands are not supported")

    def validate(self, num_files: int, num_users: int):
        if len(self.demands) != num_users:
            raise ConfigurationError("one demand per user required")
        if any(d < 1 or d > num_files for d in self.demands):
            raise ConfigurationError("demand indices must lie in [1, N]")

    def file_for(self, user: int) -> int:
        return self.demands[user - 1]


def subset_code(subset) -> int:
    """Bitmask of a user subset: bit u - 1 is set when user u is a member."""
    return sum(1 << (u - 1) for u in subset)


@lru_cache(maxsize=None)
def canonical_codes(num_users: int) -> np.ndarray:
    """Every subset's code in canonical order: by size, then members lexicographically.

    The empty set comes first.  Up to `_LOOP_MAX` subsets `combinations`
    lists them.  Beyond, the array code uses that among subsets of one size,
    sorted member tuples compare like the codes with their bits reversed
    (user 1 highest), in descending order: it lists the codes by descending
    reversed code and splits them by size, a sort without sorting.
    Read-only, built once per K.
    """
    if 1 << num_users <= _LOOP_MAX:
        users = range(1, num_users + 1)
        order = np.array(
            [subset_code(s) for size in range(num_users + 1) for s in combinations(users, size)],
            dtype=np.int64,
        )
    else:
        reversed_codes = np.arange((1 << num_users) - 1, -1, -1)
        codes = np.zeros_like(reversed_codes)
        size = np.zeros_like(reversed_codes)
        for u in range(num_users):
            bit = reversed_codes >> (num_users - 1 - u) & 1
            codes |= bit << u
            size += bit
        order = np.concatenate([codes[size == s] for s in range(num_users + 1)])
    order.flags.writeable = False
    return order


def _file_row(file_index: int, num_files: int) -> int:
    """The 0-based row of a 1-based file index, which must lie in 1..N."""
    if not 1 <= file_index <= num_files:
        raise ConfigurationError(f"file index {file_index} outside 1..{num_files}")
    return file_index - 1


@dataclass(frozen=True)
class SubfileMap:
    """Lengths |W_{i,S}| in bits for every (file, caching-subset) pair.

    `lengths` is a read-only array of shape (num_files, 2**num_users):
    lengths[i - 1, subset_code(S)] is |W_{i,S}|.  An integer dtype holds
    exact bit counts, ready for planning; a float dtype holds expected
    lengths, which `quantize_expected_map` rounds to integers.
    """

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths).view()
        if lengths.ndim != 2 or lengths.shape[1].bit_count() != 1:
            raise ConfigurationError("subfile lengths must have shape (num_files, 2**num_users)")
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)

    @property
    def num_files(self) -> int:
        return self.lengths.shape[0]

    @property
    def num_users(self) -> int:
        return self.lengths.shape[1].bit_length() - 1

    def length(self, file_index: int, subset: frozenset):
        return self.lengths[_file_row(file_index, self.num_files), subset_code(subset)].item()

    def file_total(self, file_index: int):
        return self.lengths[_file_row(file_index, self.num_files)].sum().item()


def expected_subfile_lengths(library: Library, caches: CacheProfile) -> SubfileMap:
    """Law-of-large-numbers subfile lengths for independent random caching.

    lengths(i, S) = F_i * B * prod_{j in S} mu_j * prod_{k not in S} (1 - mu_k)
    """
    codes = np.arange(2**caches.num_users)
    p = np.ones(len(codes))
    for u, mu in enumerate(caches.mus):  # user by user: the order fixes the float results
        p *= np.where(codes >> u & 1, mu, 1.0 - mu)
    base = np.array(library.file_fractions) * library.total_bits
    return SubfileMap(base[:, None] * p)


def quantize_expected_map(subfiles: SubfileMap, library: Library) -> SubfileMap:
    """Round an expected map to integer lengths, conserving per-file totals.

    Largest-remainder rounding within each file keeps the subset lengths
    summing exactly to the file's integer bit count.  Tied remainders go to
    the earlier subset in canonical order (`canonical_codes`: the empty set,
    then by size and members).  Integer maps are returned unchanged.
    """
    if np.issubdtype(subfiles.lengths.dtype, np.integer):
        return subfiles
    order = canonical_codes(subfiles.num_users)
    lengths = np.empty(subfiles.lengths.shape, dtype=np.int64)
    for row, raw, nbits in zip(lengths, subfiles.lengths, library.file_bits, strict=True):
        try:
            row[order] = largest_remainder(raw[order], nbits)
        except ValueError as exc:
            raise ConfigurationError(
                f"expected subfile lengths do not round to a {nbits}-bit file: {exc}"
            ) from exc
    return SubfileMap(lengths)


@dataclass(frozen=True)
class PlacementRealization:
    """Concrete seeded cache contents: which user cached which library bit."""

    library: Library
    caches: CacheProfile
    # per file: uint8 bit values of shape (file_bits,) and bool cache mask of
    # shape (num_users, file_bits)
    bit_values: tuple
    cached_by: tuple
    seed: int | None = None

    @property
    def num_users(self) -> int:
        return self.caches.num_users

    @cached_property
    def _subset_codes(self) -> tuple:
        out = []
        for mask in self.cached_by:
            codes = np.zeros(mask.shape[1], dtype=np.int64)
            for u in range(mask.shape[0]):
                codes += mask[u].astype(np.int64) << u
            out.append(codes)
        return tuple(out)

    def subset_codes(self, file_index: int) -> np.ndarray:
        """Per-bit caching subset encoded as a bitmask over users."""
        return self._subset_codes[_file_row(file_index, self.library.num_files)]

    def subfile_positions(self, file_index: int, subset: frozenset) -> np.ndarray:
        return np.nonzero(self.subset_codes(file_index) == subset_code(subset))[0]


def sample_placement(library: Library, caches: CacheProfile, seed: int) -> PlacementRealization:
    """Draw a random placement: user k caches each bit independently w.p. mu_k."""
    if library.total_bits > MAX_ENUMERATED_BITS:
        raise ConfigurationError(
            f"total_bits {library.total_bits} exceeds the enumeration guard "
            f"({MAX_ENUMERATED_BITS})"
        )
    rng = np.random.default_rng(seed)
    mus = np.array(caches.mus)
    values, masks = [], []
    for nbits in library.file_bits:
        values.append(rng.integers(0, 2, size=nbits, dtype=np.uint8))
        u = rng.random(size=(caches.num_users, nbits))
        masks.append(u < mus[:, None])
    return PlacementRealization(
        library=library,
        caches=caches,
        bit_values=tuple(values),
        cached_by=tuple(masks),
        seed=seed,
    )


def realized_subfile_map(placement: PlacementRealization) -> SubfileMap:
    """Exact subfile lengths of a placement realization."""
    width = 2**placement.num_users
    files = range(1, placement.library.num_files + 1)
    counts = [np.bincount(placement.subset_codes(i), minlength=width) for i in files]
    return SubfileMap(np.stack(counts))


# ---------------------------------------------------------------------------
# Delivery plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticastBlockSpec:
    """One m-bit XOR block of the multicast message for a user subset."""

    subset: frozenset
    block_index: int  # 1-based within the subset's message
    per_user_piece_len: dict  # user -> bits of its subfile in this block
    label_len: int
    scheme: str

    def piece_len(self, user: int) -> int:
        if user not in self.subset:
            raise ConfigurationError(f"user {user} not in subset {sorted(self.subset)}")
        return self.per_user_piece_len[user]

    def piece_start(self, user: int) -> int:
        """Label position where the user's piece begins."""
        n = self.piece_len(user)
        if self.scheme == PROPOSED:
            return self.label_len - n  # right-aligned, known bits in front
        return 0  # zero padding fills from the front

    def known_shape(self, user: int) -> tuple:
        """(prefix_known, suffix_known) label-bit counts for `user` on this block.

        Raises UselessBlockError when the block carries none of the user's
        bits; that is distinct from a useful block with nothing known, (0, 0).
        """
        n = self.piece_len(user)
        if n == 0:
            raise UselessBlockError(
                f"block {self.block_index} of subset {sorted(self.subset)} carries no bits "
                f"for user {user}"
            )
        if self.scheme == PROPOSED:
            return (self.label_len - n, 0)
        return (0, self.label_len - n)


@dataclass(frozen=True)
class SubsetSchedule:
    """Per-subset symbol counts: message length, block count, subfile lengths."""

    ell: int
    n_blocks: int
    subfile_len: dict  # user -> |W_{d_k, S\{k}}|


@dataclass(frozen=True, eq=False)
class DeliveryPlan:
    """Per-subset block schedules for one demand vector under one padding scheme.

    What the error analysis needs is each user's histogram of known-bit
    shapes, `shape_counts`, computed in closed form when the plan is built.
    The plan keeps each subset's message length, indexed by subset code;
    `per_subset` builds the schedules of the subsets that send a message from
    the map on first access, and `block` builds one block from a schedule.
    """

    scheme: str
    label_len: int
    num_users: int
    load: float  # transmitted bits / B
    histograms: dict = field(repr=False)  # user -> {shape: count}
    subfiles: SubfileMap = field(repr=False)
    demands: DemandVector = field(repr=False)
    ell: np.ndarray = field(repr=False)  # message bits per subset code

    @cached_property
    def per_subset(self) -> dict:
        """{frozenset: SubsetSchedule} for every subset with a message, in canonical order."""
        lengths = self.subfiles.lengths
        users = range(1, self.num_users + 1)
        message_bits = self.ell.tolist()
        out = {}
        for code in canonical_codes(self.num_users).tolist():
            ell = message_bits[code]
            if ell == 0:
                continue
            subset = frozenset(u for u in users if code >> (u - 1) & 1)
            sub_lens = {
                u: lengths[self.demands.file_for(u) - 1, code & ~(1 << (u - 1))].item()
                for u in subset
            }
            out[subset] = SubsetSchedule(ell, -(-ell // self.label_len), sub_lens)
        return out

    def block(self, subset, block_index: int) -> MulticastBlockSpec:
        subset = frozenset(subset)
        sched = self.per_subset.get(subset)
        if sched is None or not 1 <= block_index <= sched.n_blocks:
            raise ConfigurationError(f"no block {block_index} for subset {sorted(subset)}")
        if self.scheme == PROPOSED:
            pieces = {
                u: proposed_piece_len(n, sched.n_blocks, block_index)
                for u, n in sched.subfile_len.items()
            }
        else:
            pieces = {
                u: zero_padding_piece_len(n, self.label_len, block_index)
                for u, n in sched.subfile_len.items()
            }
        return MulticastBlockSpec(
            subset=subset,
            block_index=block_index,
            per_user_piece_len=pieces,
            label_len=self.label_len,
            scheme=self.scheme,
        )

    def block_runs(self, subset) -> list:
        """The subset's message as [(first block, count)] runs of consecutive blocks.

        Every block of a run has the first block's piece lengths, so one
        `MulticastBlockSpec` describes it; a run ends where any user's
        `subset_shapes` run does, giving at most 2|S| + 1 runs.
        """
        subset = frozenset(subset)
        sched = self.per_subset.get(subset)
        if sched is None:
            raise ConfigurationError(f"no message for subset {sorted(subset)}")
        # a user's blocks with empty pieces all come last, so the ends of its
        # useful runs and the message end are all of its breakpoints
        starts = {1, sched.n_blocks + 1}
        for n in sched.subfile_len.values():
            start = 1
            for _, count in subset_shapes(self.scheme, n, sched.n_blocks, self.label_len):
                start += count
                starts.add(start)
        bounds = sorted(starts)
        return [(self.block(subset, a), b - a) for a, b in zip(bounds, bounds[1:])]

    def iter_blocks(self):
        """Every block of the plan, built one at a time in message order."""
        for subset, sched in self.per_subset.items():
            for i in range(1, sched.n_blocks + 1):
                yield self.block(subset, i)

    def useful_symbols(self, user: int) -> int:
        return sum(self.histograms.get(user, {}).values())

    def shape_counts(self, user: int) -> dict:
        """{(prefix_known, suffix_known): count} over the user's useful blocks."""
        return dict(self.histograms.get(user, {}))


def proposed_piece_len(subfile_len: int, n_blocks: int, block_index: int) -> int:
    """Even split of a subfile over the blocks; earlier blocks get the extras."""
    q, r = divmod(subfile_len, n_blocks)
    return q + 1 if block_index <= r else q


def zero_padding_piece_len(subfile_len: int, label_len: int, block_index: int) -> int:
    """Sequential fill: full labels, then one partial, then nothing."""
    remaining = subfile_len - (block_index - 1) * label_len
    return max(0, min(label_len, remaining))


def subset_shapes(scheme: str, subfile_len: int, n_blocks: int, label_len: int) -> list:
    """Known-bit shapes of one user's useful blocks in a message, in block order.

    Returns [(shape, count)] runs without enumerating blocks.  With q, r =
    divmod(n, n_blocks), the even split puts q + 1 bits in the first r blocks
    and q bits in the rest; sequential fill gives n // m full labels, then
    one partial label.  Runs with empty pieces are dropped.
    """
    if scheme == PROPOSED:
        q, r = divmod(subfile_len, n_blocks)
        runs = ((q + 1, r), (q, n_blocks - r))
        return [((label_len - n, 0), count) for n, count in runs if n > 0 and count > 0]
    full, rest = divmod(subfile_len, label_len)
    runs = [((0, 0), full)] if full else []
    if rest:
        runs.append(((0, label_len - rest), 1))
    return runs


def build_delivery_plan(
    subfiles: SubfileMap,
    demands: DemandVector,
    scheme: str,
    label_len: int,
) -> DeliveryPlan:
    """Compile an integer subfile map and demand vector into per-subset block schedules.

    Expected (float) maps are rejected: round them with
    `quantize_expected_map` first.  No block is enumerated.  For user u in
    subset S, n_u = |W_{d_u, S minus u}|; the message has ell = max n_u bits
    in ceil(ell / m) blocks, and each (user, subset) pair adds the runs of
    `subset_shapes` to the user's histogram.  A histogram lists its shapes in
    order of first appearance over the subsets in canonical order, which
    fixes `ser_report`'s float sums.  Up to `_LOOP_MAX` subsets a loop visits
    them one by one; beyond, `_plan_arrays` handles them as arrays of codes.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if label_len < 1:
        raise ConfigurationError("bits per symbol must be >= 1")
    if not np.issubdtype(subfiles.lengths.dtype, np.integer):
        raise ConfigurationError("quantize an expected (float) subfile map before planning")
    if subfiles.lengths.min(initial=0) < 0:
        raise ConfigurationError("subfile lengths must be non-negative")
    demands.validate(subfiles.num_files, subfiles.num_users)

    plan_subsets = _plan_loop if subfiles.lengths.shape[1] <= _LOOP_MAX else _plan_arrays
    ell, histograms = plan_subsets(subfiles, demands, scheme, label_len)
    total_bits = int(subfiles.lengths.sum())
    return DeliveryPlan(
        scheme=scheme,
        label_len=label_len,
        num_users=subfiles.num_users,
        load=int(ell.sum()) / total_bits if total_bits else 0.0,
        histograms=histograms,
        subfiles=subfiles,
        demands=demands,
        ell=ell,
    )


def _plan_loop(subfiles: SubfileMap, demands: DemandVector, scheme: str, m: int) -> tuple:
    """(ell by code, histograms), one subset at a time in canonical order."""
    k = subfiles.num_users
    rows = [subfiles.lengths[d - 1].tolist() for d in demands.demands]
    ell = [0] * (1 << k)
    histograms = {u: {} for u in range(1, k + 1)}
    for code in canonical_codes(k)[1:].tolist():
        sub_lens = {u: rows[u][code & ~(1 << u)] for u in range(k) if code >> u & 1}
        ell[code] = max(sub_lens.values())
        if ell[code] == 0:
            continue
        n_blocks = -(-ell[code] // m)
        for u, n in sub_lens.items():
            hist = histograms[u + 1]
            for shape, count in subset_shapes(scheme, n, n_blocks, m):
                hist[shape] = hist.get(shape, 0) + count
    return np.array(ell, dtype=np.int64), histograms


def _plan_arrays(subfiles: SubfileMap, demands: DemandVector, scheme: str, m: int) -> tuple:
    """(ell by code, histograms) from arrays over subset codes, `_PLAN_CHUNK` at a time.

    Each (user, subset) pair's two runs of blocks follow from `divmod` in
    the closed form of `subset_shapes`.  Block counts are summed per (user,
    shape) and each shape's first (canonical subset, run) position is kept,
    which orders the histogram as the loop would.
    """
    k = subfiles.num_users
    lengths = subfiles.lengths.astype(np.int64, copy=False)
    files = np.array(demands.demands)[:, None] - 1
    bits = np.int64(1) << np.arange(k)[:, None]
    order = canonical_codes(k)
    rank = np.empty_like(order)  # each code's position in canonical order
    rank[order] = np.arange(order.size)
    ell = np.empty(1 << k, dtype=np.int64)  # by code
    # per (user, known bits j): blocks, and the first (canonical subset, run)
    # position where the shape appears; j = m collects the dropped runs
    counts = np.zeros((k, m + 1), dtype=np.int64)
    first = np.full((k, m + 1), 2 * ell.size, dtype=np.int64)
    slot_base = np.arange(k)[:, None, None] * (m + 1)  # flat index of (user, 0)
    # codes in natural order, so each user's gather walks its file's row forward
    for start in range(0, ell.size, _PLAN_CHUNK):
        stop = min(start + _PLAN_CHUNK, ell.size)
        codes = np.arange(start, stop)
        sub_lens = np.where(codes & bits, lengths[files, codes & ~bits], 0)  # 0 off S
        chunk_ell = ell[start:stop] = sub_lens.max(axis=0)
        # two runs of blocks per (user, subset) as (known bits, block count);
        # a run with no blocks, or with empty pieces (known = m), is dropped
        known, blocks = np.empty((2, k, stop - start, 2), dtype=np.int64)
        if scheme == PROPOSED:
            n_blocks = np.maximum(-(-chunk_ell // m), 1)  # 1 where ell = 0: no runs
            q, r = np.divmod(sub_lens, n_blocks)
            known[..., 0], blocks[..., 0] = (m - 1) - q, r  # q + 1 bits in the first r blocks
            known[..., 1], blocks[..., 1] = m - q, n_blocks - r  # q bits in the rest
        else:
            full, rest = np.divmod(sub_lens, m)
            known[..., 0], blocks[..., 0] = 0, full  # full labels
            known[..., 1], blocks[..., 1] = m - rest, 1  # then one partial label
        slot = (np.where(blocks > 0, known, m) + slot_base).ravel()
        np.add.at(counts.reshape(-1), slot, blocks.ravel())
        known[..., 0] = 2 * rank[start:stop]
        known[..., 1] = known[..., 0] + 1
        np.minimum.at(first.reshape(-1), slot, known.ravel())

    histograms = {}
    for u, (row, seen) in enumerate(zip(counts.tolist(), first.tolist()), start=1):
        order = sorted((j for j in range(m) if row[j]), key=seen.__getitem__)
        histograms[u] = {((j, 0) if scheme == PROPOSED else (0, j)): row[j] for j in order}
    return ell, histograms


def _bit_array(bits) -> np.ndarray:
    """One bit string, or a (count, n) run of them with one row per block, as uint8."""
    if isinstance(bits, str) or np.ndim(bits) < 2:
        return as_bits(bits)
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 2 or np.any(arr > 1):
        raise ValueError("a run of bit strings must be two-dimensional and contain only 0/1")
    return arr


def _checked_pieces(block: MulticastBlockSpec, pieces: dict, users) -> dict:
    """`users`' pieces as bit arrays whose last axis matches the block's piece lengths."""
    out = {}
    for user in users:
        if user not in pieces:
            raise ConfigurationError(f"missing piece for user {user}")
        piece = _bit_array(pieces[user])
        want = block.piece_len(user)
        if piece.shape[-1] != want:
            raise ConfigurationError(
                f"user {user} piece has {piece.shape[-1]} bits, block expects {want}"
            )
        out[user] = piece
    return out


def _run_shape(arrays) -> tuple:
    """The common leading shape of bit strings, () or (count,); they must agree."""
    shapes = {a.shape[:-1] for a in arrays}
    if len(shapes) > 1:
        raise ConfigurationError("pieces and labels disagree on the number of blocks")
    return shapes.pop()


def encode_block(block: MulticastBlockSpec, piece_bits: dict) -> np.ndarray:
    """XOR the (zero-extended) per-user pieces into an m-bit label.

    Pieces of shape (count, n_u), one row per block of a run sharing this
    block's piece lengths (`DeliveryPlan.block_runs`), give (count, m) labels.
    """
    pieces = _checked_pieces(block, piece_bits, block.subset)
    label = np.zeros((*_run_shape(pieces.values()), block.label_len), dtype=np.uint8)
    for user, piece in pieces.items():
        start = block.piece_start(user)
        label[..., start : start + piece.shape[-1]] ^= piece
    return label


def decode_block(
    label, block: MulticastBlockSpec, user: int, cached_pieces: dict
) -> np.ndarray:
    """Strip the other users' pieces off a label and return `user`'s piece.

    A (count, m) run of labels with (count, n_v) cached pieces gives the
    (count, n_u) run of `user`'s pieces.
    """
    label = _bit_array(label)
    if label.shape[-1] != block.label_len:
        raise ConfigurationError("label width mismatch")
    others = [v for v in block.subset if v != user]
    pieces = _checked_pieces(block, cached_pieces, others)
    _run_shape([label, *pieces.values()])
    residual = label.copy()
    for other, piece in pieces.items():
        start = block.piece_start(other)
        residual[..., start : start + piece.shape[-1]] ^= piece
    start = block.piece_start(user)
    return residual[..., start : start + block.piece_len(user)]
