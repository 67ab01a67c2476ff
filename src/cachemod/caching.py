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
from functools import cached_property
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


def largest_remainder(targets, total: int) -> list[int]:
    """Integer apportionment of `total` proportional to `targets`.

    Floors every share and hands the leftover units to the largest fractional
    remainders (ties broken by position).  Preserves the exact total.
    """
    floors = [math.floor(t) for t in targets]
    deficit = total - sum(floors)
    if deficit < 0:
        raise ValueError("targets exceed total")
    order = sorted(range(len(targets)), key=lambda i: (-(targets[i] - floors[i]), i))
    for i in order[:deficit]:
        floors[i] += 1
    return floors


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

    @property
    def num_files(self) -> int:
        return len(self.file_fractions)

    @cached_property
    def file_bits(self) -> tuple:
        """Per-file integer bit counts summing exactly to total_bits."""
        targets = [f * self.total_bits for f in self.file_fractions]
        return tuple(largest_remainder(targets, self.total_bits))


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


def subset_tuples(num_users: int):
    """Non-empty user subsets as sorted tuples, in canonical order (by size, then members)."""
    users = range(1, num_users + 1)
    for size in range(1, num_users + 1):
        yield from combinations(users, size)


def all_subsets(num_users: int):
    """Non-empty user subsets as frozensets, in canonical order."""
    return map(frozenset, subset_tuples(num_users))


def subset_code(subset) -> int:
    """Bitmask of a user subset: bit u - 1 is set when user u is a member."""
    return sum(1 << (u - 1) for u in subset)


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
        return self.lengths[file_index - 1, subset_code(subset)].item()

    def file_total(self, file_index: int):
        return self.lengths[file_index - 1].sum().item()


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
    the earlier subset in canonical order (the empty set, then `all_subsets`).
    Integer maps are returned unchanged.
    """
    if np.issubdtype(subfiles.lengths.dtype, np.integer):
        return subfiles
    order = [0, *map(subset_code, subset_tuples(subfiles.num_users))]
    lengths = np.empty(subfiles.lengths.shape, dtype=np.int64)
    for row, raw, nbits in zip(lengths, subfiles.lengths, library.file_bits, strict=True):
        row[order] = largest_remainder(raw[order].tolist(), nbits)
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
        return self._subset_codes[file_index - 1]

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


@dataclass(frozen=True)
class DeliveryPlan:
    """Per-subset block schedules for one demand vector under one padding scheme.

    Blocks are not stored: `block` builds one on demand from its schedule.
    What the error analysis needs is each user's histogram of known-bit
    shapes, `shape_counts`, computed in closed form when the plan is built.
    """

    scheme: str
    label_len: int
    num_users: int
    per_subset: dict  # frozenset -> SubsetSchedule
    load: float  # transmitted bits / B
    histograms: dict = field(repr=False, default_factory=dict)  # user -> {shape: count}

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
    `quantize_expected_map` first.  The cost does not depend on the library
    size: no block is enumerated.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if label_len < 1:
        raise ConfigurationError("bits per symbol must be >= 1")
    if not np.issubdtype(subfiles.lengths.dtype, np.integer):
        raise ConfigurationError("quantize an expected (float) subfile map before planning")
    k = subfiles.num_users
    demands.validate(subfiles.num_files, k)

    total_bits = int(subfiles.lengths.sum())
    rows = {u: subfiles.lengths[demands.file_for(u) - 1].tolist() for u in range(1, k + 1)}
    per_subset = {}
    histograms = {u: {} for u in range(1, k + 1)}
    sent_bits = 0
    # canonical subset order fixes each histogram's insertion (summation) order
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
    return DeliveryPlan(
        scheme=scheme,
        label_len=label_len,
        num_users=k,
        per_subset=per_subset,
        load=sent_bits / total_bits if total_bits else 0.0,
        histograms=histograms,
    )


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
