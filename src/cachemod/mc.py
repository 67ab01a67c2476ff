"""Seeded Monte Carlo SER estimation and noiseless end-to-end checks.

Estimation runs per *cell*: the useful symbols sharing a known-bit shape and
an SNR are modelled as uniform labels, so each cell is sampled once per
`estimate_table` and reused by every user, plan and SNR point that reads it.
Free label bits are uniform, but padding biases known bits (proposed (1, 0)
symbols of the K = 12 256-QAM scenario knew value 0 in 98.6 % of cases, zero
padding (0, 1) ones in 74.6 %).  So the model is exact where every known
value's subconstellation is congruent: every PSK shape and the QAM prefix
shapes.  It approximates QAM suffix shapes: at 20 dB, 256-QAM (0, 2) had a
per-value SER of 0.324-0.346, a gap of 1-2 standard errors on that scenario.
Every cell draws from its own RNG substream derived from (master seed, cell
key), which keeps campaigns reproducible regardless of evaluation order or
thread, so `CellTable.fill` may run a sweep's cells on every usable CPU at
once.  A cell of N trials runs in ceil(N / `_TRIALS_PER_CHUNK`) chunks whose
lengths differ by at most one, and holds one chunk at a time.  Trials whose
noise cannot leave the sent point's decision cell skip detection
(`_SCREEN`); only the labels and noise of the others are kept for the error
count.  In PSK prefix cells, whose decision cells are wedges, those are
counted by one phase test against the sent point (`_BAND`), and only the
rows on a wedge edge or outside the radius window [`_RHO_MIN`, `_RHO_MAX`]
are detected.  Every trial is still drawn, so no estimate changes.
"""

from __future__ import annotations

import hashlib
import math
import threading
from typing import NamedTuple

import numpy as np

from .analysis import CellTable
from .caching import (
    DeliveryPlan,
    DemandVector,
    PlacementRealization,
    decode_block,
    encode_block,
    known_shape,
    piece_spans,
)
from .errors import ConfigurationError, integer, positive, seed
from .modem import (
    PSK, _RHO_MAX, _RHO_MIN, Constellation, _counts, _known_value, detect, min_distance,
)


def _cell_seed(master_seed: int, cell_id: str) -> np.random.SeedSequence:
    digest = hashlib.sha256(cell_id.encode()).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in (0, 8, 16, 24)]
    return np.random.SeedSequence([master_seed, *words])


# A cell's stream is its labels, integers(0, 2^m, N), then its noise,
# standard_normal((N, 2)), from one PCG64 on `_cell_seed`.  For m <= 8 a label
# is one 32-bit Lemire draw without rejection, so the labels take ceil(N/2)
# 64-bit words (an odd half-word stays in the bit generator's state), and a
# second PCG64 on the same seed advanced by ceil(N/2) yields the noise.  Both
# are drawn chunk by chunk, with the one-shot bytes, in k = ceil(N / this) equal
# chunks (lengths differ by at most one): a 1e4-trial cell is one chunk and a
# 1e5-trial cell seven of 14,285 or 14,286.  Each chunk's numpy calls release
# and retake the GIL, so with cells on two threads fewer chunks mean fewer
# waits for the other thread.
_TRIALS_PER_CHUNK = 1 << 14
_scratch = threading.local()  # each thread's noise buffer, kept from cell to cell

# The screen.  The sent point x is at least d = `min_distance` from every other
# candidate, so noise w = sqrt(1/2) n with |w| < sqrt(gamma) d / 2 leaves each
# of them farther from y than x by more than g = sqrt(gamma) d - 2 |w|.  Brute
# force returns x once g > 2E (E: see above `modem._brute_force`), and so does
# `detect`.  Raw |n|^2 < (1 - _SCREEN) 2 gamma (d/2)^2 gives
# g > _SCREEN / 2 sqrt(gamma) d (up to a few eps of rounding), while
# 2E <= 64 eps (|x| + d/2 + 2) sqrt(gamma):
# _SCREEN = 1e-9 leaves g / 2E above 1400 at 256-QAM's d = 2 / sqrt(170) and
# above 280 at the smallest d of any shape, 256-PSK's 2 sin(pi / 256).
_SCREEN = 1e-9

# The wedge test.  In a PSK prefix shape (p, 0), p < m, the candidates are
# 2^(m-p) points D = 2 pi / 2^(m-p) apart round the circle, so the sent point x
# is the exact ML decision when phi = arg(y conj(x)) has |phi| < D/2 and not
# when |phi| > D/2.  With |phi| at least delta inside that wedge, every other
# candidate is farther from y than x by at least
# 2 |y| sqrt(gamma) sin(D/2) sin(delta) / (|y| + sqrt(gamma)); with |phi| at
# least delta outside it, x's neighbour across the edge is nearer than x by as
# much.  That exceeds brute force's 2E (E: see above `modem._brute_force`) =
# 64 eps (|y| + 2 sqrt(gamma)) once sin(delta) > 32 eps (rho + 1)(rho + 2) /
# (rho sin(D/2)), rho = |y| / sqrt(gamma); inside the radius window
# [_RHO_MIN, _RHO_MAX] and at 256-PSK's D = 2 pi / 256 this is at most 1.2e-10,
# at rho = _RHO_MIN.  Brute force, and so `detect`, then decides x inside the
# wedge and another point outside it.  The computed |phi| - D/2 is within
# 30 eps < 1e-14 of the exact one (sqrt(gamma) x carries under 17 eps, the
# product 3, the arctangent 2 ulp of pi, the subtraction 1), so only the rows
# within _BAND = 1e-8 of the edge, a factor of 80 spare, and the rows outside
# the window go to `detect`.
_BAND = 1e-8


def estimate_cell_ser(
    c: Constellation,
    shape: tuple,
    gamma: float,
    trials: int,
    master_seed: int,
    cell_id: str,
) -> tuple:
    """Monte Carlo (ser, std_error) for symbols whose labels have `shape` known bits.

    Each trial draws a uniform m-bit label, reveals the masked positions to
    the demodulator, sends the point over the AWGN channel and checks the ML
    decision over the compatible subconstellation.  Only the trials whose raw
    noise reaches the screen radius (`_SCREEN`) become received points; the
    others are correct decisions.  `_errors` counts the errors among the rest.
    Returns the pair a `CellTable` stores: ser, the fraction of the `trials`
    in error, and std_error, its binomial standard error
    sqrt(ser (1 - ser) / trials).  The trials come from `master_seed`'s
    substream named `cell_id`; `trials` must be an integer >= 1, `master_seed`
    a seed and `gamma` a positive SNR (the rules in `errors`).
    """
    trials = integer(trials, "trials", 1)
    shape = p, s = _counts(c, shape)
    (gamma,) = positive((gamma,), "SNRs")
    stream = _cell_seed(seed(master_seed, "master_seed"), cell_id)
    label_rng = np.random.default_rng(stream)
    noise_rng = np.random.Generator(np.random.PCG64(stream).advance(-(-trials // 2)))
    sqrt_gamma = math.sqrt(gamma)

    # the screen (see `_SCREEN`); a lone candidate (p + s = m) is never wrong
    d = math.inf if p + s == c.m else min_distance(c, p, s)
    safe = (1 - _SCREEN) * 2 * gamma * (d / 2) ** 2
    sent = sqrt_gamma * c.points

    errors = 0
    chunks = -(-trials // _TRIALS_PER_CHUNK)
    # one noise buffer per thread, grown only for a longer chunk; a fresh one per
    # chunk or cell was faulted in again (some 10,000 or 2,300 faults per sweep)
    if len(getattr(_scratch, "pairs", ())) < -(-trials // chunks):
        _scratch.pairs = np.empty((-(-trials // chunks), 2))
    pairs = _scratch.pairs
    for i in range(chunks):
        n = trials // chunks + (i < trials % chunks)
        labels = label_rng.integers(0, 1 << c.m, size=n, dtype=np.int64)
        # the draws of normal(0, sqrt(1/2), (n, 2)) as (real, imag) pairs, in
        # the float operations of the one-shot cell, for the unscreened rows
        noise = noise_rng.standard_normal(out=pairs[:n]).view(np.complex128)[:, 0]
        q = np.square(noise.real)
        q += np.square(noise.imag)
        rows = np.flatnonzero(q >= safe)
        del q
        # only these rows live through the count: their labels, and their
        # noise moved to the front of the buffer (`take` writes through a
        # temporary, so the overlap is safe)
        labels = labels[rows]
        noise = np.take(noise, rows, out=noise[: rows.size])
        del rows
        if labels.size:
            errors += _errors(c, shape, sqrt_gamma, sent, noise, labels)
    ser = errors / trials
    return ser, math.sqrt(ser * (1.0 - ser) / trials)


def _errors(
    c: Constellation,
    shape: tuple,
    sqrt_gamma: float,
    sent: np.ndarray,
    noise: np.ndarray,
    labels: np.ndarray,
) -> int:
    """How many trials with raw complex `noise` and sent `labels` the ML
    decision gets wrong; overwrites `noise`.

    `sent` holds sqrt(gamma) times each label's point.  PSK prefix shapes
    count the rows away from the sent point's wedge edge by its phase
    (`_BAND`); the other rows, and every row of the other shapes, go to
    `detect`.
    """
    # the received points sent[labels] + sqrt(1/2) noise, in the float
    # operations of the one-shot cell
    y = noise
    y.view(np.float64)[:] *= math.sqrt(0.5)
    y += sent[labels]
    errors = 0
    if c.family == PSK and shape[1] == 0:
        radius = np.abs(y)
        # outside the radius window the band's bound does not hold
        outside = (radius < _RHO_MIN * sqrt_gamma) | (radius > _RHO_MAX * sqrt_gamma)
        del radius
        turned = sent.conj()[labels]
        np.multiply(y, turned, out=turned)  # y conj(x), whose phase is tested
        off = np.angle(turned)
        del turned
        np.abs(off, out=off)
        off -= math.pi / (1 << (c.m - shape[0]))
        off[outside] = 0
        errors = int(np.count_nonzero(off > _BAND))
        unsure = np.flatnonzero(np.abs(off, out=off) <= _BAND)
        y, labels = y[unsure], labels[unsure]
    if labels.size:
        decided = detect(c, y, sqrt_gamma, shape, _known_value(labels, c.m, shape))
        errors += int(np.count_nonzero(decided != labels))
    return errors


def _cell_key(c: Constellation, shape: tuple, gamma: float) -> str:
    # float(): a numpy scalar is the same `CellTable` key as the equal Python
    # float, so it must name the same substream (numpy 2 reprs `np.float64(4.0)`)
    return f"{c.family}:m{c.m}:p{shape[0]}:s{shape[1]}:g{float(gamma)!r}"


def estimate_table(c: Constellation, trials: int, master_seed: int) -> CellTable:
    """Monte Carlo estimates of `trials` trials per cell, each from its own
    (master_seed, cell key) substream."""

    def estimate(shape: tuple, gamma: float) -> tuple:
        return estimate_cell_ser(c, shape, gamma, trials, master_seed, _cell_key(c, shape, gamma))

    return CellTable(c, estimate)


class EndToEndResult(NamedTuple):
    passed: dict  # user -> bool
    first_mismatch: dict  # user -> (file, bit position) for failures

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def end_to_end_noiseless(
    placement: PlacementRealization,
    plan: DeliveryPlan,
    demands: DemandVector,
    c: Constellation,
) -> EndToEndResult:
    """Encode, modulate, detect with side information and reassemble.

    Runs the whole pipeline over an identity channel and checks that every
    user recovers its demanded file bit-exactly.  Subsets go in code order,
    members in ascending order.  A message is one (n_blocks,) int64 label
    array, the XOR of its members' `encode_block` shares; member u knows
    `labels ^ share[u]`, detects each non-empty run of its own pieces with
    that run's known-bit shape, and decodes its whole subfile in one call.
    Raises ConfigurationError when the demands are not the plan's, or when
    the placement's subfiles are not the lengths the plan was built for.
    """
    plan.check_constellation(c)
    m = c.m
    if demands != plan.demands:
        raise ConfigurationError(
            f"demands {demands.demands} differ from the plan's {plan.demands.demands}"
        )
    k = placement.num_users
    demands.validate(placement.library.num_files, k)
    files = {u: demands.file_for(u) for u in range(1, k + 1)}

    # each user's demanded file as recovered; 2 marks a bit never recovered
    recovered = {
        u: np.full(len(placement.bit_values[d - 1]), 2, np.uint8) for u, d in files.items()
    }
    codes = np.flatnonzero(plan.ell)
    for code, ell in zip(codes.tolist(), plan.ell[codes].tolist()):
        subset = frozenset(u for u in files if code >> (u - 1) & 1)
        n_blocks = -(-ell // m)
        # subfile payloads in canonical (ascending bit position) order
        positions, shares = {}, {}
        for u in sorted(subset):
            rest = code & ~(1 << (u - 1))  # the code of subset - {u}
            positions[u] = np.flatnonzero(placement.subset_codes[files[u] - 1] == rest)
            planned = plan.subfiles.lengths[files[u] - 1, rest]
            if len(positions[u]) != planned:
                raise ConfigurationError(
                    f"user {u}'s subfile for subset {sorted(subset)} has {len(positions[u])} "
                    f"bits in the placement but {planned} in the plan"
                )
            payload = placement.bit_values[files[u] - 1][positions[u]]
            shares[u] = encode_block(plan.scheme, payload, n_blocks, m)
        labels = np.bitwise_xor.reduce(list(shares.values()))
        y = c.points[labels]  # modulated; the channel is the identity

        for u, share in shares.items():
            known = labels ^ share  # the others' shares, which u has cached
            own = np.zeros(n_blocks, dtype=np.int64)  # u's share as detected
            for run, _, bit_positions in piece_spans(plan.scheme, len(positions[u]), n_blocks, m):
                shape = known_shape(plan.scheme, bit_positions.size, m)
                got = detect(c, y[run], 1.0, shape, _known_value(known[run], m, shape))
                own[run] = got ^ known[run]
            recovered[u][positions[u]] = decode_block(plan.scheme, own, len(positions[u]), m)

    passed, mismatch = {}, {}
    for u, d in files.items():
        uncached = (placement.subset_codes[d - 1] >> (u - 1) & 1) == 0
        wrong = np.flatnonzero(uncached & (recovered[u] != placement.bit_values[d - 1]))
        passed[u] = wrong.size == 0
        if wrong.size:
            mismatch[u] = (d, int(wrong[0]))
    return EndToEndResult(passed=passed, first_mismatch=mismatch)
