"""Unit-energy PSK/QAM constellations with set-partitioning labels.

The labelings are chosen so that fixing the first n label bits (most
significant first) selects a subconstellation whose minimum distance grows
geometrically: 2 sin(pi / 2^(m-n)) for PSK, (sqrt 2)^n * d for square QAM.
Receivers that know a label prefix therefore demodulate over a sparser,
more robust point set.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, integer, positive, whole

PSK = "psk"
QAM = "qam"

# Entries of the symbols x candidates distance matrix per brute-force step:
# 256 KiB of complex differences.  Larger steps were faulted in again at every
# step (some 5,000 page faults per K = 12 256-QAM run at 2^16), and smaller
# ones gain nothing.
_CHUNK = 1 << 14


class Constellation(NamedTuple):
    """2^m unit-average-energy points with a set-partitioning bit labeling."""

    family: str
    m: int
    points: np.ndarray  # complex, read-only, indexed by label: the modulation map
    spacing: float  # native grid spacing d (QAM); unit-circle scale for PSK


def build_psk(m: int) -> Constellation:
    """2^m-PSK on the unit circle; label l sits at angle index bit-reverse(l).

    Fixing the first n label bits then keeps every 2^n-th point, which is
    exactly the set-partitioning chain for PSK.
    """
    return _build_psk(integer(m, "bits per symbol", 1, 8))


@lru_cache(maxsize=None)
def _build_psk(m: int) -> Constellation:
    n = 1 << m
    index = np.array([int(format(label, f"0{m}b")[::-1], 2) for label in range(n)])
    points = np.exp(2j * np.pi * index / n)
    points.setflags(write=False)
    return Constellation(family=PSK, m=m, points=points, spacing=1.0)


def _qam_label(a: int, b: int, m: int) -> int:
    # Binary partition chain of the square lattice: peel one coset bit per
    # level, dividing by (1+i) each time so the checkerboard split repeats.
    label = 0
    for _ in range(m):
        c = (a + b) & 1
        label = (label << 1) | c
        a -= c
        a, b = (a + b) // 2, (b - a) // 2
    return label


def build_qam(m: int) -> Constellation:
    """Square 2^m-QAM carved from the odd-integer grid, unit average energy."""
    return _build_qam(integer(m, "bits per symbol", 2, 8))


@lru_cache(maxsize=None)
def _build_qam(m: int) -> Constellation:
    if m % 2 != 0:
        raise ConfigurationError("QAM requires even m (square constellations only)")
    side = 1 << (m // 2)
    coords = [(a, b) for a in range(side) for b in range(side)]
    raw = np.array([(2 * a - (side - 1)) + 1j * (2 * b - (side - 1)) for a, b in coords])
    scale = math.sqrt(float(np.mean(np.abs(raw) ** 2)))
    points = np.empty(1 << m, dtype=complex)
    points[[_qam_label(a, b, m) for a, b in coords]] = raw / scale
    points.setflags(write=False)
    return Constellation(family=QAM, m=m, points=points, spacing=2.0 / scale)


def check_family(family: str) -> str:
    """`family`, if it is PSK or QAM; raise ConfigurationError otherwise."""
    if family not in (PSK, QAM):
        raise ConfigurationError(f"unknown constellation family {family!r}")
    return family


def build_constellation(family: str, m: int) -> Constellation:
    return (build_psk if check_family(family) == PSK else build_qam)(m)


def min_distance(c: Constellation, prefix_known: int, suffix_known: int = 0) -> float:
    """Minimum pairwise distance of the masked subconstellation, by enumeration.

    Reported as the minimum over every assignment of the known bits; for
    set-partitioning labels and prefix masks all assignments agree.
    """
    p, s = _counts(c, (prefix_known, suffix_known))
    if p + s > c.m - 1:
        raise ConfigurationError("subconstellation has fewer than 2 points")
    return _min_distance(c.family, c.m, p, s)


def _counts(c: Constellation, shape: tuple) -> tuple:
    """Known-bit `shape` = (prefix, suffix) as two integers with p + s <= m."""
    try:
        p, s = shape
    except (TypeError, ValueError):
        raise ConfigurationError(f"mask counts must be two integers, not {shape!r}") from None
    p = integer(p, "mask counts", 0, c.m)
    return p, integer(s, "mask counts", 0, c.m - p)


@lru_cache(maxsize=None)
def _min_distance(family: str, m: int, p: int, s: int) -> float:
    points = _candidates(family, m, p, s)[1]
    diff = np.abs(points[:, :, None] - points[:, None, :])
    own = np.arange(points.shape[1])
    diff[:, own, own] = np.inf
    return float(diff.min())


def detect(
    c: Constellation, y: np.ndarray, sqrt_snr: float, shape: tuple, known: np.ndarray
) -> np.ndarray:
    """Batched ML detection of labels with known-bit `shape` = (prefix, suffix).

    `known[i]` holds received symbol `y[i]`'s known label bits packed as
    `_known_value` packs them.  Each symbol is decided over its compatible
    subconstellation by minimizing |y - sqrt(gamma) x|; exact ties resolve to
    the numerically smallest label.

    Set partitioning makes most square-QAM subconstellations regular, so
    their decision is a rounding, not a search:
    - even prefix: each axis is sliced on the coset's grid;
    - odd prefix: the checkerboard coset is two even-prefix grids, and the
      nearer of their two slice decisions wins;
    - suffix shapes (0, s) with s <= m - 5: the full grid is sliced, and the
      decision stands when it carries the known suffix.
    Symbols near a decision boundary, near a tie of the two checkerboard
    grids, with |y| / sqrt(gamma) outside a fixed window or whose full-grid
    decision misses the suffix, and every other shape, every PSK shape
    included, are decided by brute force over the compatible points, so the
    result is the brute-force decision for every symbol.
    """
    shape = p, s = _counts(c, shape)
    (sqrt_snr,) = positive((sqrt_snr,), "sqrt_snr")
    y, known = np.asarray(y), np.asarray(known)
    if y.ndim != 1 or known.shape != y.shape:
        raise ConfigurationError("y and known must be 1-D with one entry per symbol")
    known = whole(known, "known values", 1 << (p + s))
    if not np.isfinite(y).all():
        raise ConfigurationError("received points must be finite")
    structured = _structured(c, shape)
    if structured is None:
        return _brute_force(c, y, sqrt_snr, shape, known)
    radius = np.abs(y)
    far = radius > _RHO_MAX * sqrt_snr
    unsure = far | (radius < _RHO_MIN * sqrt_snr)
    # far symbols go to brute force; zeroing them keeps the rounding finite
    decided, near_edge = structured(
        c, np.where(far, 0, y) if far.any() else y, sqrt_snr, shape, known
    )
    rows = np.flatnonzero(unsure | near_edge)
    if rows.size:
        decided[rows] = _brute_force(c, y[rows], sqrt_snr, shape, known[rows])
    return decided


# The structured decision is the brute-force one away from cell edges: brute
# force errs by at most E (see the comment above `_brute_force`).  With
# rho = |y| / sqrt(gamma) in [_RHO_MIN, _RHO_MAX] and y at least _MARGIN
# candidate steps inside its cell, the runner-up is farther by at least
# 2 g^2 _MARGIN in squared distance, g = sqrt(gamma) 2^(p/2) d the step and
# d >= 2 / sqrt(170); this exceeds 2E once _MARGIN > 64 eps (rho + 2)^2 / d^2,
# i.e. 6.3e-9 at _RHO_MAX.  The cell coordinates carry under 1e-12 steps of
# error, so _MARGIN = 1e-6 leaves a factor above 150 spare.
_MARGIN = 1e-6
_RHO_MIN, _RHO_MAX = 1e-2, 1e2
# A checkerboard coset's two grid decisions are compared by their distances,
# computed as brute force computes them (E: see above `_brute_force`).  When
# the computed gap exceeds 4E = 128 eps (|y| + 2 sqrt(gamma)), the exact gap
# exceeds 2E, so brute force orders the two the same way; every other point of
# either grid is farther than its grid's decision by more than 2E (above), so
# brute force picks the nearer decision.  Gaps up to _TIE (|y| + 2 sqrt(gamma))
# go to brute force; _TIE = 1e-13 exceeds 128 eps = 2.8e-14 by a factor of 3.
_TIE = 1e-13


def _structured(c: Constellation, shape: tuple):
    """The rounding decision for `shape`, or None where only brute force applies."""
    p, s = shape
    if c.family == PSK:
        return None
    if s == 0:
        return _qam_slice if p % 2 == 0 else _qam_checkerboard
    if p == 0 and s <= c.m - 5:
        return _qam_suffix
    return None


def _known_value(labels: np.ndarray, m: int, shape: tuple) -> np.ndarray:
    """The `shape` = (p, s) known bits of each m-bit label, prefix then suffix bits, MSB-first."""
    p, s = shape
    return ((labels >> (m - p)) << s) | (labels & ((1 << s) - 1))


@lru_cache(maxsize=None)
def _candidates(family: str, m: int, p: int, s: int) -> tuple:
    """Per value of shape (p, s): the labels `_known_value` packs to it, ascending; their points."""
    c = {PSK: build_psk, QAM: build_qam}[family](m)
    values = np.arange(1 << (p + s), dtype=np.int64)[:, None]
    free = np.arange(1 << (m - p - s), dtype=np.int64)
    labels = ((values >> s) << (m - p)) | (free << s) | (values & ((1 << s) - 1))
    return _read_only(labels, c.points[labels])


def _split(v: np.ndarray) -> tuple:
    """Cells floor(v), and which `v` lie within _MARGIN of a cell edge; overwrites `v`."""
    cell = np.floor(v)
    v -= cell
    return cell, (v < _MARGIN) | (v > 1 - _MARGIN)


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _qam_cells(m: int, p: int) -> tuple:
    """Per known prefix value: its coset's labels as a grid, and the axis offsets.

    An even prefix keeps the square grid of stride 2^(p/2) whose least
    coordinates are (a0, b0).  The point of integer coordinates (a, b) sits at
    (a - centre, b - centre) times the spacing, so on the axes shifted by the
    offsets and scaled by 1 / (sqrt(gamma) spacing stride) candidate (i, j)
    owns the cell [i, i + 1) x [j, j + 1).
    """
    c = build_qam(m)
    side, stride = 1 << (m // 2), 1 << (p // 2)
    centre = (side - 1) / 2
    labels, points = _candidates(QAM, m, p, 0)
    a, b = (np.rint(x / c.spacing + centre).astype(np.int64) for x in (points.real, points.imag))
    order = np.lexsort((b, a))  # each coset's labels, by (a, b), fill its grid row by row
    grid = np.take_along_axis(labels, order, axis=1).reshape(len(labels), side // stride, -1)
    a0, b0 = a.min(axis=1), b.min(axis=1)
    return _read_only(grid, (centre - a0) / stride + 0.5, (centre - b0) / stride + 0.5)


def _qam_slice(
    c: Constellation, y: np.ndarray, sqrt_snr: float, shape: tuple, known: np.ndarray
) -> tuple:
    grid, offset_a, offset_b = _qam_cells(c.m, shape[0])
    count = grid.shape[1]
    scale = 1 / (sqrt_snr * c.spacing * (1 << (shape[0] // 2)))
    i, unsure_i = _split(y.real * scale + offset_a[known])
    j, unsure_j = _split(y.imag * scale + offset_b[known])
    i = np.clip(i, 0, count - 1).astype(np.int64)
    j = np.clip(j, 0, count - 1).astype(np.int64)
    return grid[known, i, j], unsure_i | unsure_j


def _qam_checkerboard(
    c: Constellation, y: np.ndarray, sqrt_snr: float, shape: tuple, known: np.ndarray
) -> tuple:
    # the coset of odd prefix v is the union of the even-prefix cosets 2v and
    # 2v + 1, and each grid's slice decision is exact up to the square's edge
    finer = (shape[0] + 1, 0)
    even, unsure_even = _qam_slice(c, y, sqrt_snr, finer, 2 * known)
    odd, unsure_odd = _qam_slice(c, y, sqrt_snr, finer, 2 * known + 1)
    gap = np.abs(y - sqrt_snr * c.points[even])
    gap -= np.abs(y - sqrt_snr * c.points[odd])
    tie = np.abs(gap) <= _TIE * (np.abs(y) + 2 * sqrt_snr)
    # exact ties keep the even grid's decision, the smaller label
    return np.where(gap > 0, odd, even), unsure_even | unsure_odd | tie


def _qam_suffix(
    c: Constellation, y: np.ndarray, sqrt_snr: float, shape: tuple, known: np.ndarray
) -> tuple:
    # the full grid's ML decision is also the subset's when it carries the
    # known suffix; the other symbols go to brute force
    decided, unsure = _qam_slice(c, y, sqrt_snr, (0, 0), 0)
    return decided, unsure | ((decided & ((1 << shape[1]) - 1)) != known)


# E, the float error of brute force's distances, against which every shortcut
# to its decision keeps a margin (`_MARGIN`, `_TIE`, `mc._SCREEN`, `mc._BAND`).
# Brute force computes each |y - sqrt(gamma) x| within
# E = 32 eps (|y| + 2 sqrt(gamma)) of the exact distance (|x| < 2; the points
# carry under 16 eps of error, the scaling, difference and hypot a few eps
# each), so it picks the exact ML decision whenever every other candidate is
# farther by more than 2E.
def _brute_force(
    c: Constellation, y: np.ndarray, sqrt_snr: float, shape: tuple, known: np.ndarray
) -> np.ndarray:
    """ML decisions by distance to every compatible point, `_CHUNK` entries a step.

    Each symbol gathers its own candidate row, labels ascending, so argmin
    picks the smallest label on ties; subtracting in place saves allocating
    a second matrix.
    """
    labels, points = _candidates(c.family, c.m, *shape)
    step = _CHUNK // labels.shape[1]
    scaled = sqrt_snr * points
    decided = np.empty(len(y), dtype=np.int64)
    for start in range(0, len(y), step):
        rows = slice(start, start + step)
        diff = scaled[known[rows]]
        np.subtract(y[rows, None], diff, out=diff)
        decided[rows] = labels[known[rows], np.argmin(np.abs(diff), axis=1)]
    return decided
