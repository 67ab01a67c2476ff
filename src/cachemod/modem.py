"""Unit-energy PSK/QAM constellations with set-partitioning labels.

The labelings are chosen so that fixing the first n label bits (most
significant first) selects a subconstellation whose minimum distance grows
geometrically: 2 sin(pi / 2^(m-n)) for PSK, (sqrt 2)^n * d for square QAM.
Receivers that know a label prefix therefore demodulate over a sparser,
more robust point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bits import as_bits, bits_to_int
from .errors import ConfigurationError

PSK = "psk"
QAM = "qam"

_CHUNK = 1 << 18  # entries of the symbols x candidates distance matrix per step


@dataclass(frozen=True)
class KnownMask:
    """Label positions (a prefix and/or a suffix) whose values a receiver knows."""

    prefix_known: int
    suffix_known: int
    known_values: np.ndarray  # prefix bits then suffix bits, MSB-first

    def __post_init__(self):
        object.__setattr__(self, "known_values", as_bits(self.known_values))
        if self.prefix_known < 0 or self.suffix_known < 0:
            raise ConfigurationError("known-bit counts must be non-negative")
        if len(self.known_values) != self.prefix_known + self.suffix_known:
            raise ConfigurationError("known_values length must equal prefix + suffix counts")

    @property
    def known_count(self) -> int:
        return self.prefix_known + self.suffix_known


def empty_mask() -> KnownMask:
    return KnownMask(0, 0, np.zeros(0, dtype=np.uint8))


@dataclass(frozen=True)
class Constellation:
    """2^m unit-average-energy points with a set-partitioning bit labeling."""

    family: str
    m: int
    points: np.ndarray  # complex, indexed by point index
    labels: np.ndarray  # point index -> integer label
    spacing: float  # native grid spacing d (QAM); unit-circle scale for PSK

    def __post_init__(self):
        self.points.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def size(self) -> int:
        return 1 << self.m

    def point_of_label(self, label: int) -> complex:
        if label < 0 or label >= self.size:
            raise ConfigurationError(f"label {label} out of range for m={self.m}")
        return complex(self.points[self._label_to_index[label]])

    @cached_property
    def _label_to_index(self) -> np.ndarray:
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.labels] = np.arange(self.size)
        return inv


def _bit_reverse(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@lru_cache(maxsize=None)
def build_psk(m: int) -> Constellation:
    """2^m-PSK on the unit circle; label of point k is the bit-reversal of k.

    Fixing the first n label bits then keeps every 2^n-th point, which is
    exactly the set-partitioning chain for PSK.
    """
    if not 1 <= m <= 8:
        raise ConfigurationError("PSK supports 1 <= m <= 8")
    n = 1 << m
    points = np.exp(2j * np.pi * np.arange(n) / n)
    labels = np.array([_bit_reverse(k, m) for k in range(n)], dtype=np.int64)
    return Constellation(family=PSK, m=m, points=points, labels=labels, spacing=1.0)


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


@lru_cache(maxsize=None)
def build_qam(m: int) -> Constellation:
    """Square 2^m-QAM carved from the odd-integer grid, unit average energy."""
    if m % 2 != 0:
        raise ConfigurationError("QAM requires even m (square constellations only)")
    if not 2 <= m <= 8:
        raise ConfigurationError("QAM supports 2 <= m <= 8")
    side = 1 << (m // 2)
    coords = [(a, b) for a in range(side) for b in range(side)]
    raw = np.array([(2 * a - (side - 1)) + 1j * (2 * b - (side - 1)) for a, b in coords])
    scale = math.sqrt(float(np.mean(np.abs(raw) ** 2)))
    points = raw / scale
    labels = np.array([_qam_label(a, b, m) for a, b in coords], dtype=np.int64)
    return Constellation(family=QAM, m=m, points=points, labels=labels, spacing=2.0 / scale)


def build_constellation(family: str, m: int) -> Constellation:
    if family == PSK:
        return build_psk(m)
    if family == QAM:
        return build_qam(m)
    raise ConfigurationError(f"unknown constellation family {family!r}")


def _compatible(c: Constellation, mask: KnownMask) -> np.ndarray:
    p, s = mask.prefix_known, mask.suffix_known
    if p + s > c.m:
        raise ConfigurationError("mask cannot cover more than m bits")
    prefix = bits_to_int(mask.known_values[:p]) if p else 0
    suffix = bits_to_int(mask.known_values[p:]) if s else 0
    lab = c.labels
    ok = np.ones(c.size, dtype=bool)
    if p:
        ok &= (lab >> (c.m - p)) == prefix
    if s:
        ok &= (lab & ((1 << s) - 1)) == suffix
    return np.nonzero(ok)[0]


def subconstellation(c: Constellation, mask: KnownMask) -> np.ndarray:
    """Point indices compatible with the mask, sorted by label value."""
    idx = _compatible(c, mask)
    return idx[np.argsort(c.labels[idx])]


def min_distance(c: Constellation, prefix_known: int, suffix_known: int = 0) -> float:
    """Minimum pairwise distance of the masked subconstellation, by enumeration.

    Reported as the minimum over every assignment of the known bits; for
    set-partitioning labels and prefix masks all assignments agree.
    """
    p, s = prefix_known, suffix_known
    if p < 0 or s < 0 or p + s > c.m:
        raise ConfigurationError("invalid mask counts")
    if p + s > c.m - 1:
        raise ConfigurationError("subconstellation has fewer than 2 points")
    best = math.inf
    for value in range(1 << (p + s)):
        mask = KnownMask(p, s, [int(b) for b in format(value, f"0{p + s}b")] if p + s else [])
        pts = c.points[_compatible(c, mask)]
        diff = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diff, np.inf)
        best = min(best, float(diff.min()))
    return best


def modulate(c: Constellation, label) -> complex:
    """Constellation point carrying the given label (int or bit string)."""
    if not isinstance(label, (int, np.integer)):
        label = bits_to_int(as_bits(label))
    return c.point_of_label(int(label))


def detect(
    c: Constellation, y: np.ndarray, sqrt_snr: float, shape: tuple, known: np.ndarray
) -> np.ndarray:
    """Batched ML detection of labels with known-bit `shape` = (prefix, suffix).

    `known[i]` holds received symbol `y[i]`'s known label bits packed MSB-first,
    prefix bits then suffix bits.  Each symbol is decided over its compatible
    subconstellation by minimizing |y - sqrt(gamma) x|; exact ties resolve to
    the numerically smallest label, as in `demodulate`, the scalar oracle.
    """
    p, s = shape
    if p < 0 or s < 0 or p + s > c.m:
        raise ConfigurationError("invalid mask shape")
    if not 0 < sqrt_snr < math.inf:
        raise ConfigurationError("sqrt_snr must be positive and finite")
    y, known = np.asarray(y), np.asarray(known, dtype=np.int64)
    if y.ndim != 1 or known.shape != y.shape:
        raise ConfigurationError("y and known must be 1-D with one entry per symbol")
    if known.size and (known.min() < 0 or known.max() >= 1 << (p + s)):
        raise ConfigurationError("known values exceed the mask width")
    m, free = c.m, c.m - p - s
    step = _CHUNK >> free
    decided = np.empty(len(y), dtype=np.int64)
    # group symbols by the value of their known bits; each group shares one
    # compatible subconstellation
    for value in np.flatnonzero(np.bincount(known)).tolist():
        sel = np.nonzero(known == value)[0]
        hi, lo = value >> s, value & ((1 << s) - 1)
        # ascending labels, so argmin favors the smallest label on ties
        cand_labels = (hi << (m - p)) | (np.arange(1 << free, dtype=np.int64) << s) | lo
        cand_points = c.points[c._label_to_index[cand_labels]]
        for start in range(0, sel.size, step):
            rows = sel[start : start + step]
            d2 = np.abs(y[rows, None] - sqrt_snr * cand_points[None, :]) ** 2
            decided[rows] = cand_labels[np.argmin(d2, axis=1)]
    return decided


def demodulate(c: Constellation, y: complex, sqrt_snr: float, mask: KnownMask) -> int:
    """ML detection of the label over the mask-compatible subconstellation.

    Minimizes |y - sqrt(gamma) x| over compatible points; exact ties resolve
    to the numerically smallest label.  Brute force, one symbol at a time: the
    oracle `detect` is tested against.
    """
    if sqrt_snr <= 0:
        raise ConfigurationError("sqrt_snr must be positive")
    idx = subconstellation(c, mask)  # label-sorted, so argmin favors small labels
    d2 = np.abs(y - sqrt_snr * c.points[idx]) ** 2
    return int(c.labels[idx[int(np.argmin(d2))]])
