"""Small helpers for MSB-first bit strings stored as uint8 arrays."""

import numpy as np


def int_to_bits(value: int, width: int) -> np.ndarray:
    """MSB-first bit array of `value`, `width` bits wide."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - j)) & 1 for j in range(width)], dtype=np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    """Integer value of an MSB-first bit array."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def rows_to_ints(bits: np.ndarray) -> np.ndarray:
    """Integer value of each MSB-first row of a (count, width) bit array."""
    shifts = np.arange(bits.shape[-1] - 1, -1, -1)
    return (bits.astype(np.int64) << shifts).sum(axis=-1)


def ints_to_rows(values: np.ndarray, width: int) -> np.ndarray:
    """MSB-first (count, width) bit rows of non-negative integer values."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(values)[:, None] >> shifts) & 1).astype(np.uint8)


def as_bits(bits) -> np.ndarray:
    """Coerce a 0/1 sequence (list, string, array) to a uint8 bit array."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or np.any(arr > 1):
        raise ValueError("bit strings must be one-dimensional and contain only 0/1")
    return arr
