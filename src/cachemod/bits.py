"""Small helpers for MSB-first bit strings stored as uint8 arrays."""

import numpy as np


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
