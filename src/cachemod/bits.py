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

