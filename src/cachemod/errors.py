"""The package's exception type, and the input rules every public entry point reads through.

Each rule is stated once, here.  Bools are never numbers, and nothing is coerced.
"""

import math
import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid scenario or operation inputs (bad sizes, duplicate demands, ...)."""


def reals(values, what: str) -> tuple:
    """`values` as a tuple of Python floats; bools and non-real entries are rejected."""
    values = tuple(values)
    for v in values:  # float and int first: the `numbers.Real` check takes some 0.5 us
        if isinstance(v, bool) or not isinstance(v, (float, int, numbers.Real)):
            raise ConfigurationError(f"{what} must be real numbers, not {values!r}")
    return tuple(map(float, values))


def positive(values, what: str) -> tuple:
    """`reals`, each positive and finite (`not 0 < v < inf` also rejects NaN)."""
    values = reals(values, what)
    for v in values:
        if not 0 < v < math.inf:
            raise ConfigurationError(f"{what} must be positive and finite, not {values!r}")
    return values


def integer(value, what: str, lo=-math.inf, hi=math.inf) -> int:
    """`value` as a Python int: a Python or numpy int, not a bool, in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, not {value!r}")
    if not lo <= value <= hi:
        raise ConfigurationError(f"{what} {value} outside {lo}..{hi}")
    return int(value)


def seed(value, what: str) -> int:
    """`value`, a Python int in [0, 2**64): not None (fresh OS entropy), nor a numpy int."""
    if type(value) is not int or not 0 <= value < 2**64:
        raise ConfigurationError(f"{what} must be an integer in [0, 2**64), not {value!r}")
    return value


def whole(values, what: str, hi: int) -> np.ndarray:
    """`values` as an int64 array of whole numbers in [0, hi); fractions are not truncated."""
    values = np.asarray(values)
    kind = values.dtype.kind  # integer arrays skip the scan for fractions
    fractionless = kind in "iu" or kind == "f" and (values == np.trunc(values)).all()
    if not fractionless or values.size and (values.min() < 0 or values.max() >= hi):
        raise ConfigurationError(f"{what} must be whole numbers in [0, {hi})")
    return values.astype(np.int64, copy=False)
