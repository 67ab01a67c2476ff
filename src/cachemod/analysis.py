"""Closed-form symbol error bounds and per-user error-rate metrics.

The per-symbol error probability is the classical nearest-neighbor union
bound evaluated at the minimum distance of the subconstellation a user
demodulates over; bounds are clamped to 1 since they are vacuous beyond
that.  Per-user rates weight each useful symbol equally, so a user's
expected error count is a sum over its histogram of known-bit shapes:
S_k = sum over shapes of count x bound(shape, gamma_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caching import (
    PROPOSED,
    ZERO_PADDING,
    DeliveryPlan,
    DemandVector,
    SubfileMap,
    build_delivery_plan,
)
from .errors import ConfigurationError
from .modem import PSK, Constellation, min_distance


@dataclass(frozen=True)
class SnrProfile:
    """Per-user linear SNRs gamma_k."""

    gammas: tuple

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.gammas)
        object.__setattr__(self, "gammas", gammas)
        if any(g <= 0 for g in gammas):
            raise ConfigurationError("SNRs must be positive")

    def gamma(self, user: int) -> float:
        return self.gammas[user - 1]

    @property
    def num_users(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class SerReport:
    """Per-user useful-symbol counts, errored-symbol counts and rates."""

    kind: str  # "analytic" | "empirical"
    useful_symbols: dict  # user -> L_k
    error_symbols: dict  # user -> S_k
    ser: dict  # user -> T_k = S_k / L_k
    average_ser: float
    load: float
    undefined_users: frozenset = frozenset()
    stderr: dict | None = None  # empirical only: per-user standard error
    average_stderr: float | None = None


_erfc_array = np.vectorize(math.erfc, otypes=[float])


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x); arrays map elementwise."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) / math.sqrt(2.0))
    return 0.5 * _erfc_array(np.asarray(x, dtype=float) / math.sqrt(2.0))


def symbol_error_bound(family: str, gamma: float, dmin: float) -> float:
    """Union bound on symbol error for a (sub)constellation of min distance dmin.

    PSK has two nearest neighbors, QAM up to four; both clamp at 1.
    """
    if gamma <= 0 or dmin <= 0:
        raise ConfigurationError("gamma and dmin must be positive")
    neighbors = 2.0 if family == PSK else 4.0
    return min(1.0, neighbors * float(q_function(math.sqrt(gamma / 2.0) * dmin)))


class CellBounds:
    """Union bounds per cell (shape, gamma) of one constellation.

    The constellation fixes (family, m), so a cell is keyed by its known-bit
    shape and SNR.  Each shape's minimum distance is enumerated once and each
    cell's bound evaluated once, however many blocks, users or sweep points
    share them.
    """

    def __init__(self, c: Constellation):
        self.c = c
        self._dmin: dict = {}
        self._bound: dict = {}

    def __call__(self, shape: tuple, gamma: float) -> float:
        key = (shape, gamma)
        if key not in self._bound:
            if shape not in self._dmin:
                self._dmin[shape] = min_distance(self.c, *shape)
            self._bound[key] = symbol_error_bound(self.c.family, gamma, self._dmin[shape])
        return self._bound[key]


def _check_width(plan: DeliveryPlan, c: Constellation):
    if plan.label_len != c.m:
        raise ConfigurationError("plan and constellation disagree on bits per symbol")


def ser_report(
    kind: str, plan: DeliveryPlan, errors: dict, stderr: dict | None = None
) -> SerReport:
    """Per-user rates T_k = S_k / L_k and their average from error counts S_k."""
    users = list(range(1, plan.num_users + 1))
    useful = {u: plan.useful_symbols(u) for u in users}
    undefined = frozenset(u for u in users if useful[u] == 0)
    ser = {u: errors[u] / useful[u] if useful[u] > 0 else 0.0 for u in users}
    return SerReport(
        kind=kind,
        useful_symbols=useful,
        error_symbols=errors,
        ser=ser,
        average_ser=sum(ser.values()) / len(users),
        load=plan.load,
        undefined_users=undefined,
        stderr=stderr,
        average_stderr=None if stderr is None else sum(stderr.values()) / len(users),
    )


def plan_metrics(
    plan: DeliveryPlan, c: Constellation, snr: SnrProfile, bounds: CellBounds | None = None
) -> SerReport:
    """Analytic per-user rates from the plan's shape histograms.

    Pass one CellBounds to share min distances and bounds across calls.
    """
    _check_width(plan, c)
    bounds = bounds or CellBounds(c)
    errors = {}
    for u in range(1, plan.num_users + 1):
        gamma = snr.gamma(u)
        errors[u] = sum(
            (count * bounds(shape, gamma) for shape, count in plan.shape_counts(u).items()),
            0.0,
        )
    return ser_report("analytic", plan, errors)


def block_error_table(plan: DeliveryPlan, c: Constellation, snr: SnrProfile) -> dict:
    """Error-probability bound for every (subset, block, user) a plan serves.

    A per-block view of the same cell bounds `plan_metrics` uses, built by
    walking every block, so its size grows with the library.  Blocks that
    carry no bits for a user are excluded.
    """
    _check_width(plan, c)
    bounds = CellBounds(c)
    table = {}
    for block in plan.iter_blocks():
        for user in block.subset:
            if block.piece_len(user) == 0:
                continue
            shape = block.known_shape(user)
            table[(block.subset, block.block_index, user)] = bounds(shape, snr.gamma(user))
    return table


def user_metrics(plan: DeliveryPlan, table: dict) -> SerReport:
    """Aggregate a block error table into per-user and average symbol error rates."""
    errors = {u: 0.0 for u in range(1, plan.num_users + 1)}
    for (_, _, user), p in table.items():
        errors[user] += p
    return ser_report("analytic", plan, errors)


def analytic_report(
    subfiles: SubfileMap,
    demands: DemandVector,
    scheme: str,
    c: Constellation,
    snr: SnrProfile,
) -> SerReport:
    """Convenience: plan and histogram metrics in one call."""
    plan = build_delivery_plan(subfiles, demands, scheme, c.m)
    return plan_metrics(plan, c, snr)


@dataclass(frozen=True)
class SchemeComparison:
    per_user: dict  # user -> (ser_proposed, ser_zero_padding, delta)
    load_proposed: float
    load_zero_padding: float


def compare_schemes(
    subfiles: SubfileMap, demands: DemandVector, c: Constellation, snr: SnrProfile
) -> SchemeComparison:
    """Analytic per-user comparison of the two padding schemes.

    delta_k = T_k(zero padding) - T_k(proposed) is the per-user gain; the
    symbol-level scheme never does worse.
    """
    reports = {
        scheme: analytic_report(subfiles, demands, scheme, c, snr)
        for scheme in (PROPOSED, ZERO_PADDING)
    }
    rp, rz = reports[PROPOSED], reports[ZERO_PADDING]
    per_user = {
        u: (rp.ser[u], rz.ser[u], rz.ser[u] - rp.ser[u]) for u in sorted(rp.ser)
    }
    return SchemeComparison(
        per_user=per_user, load_proposed=rp.load, load_zero_padding=rz.load
    )
