"""Closed-form symbol error bounds and per-user error-rate metrics.

The per-symbol error probability is the classical nearest-neighbor union
bound evaluated at the minimum distance of the subconstellation a user
demodulates over; bounds are clamped to 1 since they are vacuous beyond
that.  Per-user rates weight each useful symbol equally, so a user's
expected error count is a sum over its histogram of known-bit shapes:
S_k = sum over shapes of count x value(shape, gamma_k), where the value of a
cell comes from one memoised `CellTable` (union bounds here, Monte Carlo
estimates in `mc`) and `ser_report` is the one place that sum is taken.
"""

from __future__ import annotations

import functools
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
        if not all(0 < g < math.inf for g in gammas):
            raise ConfigurationError("SNRs must be positive and finite")

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
    undefined_users: frozenset
    stderr: dict  # user -> standard error of T_k (0 for bounds)
    average_stderr: float


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
    if not 0 < gamma < math.inf or dmin <= 0:
        raise ConfigurationError("gamma must be positive and finite and dmin positive")
    neighbors = 2.0 if family == PSK else 4.0
    return min(1.0, neighbors * float(q_function(math.sqrt(gamma / 2.0) * dmin)))


class CellTable:
    """Memoised (ser, std_error) per cell (shape, gamma) of one constellation.

    The constellation fixes (family, m), so a cell is keyed by its known-bit
    shape and SNR.  `evaluate(shape, gamma)` runs once per distinct cell,
    however many users, schemes or sweep points read it.
    """

    def __init__(self, c: Constellation, evaluate):
        self.c = c
        self._evaluate = evaluate
        self._cells: dict = {}

    def __call__(self, shape: tuple, gamma: float) -> tuple:
        key = (shape, gamma)
        if key not in self._cells:
            self._cells[key] = self._evaluate(shape, gamma)
        return self._cells[key]


def bound_table(c: Constellation) -> CellTable:
    """Union bounds per cell; each shape's minimum distance is enumerated once."""

    @functools.cache
    def dmin(shape: tuple) -> float:
        return min_distance(c, *shape)

    def bound(shape: tuple, gamma: float) -> tuple:
        return symbol_error_bound(c.family, gamma, dmin(shape)), 0.0

    return CellTable(c, bound)


def ser_report(kind: str, plan: DeliveryPlan, snr: SnrProfile, cells: CellTable) -> SerReport:
    """Per-user rates from the plan's shape histograms and one cell table.

    S_k = sum over user k's histogram of count x cell ser, T_k = S_k / L_k;
    cell standard errors add in quadrature, so the standard error of T_k is
    sqrt(sum of (count x std_error)^2) / L_k.
    """
    if plan.label_len != cells.c.m:
        raise ConfigurationError("plan and constellation disagree on bits per symbol")
    users = list(range(1, plan.num_users + 1))
    useful = {u: plan.useful_symbols(u) for u in users}
    errors, ser, stderr = {}, {}, {}
    for u in users:
        gamma = snr.gamma(u)
        s_k = 0.0
        var = 0.0
        for shape, count in plan.shape_counts(u).items():
            cell_ser, std_error = cells(shape, gamma)
            s_k += count * cell_ser
            var += (count * std_error) ** 2
        errors[u] = s_k
        ser[u] = s_k / useful[u] if useful[u] > 0 else 0.0
        stderr[u] = math.sqrt(var) / useful[u] if useful[u] > 0 else 0.0
    return SerReport(
        kind=kind,
        useful_symbols=useful,
        error_symbols=errors,
        ser=ser,
        average_ser=sum(ser.values()) / len(users),
        load=plan.load,
        undefined_users=frozenset(u for u in users if useful[u] == 0),
        stderr=stderr,
        average_stderr=sum(stderr.values()) / len(users),
    )


def plan_metrics(
    plan: DeliveryPlan, c: Constellation, snr: SnrProfile, bounds: CellTable | None = None
) -> SerReport:
    """Analytic per-user rates; pass one `bound_table(c)` to share it across calls."""
    return ser_report("analytic", plan, snr, bound_table(c) if bounds is None else bounds)


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
