"""Closed-form symbol error bounds and per-user error-rate metrics.

The per-symbol error probability is the classical nearest-neighbor union
bound evaluated at the minimum distance of the subconstellation a user
demodulates over; bounds are clamped to 1 since they are vacuous beyond
that.  Per-user rates weight each useful symbol equally, so a user's
expected error count is a sum over its counts of known-bit shapes:
S_k = sum over shapes of count x value(shape, gamma_k), where the value of a
cell comes from one memoised `CellTable` (union bounds here, Monte Carlo
estimates in `mc`) and `ser_report` is the one place that sum is taken.
"""

from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple

from .caching import DeliveryPlan
from .errors import ConfigurationError, positive
from .modem import PSK, Constellation, check_family, min_distance


class SerReport(NamedTuple):
    """Per-user useful-symbol counts and rates (0 for a user with no useful symbols)."""

    useful_symbols: dict  # user -> L_k
    ser: dict  # user -> T_k = S_k / L_k
    average_ser: float
    stderr: dict  # user -> standard error of T_k (0 for bounds)
    average_stderr: float


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


def symbol_error_bound(family: str, gamma: float, dmin: float) -> float:
    """Union bound on symbol error for a (sub)constellation of min distance dmin.

    PSK has two nearest neighbors, QAM up to four; both clamp at 1.
    """
    neighbors = 2.0 if check_family(family) == PSK else 4.0
    gamma, dmin = positive((gamma, dmin), "gamma and dmin")
    return min(1.0, neighbors * q_function(math.sqrt(gamma / 2.0) * dmin))


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class CellTable:
    """Memoised (ser, std_error) per cell (shape, gamma) of one constellation.

    The constellation fixes (family, m), so a cell is keyed by its known-bit
    shape and SNR.  `evaluate(shape, gamma)` runs once per distinct cell,
    however many users, schemes or sweep points read it: on its first read,
    or ahead of the reads in `fill`, which spreads the cells over threads.  A
    value depends only on its key, not on the thread that computes it.
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

    def fill(self, cells) -> None:
        """Evaluate each (shape, gamma) of `cells` that the table lacks, one thread per usable CPU.

        The caller and its helper threads pull cells from one shared iterator; the
        first exception stops them all and is re-raised here once all are joined.
        """
        missing = [key for key in dict.fromkeys(cells) if key not in self._cells]
        todo, lock, done, failed, stop = iter(missing), threading.Lock(), {}, [], threading.Event()

        def work():
            try:
                while not stop.is_set():
                    with lock:
                        key = next(todo, None)
                    if key is None:
                        return
                    done[key] = self._evaluate(*key)
            except BaseException as exc:  # re-raised in the caller below
                failed.append(exc)
                stop.set()

        helpers = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), len(missing)) - 1)]
        try:
            for t in helpers:
                t.start()
            work()
        finally:
            stop.set()  # also when the caller is interrupted outside a cell
            for t in helpers:
                if t.ident is not None:  # started
                    t.join()
        self._cells.update(done)
        if failed:
            raise failed[0]


def bound_table(c: Constellation) -> CellTable:
    """Union bounds per cell, std_error 0.

    A table asks `min_distance` once per shape, however many γ read it;
    `modem`'s cache enumerates each (family, m, shape) once, however many
    tables ask.
    """
    dmins: dict = {}  # shape -> its min distance

    def bound(shape: tuple, gamma: float) -> tuple:
        if shape not in dmins:
            dmins[shape] = min_distance(c, *shape)
        return symbol_error_bound(c.family, gamma, dmins[shape]), 0.0

    return CellTable(c, bound)


def ser_report(plan: DeliveryPlan, gammas, cells: CellTable) -> SerReport:
    """Per-user rates from the plan's known-bit counts, one SNR per user and one cell table.

    `gammas` holds the K linear SNRs gamma_1..gamma_K, read by `errors.positive`.  User k's
    counts are row k - 1 of `plan.known_counts` over `plan.shapes`, summing to L_k;
    S_k = sum of count x cell ser over them, T_k = S_k / L_k.  Cell standard errors add in
    quadrature, so the standard error of T_k is sqrt(sum of (count x std_error)^2) / L_k.
    Both sums are exactly rounded (`math.fsum`), so they do not depend on the order of the shapes.
    The users at one SNR share their cells: each column some user there counts is read once.
    """
    gammas = positive(gammas, "SNRs")
    plan.check_constellation(cells.c)
    if len(gammas) != plan.num_users:
        raise ConfigurationError(f"{len(gammas)} SNRs for a plan of {plan.num_users} users")
    rows = plan.known_counts.tolist()
    values = {}  # gamma -> {column a user at gamma counts: its cell's (ser, std_error)}
    for row, gamma in zip(rows, gammas):
        at = values.setdefault(gamma, {})
        for j, count in enumerate(row):
            if count and j not in at:
                at[j] = cells(plan.shapes[j], gamma)
    useful, ser, stderr = {}, {}, {}
    for u, (row, gamma) in enumerate(zip(rows, gammas), start=1):
        useful[u] = sum(row)
        at = values[gamma]
        terms = [(count, *at[j]) for j, count in enumerate(row) if count]
        errors = math.fsum(count * cell_ser for count, cell_ser, _ in terms)
        var = math.fsum((count * std_error) ** 2 for count, _, std_error in terms)
        # a mean of values in [0, 1], clamped: past 2**53 symbols rounding can pass 1
        ser[u] = min(1.0, errors / useful[u]) if useful[u] > 0 else 0.0
        stderr[u] = math.sqrt(var) / useful[u] if useful[u] > 0 else 0.0
    return SerReport(
        useful_symbols=useful,
        ser=ser,
        average_ser=sum(ser.values()) / plan.num_users,
        stderr=stderr,
        average_stderr=sum(stderr.values()) / plan.num_users,
    )
