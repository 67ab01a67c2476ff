"""Seeded Monte Carlo SER estimation and noiseless end-to-end checks.

Estimation runs per *cell*: all useful symbols sharing a known-bit shape and
an SNR have identical error statistics (labels are i.i.d. uniform once the
subfile bits are random), so each cell is sampled once per `estimate_table`
and reused by every user, plan and SNR point that reads it.  Every cell
draws from its own RNG substream derived from (master seed, cell key), which
keeps campaigns reproducible regardless of evaluation order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .analysis import CellTable, SerReport, SnrProfile, ser_report
from .bits import ints_to_rows, rows_to_ints
from .caching import (
    DeliveryPlan,
    DemandVector,
    PlacementRealization,
    decode_block,
    encode_block,
)
from .errors import ConfigurationError
from .modem import Constellation, _known_value, detect


@dataclass(frozen=True)
class CampaignConfig:
    """Trial budget and master seed of a Monte Carlo campaign."""

    trials_per_cell: int
    master_seed: int = 0

    def __post_init__(self):
        if self.trials_per_cell < 1:
            raise ConfigurationError("trials_per_cell must be >= 1")


@dataclass(frozen=True)
class CellEstimate:
    """Empirical SER of one (mask shape, SNR) cell."""

    ser: float
    std_error: float
    trials: int


def _cell_rng(master_seed: int, cell_id: str) -> np.random.Generator:
    digest = hashlib.sha256(cell_id.encode()).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in (0, 8, 16, 24)]
    return np.random.default_rng(np.random.SeedSequence([master_seed & (2**64 - 1), *words]))


def estimate_cell_ser(
    c: Constellation,
    shape: tuple,
    gamma: float,
    cfg: CampaignConfig,
    cell_id: str,
) -> CellEstimate:
    """Monte Carlo SER for symbols whose labels have `shape` known bits.

    Each trial draws a uniform m-bit label, reveals the masked positions to
    the demodulator, sends the point over the AWGN channel and checks the ML
    decision over the compatible subconstellation.
    """
    p, s = shape
    if p < 0 or s < 0 or p + s > c.m:
        raise ConfigurationError("invalid mask shape")
    if not 0 < gamma < math.inf:
        raise ConfigurationError("gamma must be positive and finite")
    rng = _cell_rng(cfg.master_seed, cell_id)
    trials = cfg.trials_per_cell
    sqrt_gamma = math.sqrt(gamma)

    labels = rng.integers(0, 1 << c.m, size=trials, dtype=np.int64)
    # the same draws as rng.normal(0, sqrt(1/2), (trials, 2)) read as
    # (real, imag) pairs, built in place
    noise = rng.standard_normal((trials, 2))
    noise *= math.sqrt(0.5)
    y = noise.view(np.complex128)[:, 0]
    y += sqrt_gamma * c.points[c._label_to_index[labels]]
    decided = detect(c, y, sqrt_gamma, shape, _known_value(labels, c.m, shape))

    errors = int(np.count_nonzero(decided != labels))
    ser = errors / trials
    return CellEstimate(
        ser=ser, std_error=math.sqrt(ser * (1.0 - ser) / trials), trials=trials
    )


def _cell_key(c: Constellation, shape: tuple, gamma: float) -> str:
    return f"{c.family}:m{c.m}:p{shape[0]}:s{shape[1]}:g{gamma!r}"


def estimate_table(c: Constellation, cfg: CampaignConfig) -> CellTable:
    """Monte Carlo estimates per cell, each from its own (master seed, cell key) substream."""

    def estimate(shape: tuple, gamma: float) -> tuple:
        est = estimate_cell_ser(c, shape, gamma, cfg, _cell_key(c, shape, gamma))
        return est.ser, est.std_error

    return CellTable(c, estimate)


def run_campaign(
    plan: DeliveryPlan,
    c: Constellation,
    snr: SnrProfile,
    cfg: CampaignConfig,
    estimates: CellTable | None = None,
) -> SerReport:
    """Empirical per-user symbol error rates for one delivery plan.

    Pass one `estimate_table(c, cfg)` to share cells across plans and SNR
    points; a cell's value depends only on its key and the master seed, so
    sharing changes no number.
    """
    cells = estimate_table(c, cfg) if estimates is None else estimates
    return ser_report("empirical", plan, snr, cells)


@dataclass(frozen=True)
class EndToEndResult:
    passed: dict  # user -> bool
    first_mismatch: dict  # user -> (file, bit position) for failures

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def end_to_end_noiseless(
    placement: PlacementRealization,
    plan: DeliveryPlan,
    demands: DemandVector,
    c: Constellation | None = None,
) -> EndToEndResult:
    """Encode, modulate, detect with side information and reassemble.

    Runs the whole pipeline over an identity channel and checks that every
    user recovers its demanded file bit-exactly.  Works on the plan's block
    runs, so each step handles a whole run of blocks as arrays.  Defaults to
    PSK of the plan's label width when no constellation is given.
    """
    if c is None:
        from .modem import build_psk

        c = build_psk(plan.label_len)
    if c.m != plan.label_len:
        raise ConfigurationError("plan and constellation disagree on bits per symbol")
    k = placement.num_users
    demands.validate(placement.library.num_files, k)
    files = {u: demands.file_for(u) for u in range(1, k + 1)}

    # each user's demanded file as recovered; 2 marks a bit never recovered
    recovered = {
        u: np.full(len(placement.bit_values[d - 1]), 2, np.uint8) for u, d in files.items()
    }
    for subset in plan.per_subset:
        # subfile payloads in canonical (ascending bit position) order
        positions = {u: placement.subfile_positions(files[u], subset - {u}) for u in subset}
        payload = {u: placement.bit_values[files[u] - 1][positions[u]] for u in subset}
        taken = dict.fromkeys(subset, 0)
        for block, count in plan.block_runs(subset):
            pieces, spans = {}, {}
            for u in subset:
                spans[u] = slice(taken[u], taken[u] + count * block.piece_len(u))
                taken[u] = spans[u].stop
                pieces[u] = payload[u][spans[u]].reshape(count, block.piece_len(u))
            labels = rows_to_ints(encode_block(block, pieces))
            y = c.points[c._label_to_index[labels]]  # modulated; the channel is the identity

            for u in subset:
                if block.piece_len(u) == 0:
                    continue
                # at a known position the receiver's own piece contributes
                # nothing, so the label bit there is the XOR of the others'
                others = {v: pieces[v] for v in subset if v != u}
                xor_others = encode_block(block, {**others, u: np.zeros_like(pieces[u])})
                shape = block.known_shape(u)
                got = detect(c, y, 1.0, shape, _known_value(rows_to_ints(xor_others), c.m, shape))
                piece = decode_block(ints_to_rows(got, c.m), block, u, others)
                recovered[u][positions[u][spans[u]]] = piece.reshape(-1)

    passed, mismatch = {}, {}
    for u, d in files.items():
        uncached = ~placement.cached_by[d - 1][u - 1]
        wrong = np.flatnonzero(uncached & (recovered[u] != placement.bit_values[d - 1]))
        passed[u] = wrong.size == 0
        if wrong.size:
            mismatch[u] = (d, int(wrong[0]))
    return EndToEndResult(passed=passed, first_mismatch=mismatch)
