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
from .bits import bits_to_int, int_to_bits
from .caching import (
    DeliveryPlan,
    DemandVector,
    PlacementRealization,
    decode_block,
    encode_block,
)
from .errors import ConfigurationError
from .modem import Constellation, KnownMask, demodulate, modulate

_CHUNK = 1 << 18  # entries of the trials x candidates distance matrix per step


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


def awgn_channel(x: complex, gamma: float, noise_draw: complex) -> complex:
    """Receive y = sqrt(gamma) * x + noise for unit-total-power complex noise."""
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    return math.sqrt(gamma) * x + noise_draw


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
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
    rng = _cell_rng(cfg.master_seed, cell_id)
    trials = cfg.trials_per_cell
    m = c.m

    labels = rng.integers(0, 1 << m, size=trials, dtype=np.int64)
    noise = rng.normal(0.0, math.sqrt(0.5), size=(trials, 2))
    y = math.sqrt(gamma) * c.points[c._label_to_index[labels]] + (
        noise[:, 0] + 1j * noise[:, 1]
    )

    # group trials by the value of their known bits; each group shares one
    # compatible subconstellation
    free = m - p - s
    lo_mask = (1 << s) - 1
    known = ((labels >> (m - p)) << s) | (labels & lo_mask) if (p or s) else np.zeros_like(labels)
    decided = np.empty(trials, dtype=np.int64)
    for value in range(1 << (p + s)):
        sel = np.nonzero(known == value)[0]
        if sel.size == 0:
            continue
        hi, lo = value >> s, value & lo_mask
        cand_labels = np.sort(
            (hi << (m - p)) | (np.arange(1 << free, dtype=np.int64) << s) | lo
        )  # argmin then favors the smallest label on ties
        cand_points = c.points[c._label_to_index[cand_labels]]
        step = _CHUNK >> free
        for start in range(0, sel.size, step):
            rows = sel[start : start + step]
            d2 = np.abs(y[rows, None] - math.sqrt(gamma) * cand_points[None, :]) ** 2
            decided[rows] = cand_labels[np.argmin(d2, axis=1)]

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
    """Encode, modulate, demodulate with side information and reassemble.

    Runs the whole pipeline over an identity channel and checks that every
    user recovers its demanded file bit-exactly.  Defaults to PSK of the
    plan's label width when no constellation is given.
    """
    if c is None:
        from .modem import build_psk

        c = build_psk(plan.label_len)
    if c.m != plan.label_len:
        raise ConfigurationError("plan and constellation disagree on bits per symbol")
    k = placement.num_users
    demands.validate(placement.library.num_files, k)

    recovered = {u: {} for u in range(1, k + 1)}  # user -> {(file, pos): bit}
    for subset, sched in plan.per_subset.items():
        consumed = {u: 0 for u in subset}
        # subfile payloads in canonical (ascending bit position) order
        positions = {
            u: placement.subfile_positions(demands.file_for(u), subset - {u})
            for u in subset
        }
        payload = {
            u: placement.bit_values[demands.file_for(u) - 1][positions[u]] for u in subset
        }
        for i in range(1, sched.n_blocks + 1):
            block = plan.block(subset, i)
            pieces = {}
            for u in subset:
                n = block.piece_len(u)
                pieces[u] = payload[u][consumed[u] : consumed[u] + n]
                consumed[u] += n
            label_bits = encode_block(block, pieces)
            x = modulate(c, bits_to_int(label_bits))
            y = x  # identity channel

            for u in subset:
                n = block.piece_len(u)
                if n == 0:
                    continue
                others = {v: pieces[v] for v in subset if v != u}
                mask = _receiver_mask(block, u, others)
                got = demodulate(c, y, 1.0, mask)
                piece = decode_block(int_to_bits(got, c.m), block, u, others)
                base = consumed[u] - n
                for j, bit in enumerate(piece):
                    recovered[u][(demands.file_for(u), int(positions[u][base + j]))] = int(bit)

    passed, mismatch = {}, {}
    for u in range(1, k + 1):
        d = demands.file_for(u)
        truth = placement.bit_values[d - 1]
        cached = placement.cached_by[d - 1][u - 1]
        ok = True
        for pos in range(len(truth)):
            if cached[pos]:
                continue  # served straight from the cache
            got = recovered[u].get((d, pos))
            if got != int(truth[pos]):
                ok = False
                mismatch[u] = (d, pos)
                break
        passed[u] = ok
    return EndToEndResult(passed=passed, first_mismatch=mismatch)


def _receiver_mask(block, user: int, other_pieces: dict) -> KnownMask:
    """Known label bits a user can precompute from its cached pieces.

    At a known position the receiver's own piece contributes nothing, so the
    label bit there equals the XOR of the other users' (zero-extended)
    pieces.
    """
    prefix, suffix = block.known_shape(user)
    xor_others = np.zeros(block.label_len, dtype=np.uint8)
    for other, piece in other_pieces.items():
        start = block.piece_start(other)
        xor_others[start : start + len(piece)] ^= piece
    tail = xor_others[block.label_len - suffix :] if suffix else np.zeros(0, dtype=np.uint8)
    return KnownMask(prefix, suffix, np.concatenate([xor_others[:prefix], tail]))
