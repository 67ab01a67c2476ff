"""Scenario configuration, SNR sweeps and CSV emission.

``cachemod run --config scenario.json`` sweeps both padding schemes over an
SNR grid, computing analytic bounds and (optionally) Monte Carlo estimates,
and writes one CSV row per (snr, scheme, user) plus an average row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

from .analysis import bound_table, ser_report
from .caching import (
    SCHEMES,
    CacheProfile,
    DemandVector,
    Library,
    build_delivery_plan,
    check_scheme,
    check_subfile_map_size,
    expected_subfile_lengths,
)
from .errors import ConfigurationError, integer, seed
from .mc import estimate_table
from .modem import Constellation, build_constellation

DEFAULT_SWEEP = {"start_db": 0.0, "stop_db": 20.0, "step_db": 2.0}
DEFAULT_TRIALS = 100_000
MAX_SWEEP_POINTS = 10_000  # each point plans and evaluates every scheme

CSV_HEADER = "snr_db,scheme,user,L_k,analytic_T,mc_T,mc_stderr,load_R"


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario, as `parse_config` returns it."""

    mus: tuple
    user_snr_db: tuple  # per-user fixed dB, None = follow the sweep
    file_fractions: tuple
    total_bits: int
    family: str
    m: int
    schemes: tuple
    demands: tuple  # resolved to explicit 1-based file indices
    sweep_db: tuple
    trials_per_cell: int
    master_seed: int
    output: str | None = None


def _require_keys(obj: dict, allowed: set, context: str):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{context} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigurationError(f"unknown field(s) in {context}: {', '.join(sorted(unknown))}")


def _read(convert, value, field: str):
    """A JSON number as `convert` (int or float), reporting any other value against its field.

    Bools and strings are not numbers, floats must be finite, and an int field
    takes integral values only (27000 or 27000.0, not 27000.7).
    """
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("not a number")
        result = convert(value)
        if isinstance(result, float) and not math.isfinite(result):
            raise ValueError("not finite")
        if convert is int and result != value:
            raise ValueError("not an integer")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{field} has an invalid value {value!r}") from exc
    return result


def _gamma(snr_db: float) -> float:
    """Linear SNR of a dB value, as the sweep computes it."""
    return 10.0 ** (snr_db / 10.0)


def _read_db(value, field: str) -> float:
    """A dB value whose linear SNR is a finite positive float."""
    db = _read(float, value, field)
    try:
        if _gamma(db) > 0.0:
            return db
    except OverflowError:
        pass
    raise ConfigurationError(f"{field} of {db!r} dB has no finite positive linear SNR")


def _read_trials(value) -> int:
    return integer(_read(int, value, "trials_per_cell"), "trials_per_cell", 0)


def _read_seed(value) -> int:
    return seed(_read(int, value, "master_seed"), "master_seed")


def _require_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{field} must be a list")
    return value


def _grid(sweep: dict) -> tuple:
    start, stop, step = sweep["start_db"], sweep["stop_db"], sweep["step_db"]
    if step <= 0:
        raise ConfigurationError("sweep step_db must be positive")
    if stop < start:
        raise ConfigurationError("sweep stop_db must be >= start_db")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also catches an infinite span from a tiny step
        raise ConfigurationError(
            f"sweep step_db {step!r} gives more than {MAX_SWEEP_POINTS} SNR points"
        )
    grid = tuple(start + i * step for i in range(int(span) + 1))
    if len({_fmt(db) for db in grid}) < len(grid):  # the printed SNR keys each CSV row
        raise ConfigurationError(
            f"sweep step_db {step!r} is finer than the CSV prints: SNR points would print alike"
        )
    return grid


def _resolve_demands(requested, fractions, num_users) -> tuple:
    if requested == "worst_case":
        if len(fractions) < num_users:
            raise ConfigurationError("worst_case demands need at least K files")
        order = sorted(range(len(fractions)), key=lambda i: (-fractions[i], i))
        return tuple(order[u] + 1 for u in range(num_users))
    demands = tuple(_read(int, d, "demands") for d in _require_list(requested, "demands"))
    if len(demands) != num_users:
        raise ConfigurationError("demands must list one file per user")
    return demands


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    _require_keys(
        raw,
        {
            "users",
            "files",
            "total_bits",
            "modulation",
            "schemes",
            "demands",
            "sweep",
            "trials_per_cell",
            "master_seed",
            "output",
        },
        "config",
    )
    for key in ("users", "files", "total_bits", "modulation"):
        if key not in raw:
            raise ConfigurationError(f"missing required field {key!r}")
    output = raw.get("output")
    if "output" in raw and not (isinstance(output, str) and output):
        raise ConfigurationError(f"output must be a non-empty file path, not {output!r}")

    users = raw["users"]
    if not isinstance(users, list) or not users:
        raise ConfigurationError("users must be a non-empty list")
    mus, user_snr = [], []
    for idx, u in enumerate(users, start=1):
        _require_keys(u, {"mu", "snr_db"}, f"user {idx}")
        if "mu" not in u:
            raise ConfigurationError(f"user {idx} is missing 'mu'")
        mus.append(_read(float, u["mu"], f"user {idx} mu"))
        user_snr.append(_read_db(u["snr_db"], f"user {idx} snr_db") if "snr_db" in u else None)
    caches = CacheProfile(tuple(mus))  # validates range and ordering

    fractions = tuple(_read(float, f, "files") for f in _require_list(raw["files"], "files"))
    total_bits = _read(int, raw["total_bits"], "total_bits")
    library = Library(fractions, total_bits)
    check_subfile_map_size(library.num_files, caches.num_users)

    mod = raw["modulation"]
    _require_keys(mod, {"family", "m"}, "modulation")
    family = str(mod.get("family", "")).lower()
    m = _read(int, mod.get("m", 0), "modulation m")
    build_constellation(family, m)  # validates the family, and m for it

    schemes = tuple(_require_list(raw.get("schemes", list(SCHEMES)), "schemes"))
    for s in schemes:
        check_scheme(s)
    if not schemes:
        raise ConfigurationError("at least one scheme required")
    if len(set(schemes)) != len(schemes):
        raise ConfigurationError("duplicate schemes are not supported")

    demands = _resolve_demands(raw.get("demands", "worst_case"), fractions, len(mus))
    DemandVector(demands).validate(library.num_files, caches.num_users)

    sweep = dict(DEFAULT_SWEEP)
    if "sweep" in raw:
        _require_keys(raw["sweep"], set(DEFAULT_SWEEP), "sweep")
        sweep.update({k: _read(float, v, f"sweep {k}") for k, v in raw["sweep"].items()})
    for key in ("start_db", "stop_db"):
        _read_db(sweep[key], f"sweep {key}")
    grid = _grid(sweep)

    trials = _read_trials(raw.get("trials_per_cell", DEFAULT_TRIALS))
    seed = _read_seed(raw.get("master_seed", 0))
    if "master_seed" not in raw:
        import logging  # loaded only to log, so `import cachemod.cli` leaves it out
        logging.getLogger("cachemod").info("no master_seed in config; defaulting to 0")

    return ScenarioConfig(
        mus=tuple(mus),
        user_snr_db=tuple(user_snr),
        file_fractions=fractions,
        total_bits=total_bits,
        family=family,
        m=m,
        schemes=schemes,
        demands=demands,
        sweep_db=grid,
        trials_per_cell=trials,
        master_seed=seed,
        output=output,
    )


class ResultRow(NamedTuple):
    """One CSV row: a user's (or the average's) rates at one SNR point and scheme."""

    snr_db: float
    scheme: str
    user: str  # "1".."K" or "avg"
    useful: int
    analytic_ser: float
    mc_ser: float | None
    mc_stderr: float | None
    load: float


class Scenario(NamedTuple):
    """What a run evaluates, as `prepare` builds it from a parsed config."""

    constellation: Constellation
    plans: dict  # scheme -> DeliveryPlan
    profiles: list  # per sweep point, each user's linear SNR
    cells: list  # the sorted (shape, gamma) Monte Carlo cells `ser_report` reads


def _subfile_map(cfg: ScenarioConfig):
    """The map stage: the expected subfile map, which `validate` also rounds."""
    return expected_subfile_lengths(Library(cfg.file_fractions, cfg.total_bits), CacheProfile(cfg.mus))


def prepare(cfg: ScenarioConfig) -> Scenario:
    """The constellation, one plan per scheme, the SNR profiles and the cells of a run."""
    subfiles, demands = _subfile_map(cfg), DemandVector(cfg.demands)
    plans = {s: build_delivery_plan(subfiles, demands, s, cfg.m) for s in cfg.schemes}
    profiles = [tuple(_gamma(db if f is None else f) for f in cfg.user_snr_db) for db in cfg.sweep_db]
    cells = sorted({(shape, gammas[u - 1]) for plan in plans.values() for u in range(1, len(cfg.mus) + 1)
                    for shape in plan.shape_counts(u) for gammas in profiles})
    return Scenario(build_constellation(cfg.family, cfg.m), plans, profiles, cells)


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute the sweep and return the CSV rows, sorted."""
    s = prepare(cfg)
    # one table of each kind, shared by every scheme and sweep point
    bounds, estimates = bound_table(s.constellation), None
    if cfg.trials_per_cell > 0:
        estimates = estimate_table(s.constellation, cfg.trials_per_cell, cfg.master_seed)
        estimates.fill(s.cells)  # up front, on every usable CPU

    rows = []
    for snr_db, gammas in zip(cfg.sweep_db, s.profiles):
        for scheme, plan in s.plans.items():
            analytic = ser_report(plan, gammas, bounds)
            empirical = None if estimates is None else ser_report(plan, gammas, estimates)
            for u in range(1, plan.num_users + 1):
                rows.append(
                    ResultRow(
                        snr_db=snr_db,
                        scheme=scheme,
                        user=str(u),
                        useful=analytic.useful_symbols[u],
                        analytic_ser=analytic.ser[u],
                        mc_ser=empirical.ser[u] if empirical else None,
                        mc_stderr=empirical.stderr[u] if empirical else None,
                        load=plan.load,
                    )
                )
            rows.append(
                ResultRow(
                    snr_db=snr_db,
                    scheme=scheme,
                    user="avg",
                    useful=sum(analytic.useful_symbols.values()),
                    analytic_ser=analytic.average_ser,
                    mc_ser=empirical.average_ser if empirical else None,
                    mc_stderr=empirical.average_stderr if empirical else None,
                    load=plan.load,
                )
            )
    rows.sort(key=lambda r: (r.snr_db, r.scheme, r.user == "avg", int(r.user) if r.user != "avg" else 0))
    return rows


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.8g}"


def render_csv(rows: list) -> str:
    if not rows:
        raise ConfigurationError("no results to emit")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.snr_db)},{r.scheme},{r.user},{r.useful},"
            f"{_fmt(r.analytic_ser)},{_fmt(r.mc_ser)},{_fmt(r.mc_stderr)},{_fmt(r.load)}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(rows: list, path: str):
    text = render_csv(rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cachemod")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--out", help="CSV output path (overrides the config)")
    run.add_argument("--seed", type=int, help="master seed override")
    run.add_argument("--trials", type=int, help="trials per Monte Carlo cell override")
    run.add_argument("--analytic-only", action="store_true", help="skip Monte Carlo")

    val = sub.add_parser("validate", help="parse and validate a config, then exit")
    val.add_argument("--config", required=True)
    return parser


def _load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    return parse_config(text)


def execute_run(cfg: ScenarioConfig, *, out=None, seed=None, trials=None) -> tuple:
    """`cachemod run` on a parsed config: apply the flag overrides, sweep, write the CSV.

    Returns (exit status, rows).  A `ConfigurationError` prints a `config
    error:` line and gives status 2, any other failure a `runtime error:`
    line and status 3, both with no rows.
    """
    try:
        # flag values pass the checks their config fields do
        if trials is not None:
            cfg = replace(cfg, trials_per_cell=_read_trials(trials))
        if seed is not None:
            cfg = replace(cfg, master_seed=_read_seed(seed))
        if out is not None:
            cfg = replace(cfg, output=out)
        rows = run_scenario(cfg)
        if cfg.output is None:
            sys.stdout.write(render_csv(rows))
        else:
            emit_csv(rows, cfg.output)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2, []
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3, []
    return 0, rows


def main(argv=None) -> int:
    import logging
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s", level=logging.INFO)
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "validate":
            _subfile_map(cfg)  # `run`'s map stage, which can fail where the files' split did not
            return 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    trials = 0 if args.analytic_only else args.trials
    return execute_run(cfg, out=args.out, seed=args.seed, trials=trials)[0]


if __name__ == "__main__":
    sys.exit(main())
