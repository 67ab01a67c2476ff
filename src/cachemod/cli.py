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
from .errors import ConfigurationError, integer, positive, reals, seed
from .mc import estimate_table
from .modem import build_constellation

DEFAULT_SWEEP = {"start_db": 0.0, "stop_db": 20.0, "step_db": 2.0}
DEFAULT_TRIALS = 100_000
MAX_SWEEP_POINTS = 10_000  # each point reports on every scheme's plan; `prepare` plans once

CSV_HEADER = "snr_db,scheme,user,L_k,analytic_T,mc_T,mc_stderr,load_R"


@dataclass(frozen=True)
class ScenarioConfig:
    """A valid scenario: construction, `dataclasses.replace` included, checks every field.

    Sequence fields are stored as tuples, so equal scenarios compare and hash equal.  It
    also keeps what the checks built, outside the dataclass fields: `caches`, `library`,
    `constellation`, `demand_vector` and `profiles`, one tuple per sweep point of each
    user's linear SNR (a user's fixed one, otherwise the point's).
    """

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

    def __post_init__(self):
        for name in ("user_snr_db", "schemes", "sweep_db"):  # the others as checked, below
            vars(self)[name] = tuple(getattr(self, name))
        caches = CacheProfile(self.mus)  # validates range and ordering
        if len(self.user_snr_db) != caches.num_users:
            raise ConfigurationError("user_snr_db must have one entry per user")
        fixed = [db if db is None else _check_db(db, f"user {idx} snr_db")
                 for idx, db in enumerate(self.user_snr_db, start=1)]
        library = Library(self.file_fractions, self.total_bits)
        check_subfile_map_size(library.num_files, caches.num_users)
        constellation = build_constellation(self.family, self.m)  # validates the family, and m for it
        for s in self.schemes:
            check_scheme(s)
        if not self.schemes:
            raise ConfigurationError("at least one scheme required")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError("duplicate schemes are not supported")
        demands = DemandVector(self.demands)
        demands.validate(library.num_files, caches.num_users)
        if not 0 < len(self.sweep_db) <= MAX_SWEEP_POINTS:
            raise ConfigurationError(
                f"sweep has {len(self.sweep_db)} SNR points, not 1 to {MAX_SWEEP_POINTS}"
            )
        points = [_check_db(db, "sweep_db point") for db in self.sweep_db]
        # the printed SNR keys a row, and -0.0 and 0.0 print apart but are one point
        if min(len(set(self.sweep_db)), len({_fmt(db) for db in self.sweep_db})) < len(self.sweep_db):
            raise ConfigurationError(
                "sweep step_db is finer than the CSV prints, or a point repeats as -0 and 0: "
                "SNR points would print alike"
            )
        integer(self.trials_per_cell, "trials_per_cell", 0)
        seed(self.master_seed, "master_seed")
        if self.output is not None:
            _check_output(self.output)
        # kept as `cached_property` keeps a value, past the frozen `__setattr__`
        vars(self).update(
            mus=caches.mus, file_fractions=library.file_fractions, demands=demands.demands,
            caches=caches, library=library, constellation=constellation, demand_vector=demands,
            profiles=tuple(tuple(gamma if f is None else f for f in fixed) for gamma in points),
        )


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


def _check_db(db, field: str) -> float:
    """The linear SNR of `db` dB: `db` a real number, and its SNR a finite positive float."""
    try:
        return positive((10.0 ** (reals((db,), field)[0] / 10.0),), field)[0]
    except (ConfigurationError, OverflowError):
        raise ConfigurationError(f"{field} of {db!r} dB has no finite positive linear SNR") from None


def _check_output(output):
    if not (isinstance(output, str) and output):
        raise ConfigurationError(f"output must be a non-empty file path, not {output!r}")


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
    return tuple(start + i * step for i in range(int(span) + 1))


def _resolve_demands(requested, fractions, num_users) -> tuple:
    if requested == "worst_case":  # with fewer files than users, the config rejects the count
        order = sorted(range(len(fractions)), key=lambda i: (-fractions[i], i))
        return tuple(i + 1 for i in order[:num_users])
    return tuple(_read(int, d, "demands") for d in _require_list(requested, "demands"))


def parse_config(text: str) -> ScenarioConfig:
    """Read a JSON scenario document into a `ScenarioConfig`, which checks the values."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    keys = {"users", "files", "total_bits", "modulation", "schemes", "demands", "sweep",
            "trials_per_cell", "master_seed", "output"}
    _require_keys(raw, keys, "config")
    for key in ("users", "files", "total_bits", "modulation"):
        if key not in raw:
            raise ConfigurationError(f"missing required field {key!r}")
    if "output" in raw:  # JSON null too, though the field's None means stdout
        _check_output(raw["output"])

    mus, user_snr = [], []
    for idx, u in enumerate(_require_list(raw["users"], "users"), start=1):
        _require_keys(u, {"mu", "snr_db"}, f"user {idx}")
        if "mu" not in u:
            raise ConfigurationError(f"user {idx} is missing 'mu'")
        mus.append(_read(float, u["mu"], f"user {idx} mu"))
        user_snr.append(_read(float, u["snr_db"], f"user {idx} snr_db") if "snr_db" in u else None)
    fractions = tuple(_read(float, f, "files") for f in _require_list(raw["files"], "files"))
    total_bits = _read(int, raw["total_bits"], "total_bits")

    mod = raw["modulation"]
    _require_keys(mod, {"family", "m"}, "modulation")
    family = str(mod.get("family", "")).lower()
    m = _read(int, mod.get("m", 0), "modulation m")

    schemes = tuple(_require_list(raw.get("schemes", list(SCHEMES)), "schemes"))
    demands = _resolve_demands(raw.get("demands", "worst_case"), fractions, len(mus))

    sweep = dict(DEFAULT_SWEEP)
    if "sweep" in raw:
        _require_keys(raw["sweep"], set(DEFAULT_SWEEP), "sweep")
        sweep.update({k: _read(float, v, f"sweep {k}") for k, v in raw["sweep"].items()})
    for key in ("start_db", "stop_db"):  # the ends by name; the config checks every point
        _check_db(sweep[key], f"sweep {key}")
    grid = _grid(sweep)

    trials = _read(int, raw.get("trials_per_cell", DEFAULT_TRIALS), "trials_per_cell")
    master_seed = _read(int, raw.get("master_seed", 0), "master_seed")
    cfg = ScenarioConfig(
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
        master_seed=master_seed,
        output=raw.get("output"),
    )
    if "master_seed" not in raw:
        import logging  # loaded only to log, so `import cachemod.cli` leaves it out
        logging.getLogger("cachemod").info("no master_seed in config; defaulting to 0")
    return cfg


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

    plans: dict  # scheme -> DeliveryPlan
    cells: list  # the sorted (shape, gamma) Monte Carlo cells `ser_report` reads; [] if analytic only


def prepare(cfg: ScenarioConfig) -> Scenario:
    """One plan per scheme, and the cells of a run over the config's SNR profiles."""
    subfiles = expected_subfile_lengths(cfg.library, cfg.caches)
    plans = {s: build_delivery_plan(subfiles, cfg.demand_vector, s, cfg.m) for s in cfg.schemes}
    cells = []
    if cfg.trials_per_cell > 0:  # only an estimate table is filled ahead of the reports
        cells = sorted({(shape, gammas[u]) for plan in plans.values()
                        for u, row in enumerate(plan.known_counts.tolist())
                        for shape, count in zip(plan.shapes, row) if count for gammas in cfg.profiles})
    return Scenario(plans, cells)


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute the sweep and return the CSV rows in order: points, schemes by name, users, avg."""
    s = prepare(cfg)
    # one table of each kind, shared by every scheme and sweep point
    bounds, estimates = bound_table(cfg.constellation), None
    if cfg.trials_per_cell > 0:
        estimates = estimate_table(cfg.constellation, cfg.trials_per_cell, cfg.master_seed)
        estimates.fill(s.cells)  # up front, on every usable CPU

    rows = []
    for snr_db, gammas in sorted(zip(cfg.sweep_db, cfg.profiles)):
        for scheme, plan in sorted(s.plans.items()):
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cachemod")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--out", help="CSV output path (overrides the config)")
    run.add_argument("--seed", type=int, help="master seed override")
    mc = run.add_mutually_exclusive_group()
    mc.add_argument("--trials", type=int, help="trials per Monte Carlo cell override")
    mc.add_argument("--analytic-only", action="store_true", help="skip Monte Carlo")

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
        # flag values pass the checks their config fields do; no flag, no rebuild
        flags = {"trials_per_cell": trials, "master_seed": seed, "output": out}
        given = {field: v for field, v in flags.items() if v is not None}
        if given:
            cfg = replace(cfg, **given)
        rows = run_scenario(cfg)
        text = render_csv(rows)  # before the file opens: a failed render leaves none
        if cfg.output is None:
            sys.stdout.write(text)
        else:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(text)
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
            # `run`'s map stage, which can fail where the files' split did not
            expected_subfile_lengths(cfg.library, cfg.caches)
            return 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    trials = 0 if args.analytic_only else args.trials
    return execute_run(cfg, out=args.out, seed=args.seed, trials=trials)[0]


if __name__ == "__main__":
    sys.exit(main())
