"""Span tracing around the public calls between cachemod's layers.

The tracer replaces selected module attributes with wrappers.  A module
calls another layer through names it imported, so wrapping
`cachemod.cli.build_delivery_plan` times every plan the CLI builds without
touching `src/`.  Each call records one span: name, start, end and the index
of the enclosing span.  Spans stay in memory until `write` is called after
the measurement.  A layer's time is the self time of its spans: the span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _plan_counts(args, result):
    # counts materialised block objects, the plan's memory cost
    return {"caching.blocks": len(result.blocks), "caching.subsets": len(result.per_subset)}


def _map_counts(args, result):
    return {"caching.subfile_entries": len(result.lengths)}


def _cell_counts(args, result):
    c, shape = args[0], args[1]
    free = c.m - shape[0] - shape[1]
    return {"mc.trials": result.trials, "mc.candidate_trials": result.trials << free}


def _e2e_counts(args, result):
    placement, demands = args[0], args[2]
    bits = 0
    for user in range(1, placement.num_users + 1):
        cached = placement.cached_by[demands.file_for(user) - 1][user - 1]
        bits += int(cached.size - cached.sum())
    return {"mc.e2e_bits": bits}


def _table_counts(args, result):
    return {"analysis.table_entries": len(result)}


# Wrapped attribute -> function turning (positional args, result) into counts.
# Each is the name a caller in cachemod (or the benchmark's own code) uses.
WRAPPED = {
    "cachemod.cli.parse_config": None,
    "cachemod.cli.run_scenario": None,
    "cachemod.cli.render_csv": None,
    "cachemod.cli.expected_subfile_lengths": _map_counts,
    "cachemod.cli.quantize_expected_map": _map_counts,
    "cachemod.caching.realized_subfile_map": _map_counts,
    "cachemod.cli.build_delivery_plan": _plan_counts,
    "cachemod.caching.build_delivery_plan": _plan_counts,
    "cachemod.caching.sample_placement": None,
    "cachemod.mc.encode_block": None,
    "cachemod.mc.decode_block": None,
    "cachemod.cli.build_constellation": None,
    "cachemod.modem.build_constellation": None,
    "cachemod.analysis.min_distance": None,
    "cachemod.mc.modulate": None,
    "cachemod.mc.demodulate": None,
    "cachemod.cli.block_error_table": _table_counts,
    "cachemod.cli.user_metrics": None,
    "cachemod.cli.run_campaign": None,
    "cachemod.mc.cell_shapes": None,
    "cachemod.mc.estimate_cell_ser": _cell_counts,
    "cachemod.mc.end_to_end_noiseless": _e2e_counts,
}

# Per-layer time metric -> spans whose self time it sums.
SELF_TIME = {
    "cli.parse_config_s": ("cachemod.cli.parse_config",),
    "cli.run_scenario_s": ("cachemod.cli.run_scenario",),
    "cli.render_csv_s": ("cachemod.cli.render_csv",),
    "caching.subfile_map_s": (
        "cachemod.cli.expected_subfile_lengths",
        "cachemod.cli.quantize_expected_map",
        "cachemod.caching.realized_subfile_map",
    ),
    "caching.plan_s": ("cachemod.cli.build_delivery_plan", "cachemod.caching.build_delivery_plan"),
    "caching.placement_s": ("cachemod.caching.sample_placement",),
    "caching.encode_s": ("cachemod.mc.encode_block",),
    "caching.decode_s": ("cachemod.mc.decode_block",),
    "modem.build_s": ("cachemod.cli.build_constellation", "cachemod.modem.build_constellation"),
    "modem.min_distance_s": ("cachemod.analysis.min_distance",),
    "modem.modulate_s": ("cachemod.mc.modulate",),
    "modem.demodulate_s": ("cachemod.mc.demodulate",),
    "analysis.table_s": ("cachemod.cli.block_error_table",),
    "analysis.metrics_s": ("cachemod.cli.user_metrics",),
    "mc.campaign_s": ("cachemod.cli.run_campaign",),
    "mc.cell_shapes_s": ("cachemod.mc.cell_shapes",),
    "mc.cell_s": ("cachemod.mc.estimate_cell_ser",),
    "mc.e2e_s": ("cachemod.mc.end_to_end_noiseless",),
}

# Per-layer call-count metric -> the span it counts.
CALLS = {
    "caching.encode_calls": "cachemod.mc.encode_block",
    "caching.decode_calls": "cachemod.mc.decode_block",
    "modem.min_distance_calls": "cachemod.analysis.min_distance",
    "modem.modulate_calls": "cachemod.mc.modulate",
    "modem.demodulate_calls": "cachemod.mc.demodulate",
    "mc.cells": "cachemod.mc.estimate_cell_ser",
}


class Tracer:
    """In-memory span recorder; `install` wraps every name in WRAPPED."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.uncounted = set()  # wrapped names whose results no longer fit their counter
        self._stack = []

    def install(self):
        """Wrap the listed attributes; names a later cachemod lacks are skipped."""
        for target, count in WRAPPED.items():
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(target, fn, count))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    self.counts.update(count(args, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncounted.add(name)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def layer_metrics(self) -> dict:
        """Per-layer self times, call counts and work counts of every span so far."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time, inclusive, calls = defaultdict(float), defaultdict(float), Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            self_time[name] += end - start - child
            inclusive[name] += end - start
            calls[name] += 1

        out = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIME.items()}
        out.update({metric: calls[name] for metric, name in CALLS.items()})
        for name in ("caching.subfile_entries", "caching.blocks", "caching.subsets",
                     "analysis.table_entries", "mc.trials", "mc.e2e_bits"):
            out[name] = self.counts[name]

        # block_error_table calls min_distance once per distinct (shape, user) key
        table = "cachemod.cli.block_error_table"
        distinct = sum(
            1
            for name, _, _, parent in self.spans
            if name == "cachemod.analysis.min_distance" and parent >= 0
            and self.spans[parent][0] == table
        )
        out["analysis.distinct_cells"] = distinct
        entries = out["analysis.table_entries"]
        out["analysis.useful_ratio"] = distinct / entries if entries else 0.0
        trials = out["mc.trials"]
        out["mc.trials_per_s"] = trials / out["mc.cell_s"] if trials else 0.0
        out["mc.candidates_per_trial"] = self.counts["mc.candidate_trials"] / trials if trials else 0.0
        bits = out["mc.e2e_bits"]
        e2e = inclusive["cachemod.mc.end_to_end_noiseless"]
        out["mc.e2e_us_per_bit"] = e2e / bits * 1e6 if bits else 0.0
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
