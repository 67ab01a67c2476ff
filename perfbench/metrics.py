"""Names, units and directions of every metric the benchmark reports.

`BENCHMARK.json` lists the same metrics; `selftest.py` checks that the two
agree.  Bounds live only in `BENCHMARK.json`.
"""

WORKLOADS = ("paper_sweep", "large_library", "many_users", "e2e_check")

# (name, unit, better) reported with tracing off
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# (name, unit, better) reported by the traced run; times are self time
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.parse_config_s", "s", "lower"),
    ("cli.run_scenario_s", "s", "lower"),
    ("cli.render_csv_s", "s", "lower"),
    ("caching.subfile_map_s", "s", "lower"),
    ("caching.subfile_entries", "count", "lower"),
    ("caching.plan_s", "s", "lower"),
    ("caching.blocks", "count", "lower"),
    ("caching.subsets", "count", "lower"),
    ("caching.placement_s", "s", "lower"),
    ("caching.encode_s", "s", "lower"),
    ("caching.encode_calls", "count", "lower"),
    ("caching.decode_s", "s", "lower"),
    ("caching.decode_calls", "count", "lower"),
    ("modem.build_s", "s", "lower"),
    ("modem.min_distance_s", "s", "lower"),
    ("modem.min_distance_calls", "count", "lower"),
    ("modem.modulate_s", "s", "lower"),
    ("modem.modulate_calls", "count", "lower"),
    ("modem.demodulate_s", "s", "lower"),
    ("modem.demodulate_calls", "count", "lower"),
    ("analysis.table_s", "s", "lower"),
    ("analysis.table_entries", "count", "lower"),
    ("analysis.distinct_cells", "count", "lower"),
    ("analysis.useful_ratio", "ratio", "higher"),
    ("analysis.metrics_s", "s", "lower"),
    ("mc.campaign_s", "s", "lower"),
    ("mc.cell_shapes_s", "s", "lower"),
    ("mc.cell_s", "s", "lower"),
    ("mc.cells", "count", "lower"),
    ("mc.trials", "count", "higher"),
    ("mc.trials_per_s", "1/s", "higher"),
    ("mc.candidates_per_trial", "count", "lower"),
    ("mc.e2e_s", "s", "lower"),
    ("mc.e2e_bits", "count", "higher"),
    ("mc.e2e_us_per_bit", "us/bit", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
)

# Metrics that must repeat exactly for the same workload and seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "ratio"))
