import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import cachemod as cm
from cachemod import cli
from conftest import subfile_map

# the scalar per-symbol and per-block APIs that `detect`, `min_distance`,
# the one-array codec and the tests' own brute-force oracles replaced; none may
# come back.  A module mapped to None is gone as a whole.
REMOVED = {
    "cachemod": [
        "KnownMask", "empty_mask", "subconstellation", "modulate", "demodulate", "awgn_channel",
        "plan_metrics", "analytic_report", "compare_schemes", "SchemeComparison",
        "MulticastBlockSpec", "UselessBlockError", "run_campaign", "CellEstimate",
        "SnrProfile", "CampaignConfig",
    ],
    "cachemod.modem": [
        "KnownMask", "empty_mask", "_compatible", "subconstellation", "modulate", "demodulate",
        "bits_to_int", "as_bits",
        # the second brute-force kernel, which grouped symbols by known value
        # past this many candidates; one gather serves every count
        "_GATHER_MAX",
        # the integer rule and the bits-per-symbol check, now `errors.integer`
        "_integer", "_bits",
    ],
    # `run_campaign` was `ser_report` over an estimate table, `CellEstimate`
    # a second carrier for the (ser, std_error) pair a `CellTable` stores, and
    # `CampaignConfig` a carrier for `estimate_cell_ser`'s (trials, master_seed)
    "cachemod.mc": [
        "awgn_channel", "modulate", "demodulate", "run_campaign", "CellEstimate", "CampaignConfig",
    ],
    # the bit-row helpers, now the codec's own shifts and masks
    "cachemod.bits": None,
    "cachemod.errors": ["UselessBlockError"],
    # the per-block split laws and the codec's bit-string and bit-row paths,
    # replaced by `piece_runs` and the one-array `encode_block`/`decode_block`;
    # the canonical subset order as an array, replaced by the tie key
    # `_canonical_key`; the planner's subsets per step, now `_PLAN_ENTRIES`
    # (user, subset) entries per step
    "cachemod.caching": [
        "proposed_piece_len", "zero_padding_piece_len", "subset_shapes", "_bit_array",
        "canonical_codes", "MulticastBlockSpec", "UselessBlockError", "SubsetSchedule",
        "_bit_run", "_checked_pieces", "_run_count", "_PLAN_CHUNK",
        # the real-number rule and the file-index check, now `errors.reals` and `errors.integer`
        "_floats", "_file_row",
        # the small-input loops of `largest_remainder` and the planner, and their size
        # threshold; every size now runs the array code
        "_LOOP_MAX", "_plan_loop",
        # the subset bitmask, now stated in `SubfileMap`'s docstring and kept as a test oracle
        "subset_code",
    ],
    # thin wrappers around `ser_report`, `q_function`'s array path, and a
    # carrier for the per-user SNRs `ser_report` now takes as a plain sequence
    "cachemod.analysis": [
        "plan_metrics", "analytic_report", "compare_schemes", "SchemeComparison", "_erfc_array",
        "SnrProfile",
    ],
    # per-user shape dicts, replaced by the `known_counts` table, and the
    # per-user readers that rebuilt them from it, replaced by its rows read
    # over `shapes`; per-subset schedules and merged block runs, which the
    # one-array codec needs no more; a report tag and fields nothing read (the
    # load is the plan's; S_k is ser x useful_symbols, and a user without
    # useful symbols has 0 of them)
    "cachemod.caching.DeliveryPlan": [
        "histograms", "per_subset", "block_runs", "shape_counts", "useful_symbols", "_counts",
    ],
    # the (K, bits) masks' cached subset codes and the per-subset lookup over
    # them: the codes are the placement's one field, `subset_codes`
    "cachemod.caching.PlacementRealization": ["seed", "_subset_codes", "subfile_positions"],
    # per-entry readers no run read: every reader indexes `lengths[i - 1, code]`
    "cachemod.caching.SubfileMap": ["length", "file_total", "_row"],
    # the index -> label array and its cached inverse (`points` is indexed by
    # label), and the point count, which is `len(points)`
    "cachemod.modem.Constellation": ["labels", "_label_to_index", "size"],
    "cachemod.analysis.SerReport": ["kind", "load", "error_symbols", "undefined_users"],
    # the flag checks, now `ScenarioConfig`'s own checks of its fields
    "cachemod.cli": [
        "_read_trials", "_read_seed",
        # the dB -> linear SNR conversion, now what `_check_db` returns
        "_gamma",
        # one-caller wrappers: `execute_run` writes the rendered CSV itself, and
        # `prepare` and `validate` call `expected_subfile_lengths` themselves
        "emit_csv", "_subfile_map",
    ],
    # copies of what the config keeps: its constellation and its SNR profiles
    "cachemod.cli.Scenario": ["constellation", "profiles"],
}


def resolve(dotted):
    """A module, or a class inside one."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module_name, attr = dotted.rsplit(".", 1)
        return getattr(importlib.import_module(module_name), attr)


def test_every_exported_name_resolves():
    assert len(set(cm.__all__)) == len(cm.__all__)
    for name in cm.__all__:
        assert getattr(cm, name) is not None, name


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_removed(module_name):
    if REMOVED[module_name] is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)
        return
    owner = resolve(module_name)
    fields = set()
    if dataclasses.is_dataclass(owner):
        fields = {f.name for f in dataclasses.fields(owner)}
    present = [name for name in REMOVED[module_name] if hasattr(owner, name) or name in fields]
    assert present == []
    assert not set(REMOVED[module_name]) & set(getattr(owner, "__all__", ()))


def test_constellation_has_no_label_lookup_method():
    assert not hasattr(cm.Constellation, "point_of_label")


def test_delivery_plan_builds_blocks_only_as_runs():
    assert not hasattr(cm.DeliveryPlan, "block")
    assert not hasattr(cm.DeliveryPlan, "iter_blocks")


# the pure result carriers are NamedTuples: a class takes about 0.1 ms to
# create against about 1 ms for a frozen dataclass, paid on every import
CARRIERS = [
    (
        cm.SerReport,
        ("useful_symbols", "ser", "average_ser", "stderr", "average_stderr"),
        ({1: 4}, {1: 0.25}, 0.25, {1: 0.0}, 0.0),
    ),
    (cm.EndToEndResult, ("passed", "first_mismatch"), ({1: True, 2: False}, {2: (1, 7)})),
    (
        cli.ResultRow,
        ("snr_db", "scheme", "user", "useful", "analytic_ser", "mc_ser", "mc_stderr", "load"),
        (2.0, "proposed", "avg", 12, 0.125, None, None, 0.5),
    ),
    (
        cli.Scenario,
        ("plans", "cells"),
        ({"proposed": None}, [((0, 0), 1.0), ((1, 0), 2.0)]),
    ),
]


@pytest.mark.parametrize("carrier, names, values", CARRIERS, ids=[c.__name__ for c, *_ in CARRIERS])
def test_result_carriers_are_named_tuples(carrier, names, values):
    assert issubclass(carrier, tuple) and not dataclasses.is_dataclass(carrier)
    assert carrier._fields == names
    result = carrier(*values)
    assert result == values and tuple(result) == values  # tuple equality and unpacking
    assert result == carrier(**dict(zip(names, values)))
    with pytest.raises(AttributeError):
        setattr(result, names[0], None)
    changed = result._replace(**{names[-1]: "new"})
    assert changed[-1] == "new" and changed[:-1] == values[:-1] and result == values


def test_constellation_is_a_named_tuple_of_its_label_to_point_map():
    c = cm.build_qam(4)
    assert issubclass(cm.Constellation, tuple) and not dataclasses.is_dataclass(cm.Constellation)
    assert cm.Constellation._fields == ("family", "m", "points", "spacing")
    assert c == ("qam", 4, c.points, c.spacing) and len(c.points) == 16
    assert c.points.shape == (16,) and not c.points.flags.writeable
    with pytest.raises(AttributeError):
        c.points = None


def test_placement_is_a_named_tuple_of_subset_codes(two_user_pair_placement):
    placement = two_user_pair_placement
    assert issubclass(cm.PlacementRealization, tuple)
    assert not dataclasses.is_dataclass(cm.PlacementRealization)
    assert cm.PlacementRealization._fields == ("library", "caches", "bit_values", "subset_codes")
    assert [codes.tolist() for codes in placement.subset_codes] == [
        [0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 0, 1, 1, 2, 2],
    ]
    # the masks are derived from the codes: row u - 1 is bit u - 1
    first = placement.cached_by[0]
    assert first.dtype == bool and first.shape == (2, 9)
    assert first.astype(int).tolist() == [[0, 0, 0, 1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1, 1]]
    with pytest.raises(AttributeError):
        placement.cached_by = None


def test_end_to_end_result_all_passed():
    assert not cm.EndToEndResult({1: True, 2: False}, {2: (1, 7)}).all_passed
    assert cm.EndToEndResult({1: True, 2: True}, {}).all_passed


# Creating a dataclass costs about 1 ms of every import of `cachemod.cli`,
# so each of the package's classes is a dataclass only for a reason:
# - ScenarioConfig: the CLI, the benchmark and the tests derive configs with
#   `dataclasses.replace`, and `__post_init__` checks the values of each one;
# - Library, CacheProfile, DemandVector, SubfileMap: values checked in
#   `__post_init__` (Library also has a `cached_property`);
# - DeliveryPlan: keeps its arrays out of the repr with `field(repr=False)`
#   and compares by identity (`eq=False`).
# A new dataclass lands here and in `setup_s`; a pure result carrier, or a
# value like `Constellation` or `PlacementRealization` that needs neither
# checks nor a cache, should be a NamedTuple instead.
DATACLASSES = {
    "ScenarioConfig", "Library", "CacheProfile", "DemandVector", "SubfileMap", "DeliveryPlan",
}


def test_dataclasses_are_the_ones_that_need_to_be():
    # every class the package's modules define, exported or not
    modules = ("analysis", "caching", "cli", "mc", "modem")
    defined = {
        name
        for module in map(importlib.import_module, (f"cachemod.{m}" for m in modules))
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    }
    exported = {name for name in cm.__all__ if dataclasses.is_dataclass(getattr(cm, name))}
    assert defined == DATACLASSES
    assert exported | {"ScenarioConfig"} == DATACLASSES


def _module_trees():
    """(file name, AST) of each of the package's modules."""
    for path in sorted(Path(cm.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _imported(tree) -> set:
    """The modules and names a module's import statements write, without leading dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names} | {getattr(node, "module", None) or ""}
    return names


def test_input_rules_are_stated_only_in_errors():
    # each rule is one function of `errors`; a copy of one in another module fails here
    for name, tree in _module_trees():
        if name == "modem.py":  # `modem` once imported `caching` only to borrow its real-number rule
            assert not {n for n in _imported(tree) if "caching" in n}, _imported(tree)
        if name == "errors.py":
            continue
        assert "numbers" not in _imported(tree), name
        assert all(n.id != "numbers" for n in ast.walk(tree) if isinstance(n, ast.Name)), name
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
                called = getattr(node.left.func, "id", None)
                is_ops = any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                assert not (called == "type" and is_ops), f"{name}:{node.lineno}"


# every public integer or real argument, with a value it accepts and a call
# that puts a value in its place; the calls return what the value leads to
PSK8, QAM16 = cm.build_psk(3), cm.build_qam(4)
SMAP = subfile_map(2, 2, {(1, (2,)): 9, (2, (1,)): 7, (1, ()): 4})
DEMANDS = cm.DemandVector((1, 2))
PLAN = cm.build_delivery_plan(SMAP, DEMANDS, cm.PROPOSED, 3)
Y = np.array([0.3 + 0.1j, -0.9 + 0.2j, 0.1 - 0.8j])
LABELS = cm.encode_block(cm.PROPOSED, [1, 0, 1], 2, 3)


def _detect(sqrt_snr=2.0, p=1, s=0):
    return cm.detect(PSK8, Y, sqrt_snr, (p, s), np.array([0, 1, 1]))


def _cell(trials=50, gamma=2.0, p=1, s=0, master_seed=5):
    return cm.estimate_cell_ser(PSK8, (p, s), gamma, trials, master_seed, "table")


def _plan(label_len):
    plan = cm.build_delivery_plan(SMAP, DEMANDS, cm.ZERO_PADDING, label_len)
    return plan, plan.known_counts


def _library(total_bits):
    library = cm.Library((0.5, 0.5), total_bits)
    return library.total_bits, library.file_bits


ARGUMENTS = {
    # argument: (kind, accepted value, call)
    "build_psk m": ("int", 3, cm.build_psk),
    "build_qam m": ("int", 4, cm.build_qam),
    "min_distance prefix_known": ("int", 1, lambda v: cm.min_distance(QAM16, v, 1)),
    "min_distance suffix_known": ("int", 1, lambda v: cm.min_distance(QAM16, 1, v)),
    "detect sqrt_snr": ("real", 2.0, lambda v: _detect(sqrt_snr=v)),
    "detect shape prefix": ("int", 1, lambda v: _detect(p=v)),
    "detect shape suffix": ("int", 1, lambda v: _detect(p=0, s=v)),
    "estimate_cell_ser trials": ("int", 50, lambda v: _cell(trials=v)),
    "estimate_cell_ser gamma": ("real", 2.0, lambda v: _cell(gamma=v)),
    "estimate_cell_ser shape prefix": ("int", 1, lambda v: _cell(p=v)),
    "estimate_cell_ser shape suffix": ("int", 1, lambda v: _cell(p=0, s=v)),
    "estimate_cell_ser master_seed": ("seed", 5, lambda v: _cell(master_seed=v)),
    "sample_placement seed": (
        "seed", 3, lambda v: cm.sample_placement(cm.Library((1.0,), 8), cm.CacheProfile((0.5,)), v),
    ),
    "build_delivery_plan label_len": ("int", 3, _plan),
    "DemandVector demands": ("int", 2, lambda v: cm.DemandVector((1, v)).demands),
    "DemandVector.file_for user": ("int", 2, DEMANDS.file_for),
    "symbol_error_bound gamma": ("real", 2.0, lambda v: cm.symbol_error_bound("psk", v, 0.7)),
    "symbol_error_bound dmin": ("real", 0.7, lambda v: cm.symbol_error_bound("psk", 2.0, v)),
    "ser_report gammas": ("real", 2.0, lambda v: cm.ser_report(PLAN, (1.0, v), cm.bound_table(PSK8))),
    "Library total_bits": ("int", 10, _library),
    "encode_block n_blocks": ("int", 2, lambda v: cm.encode_block(cm.PROPOSED, [1, 0, 1], v, 3)),
    "encode_block label_len": ("int", 3, lambda v: cm.encode_block(cm.PROPOSED, [1, 0, 1], 2, v)),
    "decode_block subfile_len": ("int", 3, lambda v: cm.decode_block(cm.PROPOSED, LABELS, v, 3)),
    "decode_block label_len": ("int", 3, lambda v: cm.decode_block(cm.PROPOSED, LABELS, 3, v)),
}


def _rejected(kind, value) -> list:
    """What the argument must reject: a bool, None, a string, and a float where an int is due."""
    bad = [True, None, str(value)]
    if kind != "real":
        bad += [float(value), np.float64(value)]
    if kind == "seed":  # seeds are Python ints only
        bad.append(np.int64(value))
    return bad


@pytest.mark.parametrize(
    "argument, bad",
    [(name, bad) for name, (kind, value, _) in ARGUMENTS.items() for bad in _rejected(kind, value)],
    ids=lambda x: x if isinstance(x, str) and x in ARGUMENTS else repr(x),
)
def test_argument_rejects_what_is_not_its_kind(argument, bad):
    call = ARGUMENTS[argument][2]
    with pytest.raises(cm.ConfigurationError):
        call(bad)


@pytest.mark.parametrize("argument", [n for n, (kind, *_) in ARGUMENTS.items() if kind != "seed"])
def test_argument_reads_a_numpy_value_as_the_python_one(argument):
    # repr tells a numpy scalar from a Python one, so the result holds no numpy value
    kind, value, call = ARGUMENTS[argument]
    numpy_value = np.int64(value) if kind == "int" else np.float64(value)
    assert repr(call(numpy_value)) == repr(call(value))


# a rule that two public calls read outside `errors` is one check all the
# same (`modem.check_family`, `DeliveryPlan.check_constellation`): each call
# of a pair raises its message, word for word
SHARED_RULES = {
    "unknown constellation family 'bogus'": (
        lambda placement: cm.build_constellation("bogus", 3),
        lambda placement: cm.symbol_error_bound("bogus", 2.0, 0.7),
    ),
    "plan and constellation disagree on bits per symbol": (
        lambda placement: cm.ser_report(PLAN, (1.0, 2.0), cm.bound_table(QAM16)),
        lambda placement: cm.end_to_end_noiseless(placement, PLAN, DEMANDS, QAM16),
    ),
}


@pytest.mark.parametrize("message", SHARED_RULES)
def test_shared_rule_gives_one_message(message, two_user_pair_placement):
    for call in SHARED_RULES[message]:
        with pytest.raises(cm.ConfigurationError) as raised:
            call(two_user_pair_placement)
        assert str(raised.value) == message
