import importlib

import pytest

import cachemod as cm

# the scalar per-symbol API that `detect`, `min_distance` and the tests' own
# brute-force oracle replaced; none of it may come back
REMOVED = {
    "cachemod": [
        "KnownMask", "empty_mask", "subconstellation", "modulate", "demodulate", "awgn_channel",
    ],
    "cachemod.modem": [
        "KnownMask", "empty_mask", "_compatible", "subconstellation", "modulate", "demodulate",
        "bits_to_int", "as_bits",
    ],
    "cachemod.mc": ["awgn_channel", "modulate", "demodulate"],
    "cachemod.bits": ["int_to_bits", "bits_to_int"],
}


def test_every_exported_name_resolves():
    assert len(set(cm.__all__)) == len(cm.__all__)
    for name in cm.__all__:
        assert getattr(cm, name) is not None, name


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    present = [name for name in REMOVED[module_name] if hasattr(module, name)]
    assert present == []
    assert not set(REMOVED[module_name]) & set(getattr(module, "__all__", ()))


def test_constellation_has_no_label_lookup_method():
    assert not hasattr(cm.Constellation, "point_of_label")
