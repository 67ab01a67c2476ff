import numpy as np
import pytest

from cachemod import CacheProfile, DemandVector, Library
from cachemod.caching import PlacementRealization, SubfileMap, subset_code


def subfile_map(num_users, num_files, entries):
    """Build an integer SubfileMap from {(file, tuple_subset): length} with zero fill."""
    lengths = np.zeros((num_files, 2**num_users), dtype=np.int64)
    for (i, subset), v in entries.items():
        lengths[i - 1, subset_code(subset)] = v
    return SubfileMap(lengths)


@pytest.fixture
def two_user_pair_placement():
    """Two users, files of 9 and 6 bits, each bit cached by at most one user.

    File 1 = 101001010 split 3/3/3 over (nobody, user 1, user 2); file 2 =
    111001 split 2/2/2 the same way.  User 1 wants file 1, user 2 file 2, so
    the pair message XORs a 3-bit piece against a 2-bit one.
    """
    lib = Library((9 / 15, 6 / 15), 15)
    caches = CacheProfile((1 / 3, 1 / 3))
    f1 = np.array([1, 0, 1, 0, 0, 1, 0, 1, 0], dtype=np.uint8)
    f2 = np.array([1, 1, 1, 0, 0, 1], dtype=np.uint8)
    m1 = np.zeros((2, 9), dtype=bool)
    m1[0, 3:6] = True
    m1[1, 6:9] = True
    m2 = np.zeros((2, 6), dtype=bool)
    m2[0, 2:4] = True
    m2[1, 4:6] = True
    return PlacementRealization(
        library=lib, caches=caches, bit_values=(f1, f2), cached_by=(m1, m2)
    )


@pytest.fixture
def pair_demands():
    return DemandVector((1, 2))
