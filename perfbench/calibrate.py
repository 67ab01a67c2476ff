"""Machine-speed calibration for run.py, in a process of its own.

    python3 perfbench/calibrate.py

For each line read it prints the median seconds of three calibrate() calls;
it exits at the end of its input.  It runs apart from run.py because on
Linux a child's ru_maxrss starts at its parent's peak RSS: the memory the
calibration uses must not show up in the repetitions' peak_rss_mb.
"""

import gc
import statistics
import sys
import time

import numpy as np


def calibrate() -> float:
    """Seconds a fixed mix of object-building, dict and small-array work takes.

    The mix mirrors cachemod's hot paths (many small objects in large dicts,
    numpy calls on a few points, a vectorised nearest-point search over
    noisy samples), so a slow spell of the machine slows it about as much
    as a repetition.  It is benchmark code: no change to cachemod changes it.
    Collection is off so that its timing does not depend on other garbage.
    """
    gc.disable()
    start = time.perf_counter()
    table = {}
    for i in range(60000):
        members = frozenset((i % 3, i % 5, i % 7))
        table[(members, i)] = {"index": i, "members": members, "len": i & 7}
    total = 0
    for (members, i), entry in table.items():
        total += entry["len"] + len(members)
    points = np.exp(2j * np.pi * np.arange(8) / 8)
    for i in range(2000):
        total += int(np.argmin(np.abs(points - 0.1 * (i % 7)) ** 2))
    rng = np.random.default_rng(0)
    for _ in range(4):
        noise = rng.normal(size=(1 << 15, 2))
        received = noise[:, 0] + 1j * noise[:, 1]
        total += int(np.argmin(np.abs(received[:, None] - points) ** 2, axis=1).sum())
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main():
    for _ in sys.stdin:
        print(statistics.median(calibrate() for _ in range(3)), flush=True)


if __name__ == "__main__":
    main()
