"""A fixed computation that measures how fast the host runs at the moment.

The shared host this benchmark runs on changes speed by up to 30% either way,
in phases of tens of seconds to minutes, and every kind of work moves with
it: germkit's operations and exact `Fraction` arithmetic sped up and slowed
down together, within a few percent of each other (see README.md, "Host
speed").  A run therefore times this computation beside its operations and
scales each timing by NOMINAL_S / (its time here), which gives the time the
operation would take on a host that runs the yardstick in NOMINAL_S.

The yardstick uses only the benchmark's own arithmetic (checks.py) on inputs
fixed here, never germkit and never the seed, so no change to germkit and no
choice of seed can move it.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from checks import euclid_resultant, pmul

# about the yardstick's median on the 2-core host in README.md, in process and fresh
NOMINAL_S = 0.009
NOMINAL_FRESH_S = 0.075
REPEATS = 3

_rng = random.Random("yardstick")
_A = {(i, j): Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
      for i in range(7) for j in range(7 - i)}
_B = {(i, j): Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
      for i in range(6) for j in range(6 - i)}
_U = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(9)]
_V = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(8)]


def _work():
    """Exact arithmetic of the kind germkit does, on dict polynomials: ~10 ms."""
    for _ in range(2):
        pmul(_A, _B)
        euclid_resultant(_U, _V)


def measure(fresh_process=False):
    """Seconds for one yardstick: the median of REPEATS timed calls or, with
    `fresh_process`, one run of this file as a new interpreter, which also
    times interpreter start and imports, as the cli workload's operations do."""
    if fresh_process:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__)], check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    gc.collect()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    _work()
