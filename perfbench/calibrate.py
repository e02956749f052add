"""Calibrating wall times to the host's speed at the moment they were taken.

On a 2-core x86 virtual machine that shares its physical cores, a
pure-Python loop of fixed work took anywhere from 17 to 27 ms within one
minute, in phases that last seconds, and the raw wall-clock metrics of
ten runs of one workload spread by 15-30 % (interquartile range over the
median), more than any bound a regression check could use.

The benchmark times :func:`reference_loop`, a fixed mix of arithmetic,
hashing and memory-latency work, right before and after every
measurement and reports *calibrated* times: ``wall * REF_LOOP_S /
reference``, the wall time the measurement would have taken had the host
run at the speed it had when :data:`REF_LOOP_S` was taken.  A change to
the program moves a calibrated time as it moves the raw one (the table
walk of the reference runs right after a slice, so it depends a little
on how much of the caches the slice used); a change in the host's speed
moves the measurement and its reference alike and largely cancels (on the same machine the spread of ten runs fell to
1-5 %).  Raw wall times are printed beside the calibrated ones.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from typing import List, Sequence

#: wall seconds of one :func:`reference_loop` on the reference host
#: (2-core x86, Python 3.11, quiet phase)
REF_LOOP_S = 1.1e-3


def _chase_table(size: int, seed: int) -> List[int]:
    """A random cyclic permutation: ``table[i]`` is the successor of ``i``."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    table = [0] * size
    for here, there in zip(order, order[1:] + order[:1]):
        table[here] = there
    return table


#: a random walk over ~150 kB of list slots and int objects, which each
#: slice of the program evicts from the core's private caches: the walk
#: measures the latency of the shared cache that neighbours contend for
_WALK = _chase_table(1 << 12, 8)


def reference_loop() -> float:
    """Time the fixed reference work once; returns its wall seconds.

    The work is integer arithmetic, ``hashlib`` and a random table walk
    in about 2:2:1 parts of time, the blend whose calibrated metrics
    spread least over eight runs of each workload among the mixes of
    arithmetic, hashing, object access and table walks tried.  It
    allocates no container objects and runs with the garbage collector
    paused, so its time does not depend on the size of the program's
    heap around it.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for index in range(2700):
            acc = (acc * 1103515245 + index) & 0xFFFFFFFF
        block = b"perfbench reference block " * 40
        for _ in range(220):
            block = hashlib.sha256(block).digest() * 32
        walk = _WALK
        node = acc & 0xFFF
        for _ in range(5000):
            node = walk[node]
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def references(count: int) -> List[float]:
    """``count`` consecutive reference timings."""
    return [reference_loop() for _ in range(count)]


def calibrated(wall_s: float, reference_s: float) -> float:
    """``wall_s`` at the reference host's speed."""
    return wall_s * REF_LOOP_S / reference_s


def calibrated_series(walls: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Calibrate each wall time by the references taken right before and after it.

    ``refs`` has one timing more than ``walls``: ``refs[i]`` and
    ``refs[i + 1]`` bracket ``walls[i]``.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError(f"{len(walls)} wall times need {len(walls) + 1} references, got {len(refs)}")
    return [
        calibrated(wall, (refs[index] + refs[index + 1]) / 2) for index, wall in enumerate(walls)
    ]
