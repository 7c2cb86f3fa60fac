"""Host speed, for scaling the benchmark's times to a fixed speed.

The benchmark runs on shared virtual machines whose vCPUs switch, each
on its own and often several times a second, between a fast state and
one about half as fast, in proportions that drift over minutes (process
CPU time tracks wall time there, so it does not help).  No statistic of
raw times over a 30 s run is steadier than the host: on a 2-vCPU VM, the
mean call time of a fixed ``annotate`` loop over 30 s windows spread
0.10 (quartile distance / median over windows), and the times of one
0.3 s library pass moved between 0.18 and 0.47 s within a run.

So every timed stretch is bracketed by :func:`reference_s`, a fixed
pure-Python loop of the same kind of work the program does (dict and
list operations, string compares, small tuples), and reported at the
speed at which that loop takes :data:`NOMINAL_S`::

    scaled = measured * NOMINAL_S / mean(reference before, reference after)

On the same windows the scaled call time spread 0.03.  Over five runs
of 30 s, the median CLI pass time spread 0.18-0.21 as measured and
0.05-0.06 scaled (with the benchmark pinned to one CPU).  A scaled time is
what the program would take on a host of that speed; the reference loop
is part of the benchmark, not of the program, so a change to the program
moves the scaled times as it moves the real ones.
"""

from __future__ import annotations

import statistics
import time

#: Reference loop time at the nominal speed: about its median on the
#: 2-vCPU Xeon VM the benchmark was tuned on, so scaled times read close
#: to raw ones there.
NOMINAL_S = 0.0011
_WORDS = tuple(f"w{i:03d}" for i in range(64))
_ROUNDS = 3


def _reference_work() -> int:
    counts: dict[str, int] = {}
    spans = []
    for i in range(3500):
        word = _WORDS[i & 63]
        counts[word] = counts.get(word, 0) + 1
        if word < "w032":
            spans.append((i, i + len(word)))
    return len(spans) + len(counts)


def reference_s() -> float:
    """Median wall time of three runs of the reference loop, in seconds."""
    times = []
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning times measured between two reference readings
    into times at the nominal speed."""
    return 2 * NOMINAL_S / (before + after)
