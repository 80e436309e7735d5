"""Host-speed normalization, percentile selection and spread.

``repro.perf.stats`` gives means and t-intervals (used for the printed
summary); order statistics come from :mod:`statistics`, so this module
adds only the selection rules the benchmark reports by.

A shared host's speed drifts: on the 2-core host the benchmark was tuned
on, the same code ran up to ±15% faster or slower over tens of seconds
(load on the sibling hardware thread), far more than the bounds a
regression is judged by.
So every timed interval is bracketed by a fixed probe (numpy sorts and
random gathers plus interpreter dict and list work, the kinds of work
the program does) and reported in *reference seconds*: wall seconds ×
:data:`REFERENCE_PROBE_S` ÷ the probe's wall time around the interval.
A change to the program moves reference seconds as it moves wall
seconds; a change in the host's speed moves both the interval and the
probe, and cancels.  The raw wall times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's wall seconds at the reference host speed (its typical
#: time on the 2-core host the benchmark was tuned on).
REFERENCE_PROBE_S = 0.014

#: Untimed probe calls when a probe is made.
WARM_PROBES = 3
#: The padding value of the probe's id matrix (sorts last).
PAD = 1 << 62

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one slow operation cannot set it alone.
MIN_BEYOND = 10


def tail_percentile(samples: list[float], percent: int = 90) -> float | None:
    """The ``percent``-th percentile of ``samples``, or None when fewer
    than :data:`MIN_BEYOND` samples lie beyond it (at p90: fewer than
    100 samples)."""
    if len(samples) * (100 - percent) < MIN_BEYOND * 100:
        return None
    return statistics.quantiles(samples, n=100)[percent - 1]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when the
    median is 0 and every value equals it)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


class HostProbe:
    """A fixed unit of work whose wall time measures the host's speed:
    a sort, a random gather from an array larger than a core's L2
    cache, a row-wise sort of a padded id matrix (the shape of proof
    tags), and dict and list work — the kinds of work the program does.
    It keeps about 6 MB of arrays resident."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.keys = rng.integers(0, 1 << 40, size=30_000)
        self.table = rng.random(1_000_000, dtype=np.float32)
        self.positions = rng.integers(0, len(self.table), size=100_000, dtype=np.int32)
        self.ids = rng.integers(0, 1 << 40, size=(1_500, 64))
        # The first calls run cold (page faults, allocator growth) and
        # would read the host as slower than it is.
        for _ in range(WARM_PROBES):
            self()

    def __call__(self) -> float:
        start = time.perf_counter()
        order = np.argsort(self.keys, kind="stable")
        np.unique(self.keys[order])
        self.table[self.positions].sum()
        rows = np.pad(self.ids, ((0, 0), (0, self.ids.shape[1])), constant_values=PAD)
        rows.sort(axis=1)
        (rows != PAD).sum(axis=1)
        table = {i: 2 * i for i in range(15_000)}
        [key for key in table if key % 3]
        return time.perf_counter() - start


class Normalized:
    """Times a callable in reference seconds; each interval is scaled by
    the mean of the probes just before and just after it (consecutive
    intervals share a probe)."""

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.before: float | None = None
        #: Raw wall seconds of every interval timed, in order.
        self.wall: list[float] = []

    def __call__(self, fn):
        if self.before is None:
            self.before = self.probe()
        start = time.perf_counter()
        output = fn()
        seconds = time.perf_counter() - start
        after = self.probe()
        self.wall.append(seconds)
        scaled = seconds * REFERENCE_PROBE_S * 2 / (self.before + after)
        self.before = after
        return output, scaled
