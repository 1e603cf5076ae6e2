"""The machine's speed, sampled between commands, to normalise timings.

A shared VM's CPU speed drifts by ±25 % over tens of seconds and minutes
(neighbours on the host, not steal time: wall time equals CPU time), which
no run length within the time budget averages out. So the timed loop runs a
fixed kernel every `EVERY_S` seconds, between commands, and every timing is
scaled by ``REFERENCE_S / local kernel time``: it reads what it would on a
machine where one kernel sample takes `REFERENCE_S`. The kernel mixes an
interpreter loop with numpy and LAPACK calls on small arrays, like the
commands, and does not touch ``compose_approx``, so a change to the package
moves the scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

EVERY_S = 0.25  # loop seconds between samples; a sample costs about 3 ms
REFERENCE_S = 0.9e-3  # median sample on the baseline's machine (README.md)
NEIGHBOURS = 2  # samples taken on each side of a command that set its scale

_X = np.linspace(-1.0, 1.0, 1025)


def _kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sin(i * 1e-3) * (i % 7)
    vander = np.polynomial.chebyshev.chebvander(_X, 24)
    coef = np.linalg.lstsq(vander, np.exp(_X), rcond=None)[0]
    return s + float(coef[0])


def sample() -> float:
    """Seconds for one kernel run: the median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Factor that takes a timing over [start, end] to the reference speed.

    `samples` are (time, kernel seconds) in time order; the local speed is
    the median of the `NEIGHBOURS` samples before `start` and after `end`.
    """
    times = [t for t, _ in samples]
    lo = bisect.bisect_right(times, start)
    hi = bisect.bisect_left(times, end)
    near = samples[max(0, lo - NEIGHBOURS):lo] + samples[hi:hi + NEIGHBOURS]
    return REFERENCE_S / statistics.median(s for _, s in near)
