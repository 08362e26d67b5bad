"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the speed
those cores give a single Python thread drifts by 30-60% for seconds to
minutes at a time.  Every run meets a different mix, so raw wall times of the
same code spread more between runs than any useful regression bound.

``loop`` is a small fixed pure-Python workload of the same kind as
couplefix's own (float arithmetic, calls, dict stores).  It is part of the
benchmark, not of the program, so no change to couplefix moves it.  Timed
right before and right after a job, it tells how fast the host was while the
job ran, and ``normalise`` rescales the job's wall time to a host on which
``loop`` takes ``REFERENCE_S`` seconds.  Host drift then cancels out, while a
change that makes couplefix itself faster or slower moves the result in full.
This holds while a job leaves nothing running when it returns: a thread or
process still busy would slow the loop and make the job read as faster.
"""

from __future__ import annotations

from time import perf_counter

#: Seconds ``loop`` takes on an uncontended core of an Intel Xeon VM (the
#: machine the benchmark was written on); normalised times are seconds on a
#: host that runs ``loop`` this fast.  A fixed constant, never re-measured.
REFERENCE_S = 0.010


def loop(n: int = 60_000) -> float:
    s = 0.0
    d = {}
    for i in range(n):
        x = i * 0.5
        s += abs(x - 3.0) / (1.0 + x)
        d[i & 63] = s
    return s


def timed_loop() -> float:
    """Wall seconds of one ``loop``."""
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def normalise(wall: float, before: float, after: float) -> float:
    """``wall`` seconds, rescaled by the reference timed before and after it."""
    return wall * REFERENCE_S / ((before + after) / 2)
