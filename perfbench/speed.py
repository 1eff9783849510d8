"""Times scaled to a reference interpreter speed.

On a shared virtual machine (2 vCPUs, Intel Xeon at 2.1 GHz) the CPU speed
changed by up to 2x within seconds to minutes, and raw wall times of the
same code spread by 10-30% between runs.  A short fixed pure-Python kernel is therefore timed
before and after every measured call, and every PERIOD_S seconds during it
(from a SIGALRM handler whose own time is taken out of the call's time).
The call's time is multiplied by CAL_REF_S / (median kernel time), which gives
the seconds it would have taken on the reference machine.  Package code
never sees the handler, and outputs are unchanged.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# Median time of kernel() on the reference machine (2 vCPUs, Intel Xeon at
# 2.1 GHz, Python 3.11.7), so scaled times read as seconds there.
CAL_REF_S = 0.006
PERIOD_S = 0.25


_X = 3 ** 8000
_Y = 7 ** 5600 + 1
_Z = 3 ** 9000 + 1


def kernel() -> int:
    """A fixed mix of the kinds of interpreter work the package does, in
    about equal parts: small-int arithmetic, dict updates and bit operations;
    gcd and products of two integers with thousands of digits; gcd of one
    such integer with small ints; building small tuples and frozensets.
    Each kind slows by a different factor when the host is busy, so the mix
    tracks all three workloads better than any one kind alone."""
    acc, seen, mask = 0, {}, 0
    for j in range(4_000):
        key = (j * 7919) % 4099
        seen[key] = seen.get(key, 0) + 1
        mask |= 1 << (key & 511)
        acc += (mask >> (j & 255)).bit_count()
    for k in range(4):
        acc ^= math.gcd(_X + k, _Y) ^ ((_X * (_Y + k)) & 0xFFFF)
    for k in range(1, 300):
        acc ^= math.gcd(_Z, k)
    sets = [frozenset(tuple(range(i % 17))) for i in range(1_500)]
    return acc + len(sets)


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Runs calls and reports their time and the scale to reference speed."""

    def __init__(self):
        self._samples = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(sample())
        self._spent += time.perf_counter() - start

    def time(self, fn, *args, ticks=True):
        """Return (fn(*args), seconds fn ran, scale to reference speed).

        With ``ticks`` off, only the samples before and after are taken;
        use that when fn waits on another process, whose progress the
        handler would not delay."""
        self._samples = [sample()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick) if ticks else None
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            took = time.perf_counter() - start
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self._samples.append(sample())
        return result, took - self._spent, CAL_REF_S / statistics.median(self._samples)
