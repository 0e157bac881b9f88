"""A probe of the host's speed, taken inside a pass while the program runs.

The host is shared, and how fast it runs Python drifts by up to a factor
of two over minutes and changes within a single pass.  An interval timer
interrupts the pass every PERIOD_S of wall time, and the handler times a
fixed piece of arithmetic that uses none of torsion13.  The mean probe
time over a pass tells how fast the host ran during that pass; no change
to the program moves it.  The handler runs between the program's
bytecodes, in the same process and on the same CPU.  The time spent in
the handler is taken out of every timing of the pass.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.2

# The probe time of a quiet host, to which timings are scaled: the median
# of _work() run by itself on a 2-vCPU Xeon VM with Python 3.11.7 when the
# benchmark was written.
QUIET_S = 0.0017


class _Residue:
    """An element of Z/pZ as an object with operators, as the program's are."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        self.p = p
        self.value = value % p

    def _other(self, other):
        return other.value if isinstance(other, _Residue) else other

    def __add__(self, other):
        return _Residue(self.p, self.value + self._other(other))

    def __mul__(self, other):
        return _Residue(self.p, self.value * self._other(other))

    def __eq__(self, other):
        return self.value == self._other(other)

    __hash__ = None


_RESIDUES = [_Residue(31, x) for x in range(31)]


def _work() -> int:
    """Object arithmetic over F_31 and Fraction sums with a dict: about the
    mix of the program, which slows and speeds up with the host as it does."""
    points = 0
    for u in _RESIDUES[:12]:
        fu = u * u * u + 3
        for v in _RESIDUES:
            if v * v + u * v == fu:
                points += 1
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 3)
    counts = {}
    for i in range(600):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return points + total.numerator % 7 + len(counts)


class Probe:
    """While entered, times _work() every PERIOD_S from a SIGALRM handler."""

    def __init__(self):
        self.times = []
        self.starts = []  # perf_counter() at the start of each probe
        self.total_s = 0.0

    def _tick(self, signum, frame):
        # the probe frees all it allocates, so with the collector paused it
        # leaves the program's collections where they were
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _work()
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.times.append(elapsed)
        self.starts.append(start)
        self.total_s += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
