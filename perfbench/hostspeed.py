"""How fast the host runs right now, relative to the host the baseline was taken on.

The shared 2-vCPU host the baseline was measured on changes speed by itself:
the same child ran between 0.7x and 1.3x its median time, in phases lasting
seconds to minutes, with CPU time tracking wall time (so the cause is the
CPU's speed, not waiting).  A fixed reference computation, timed right before
and right after each child, measures that speed; run.py divides each child's
wall time by it.

The reference uses only the standard library, never ecinj, so a change to the
program cannot move it.  Its three parts follow the program's own mix of work:
small-integer arithmetic with dict inserts (the collision indexes), big-integer
multiply, divide and format (the exact layer and CSV output), and `Fraction`
arithmetic (the group law over Q).  REFERENCE_S holds each part's median
time on the baseline host (Intel Xeon KVM guest, 2 vCPUs, Python 3.11.7), so
slowness 1.0 means that host at its median speed.
"""

import time
from fractions import Fraction

REFERENCE_S = (0.0040, 0.0143, 0.0078)
REPEATS = 2  # each part is timed this often; its fastest time counts

_BIG_A = 3**30000
_BIG_B = 7**20000


def _ints_and_dict():
    index = {}
    a = 1
    for i in range(6000):
        a = a * 48271 % 2147483647
        index[(a, i & 1023)] = i
        if i % 64 == 0:
            pow(a, 2147483645, 2147483647)


def _big_ints():
    for _ in range(2):
        c = _BIG_A * _BIG_B
        str(c % 10**600)
        c // (_BIG_B + 1)


def _fractions():
    x, y = Fraction(1, 3), Fraction(5, 7)
    for i in range(1, 150):
        x = x + Fraction(i, i + 1) * y
        y = y * Fraction(2 * i + 1, 3 * i + 2) - x / (i + 1)


PARTS = (_ints_and_dict, _big_ints, _fractions)


def _fastest(part) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        part()
        best = min(best, time.perf_counter() - t0)
    return best


def slowness() -> float:
    """Mean over the parts of (time now / time on the baseline host); 1.2 means 20% slower."""
    return sum(_fastest(part) / ref for part, ref in zip(PARTS, REFERENCE_S)) / len(PARTS)


class Clock:
    """Turns a child's wall time into seconds at the baseline host's median speed.

    Call `adjusted` right after each child ends: the child's wall time is
    divided by the mean of the slowness measured before it (after the
    previous child) and the slowness measured now.
    """

    def __init__(self):
        slowness()  # the first call pays for warming the interpreter's caches
        self.last = slowness()

    def adjusted(self, wall: float) -> float:
        before, self.last = self.last, slowness()
        return wall / ((before + self.last) / 2)
