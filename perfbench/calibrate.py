"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the same CPU-bound work runs up to twice as slow for
seconds to minutes when another tenant is busy on the same core, and the
slowdown reaches every process alike.  ``calibrate`` times a few
milliseconds of pure-Python work of the same kind as the library's, and the
benchmark runs it between the stages of every pass.  Dividing a stage's
time by the calibration time next to it removes most of the host's drift;
``REFERENCE_S`` converts the quotient back to seconds.

The computation is frozen: it must never change, or every time the
benchmark reports changes with it.  It uses only the standard library, so a
change to the package cannot speed it up or slow it down, and the garbage
collector is off while it runs, so the size of the package's heap does not
reach it either.
"""

import gc
import time
from fractions import Fraction

# calibrate() in a quiet spell on the 2-vCPU Intel Xeon host the benchmark
# was tuned on, Python 3.11.7.  A reported time is wall time scaled by
# REFERENCE_S / (the calibration time measured next to it).
REFERENCE_S = 0.0075


class _Residue:
    """A residue mod p as a small object, like the library's ``Fp``."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __mul__(self, other):
        return _Residue(self.v * other.v, self.p)

    def __add__(self, other):
        return _Residue(self.v + other.v, self.p)

    def __eq__(self, other):
        return self.v == other.v

    def __hash__(self):
        return self.v


def _work() -> int:
    residues = [_Residue(i, 13) for i in range(13)]
    acc = _Residue(0, 13)
    for _ in range(25):
        for a in residues:
            for b in residues:
                acc = acc + a * b
    table, hits = {}, 0
    for _ in range(6):
        for a in residues:
            for b in residues:
                table[(a, b)] = (a * a + b * b, a * b)
        for (a, b), (q, r) in table.items():
            hits += q == r
    x, y, s = Fraction(3, 7), Fraction(5, 11), Fraction(0)
    for i in range(200):
        s = (s + x * y) / (y + i) - x
    return acc.v + hits + s.denominator % 13


def calibrate() -> float:
    """Seconds that one run of the reference computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
