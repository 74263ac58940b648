"""Calibration: fixed pure-Python work timed next to every measurement, so
that times can be given at one reference speed of the machine.

A shared host changes speed by up to ~2x for seconds to minutes: other
tenants take cache, memory bandwidth and clock.  The end-to-end times are
therefore scaled: a time t measured between two calibrations that took c1
and c2 seconds is reported as ``t * REFERENCE_S / ((c1 + c2) / 2)``.  When
the machine slows down, the calibration slows with the program and the
scaled time stays put; when the program gets faster, only t moves.

The work is shaped like kronseq's: a generator of frozen dataclasses
yields the convergents of a few periodic continued fractions, the Jacobi
symbol of each pair is taken by the binary algorithm on integers of up to
a few hundred bits, and the symbols are joined and written as JSON.  Code
of that shape slows down with the program; on a 2-vCPU host, a kernel of
Jacobi symbols on integers of thousands of bits slowed 1.35x when the
program slowed 2x, and scaling by it left run-to-run spreads about twice
as wide as this work does.  It uses no kronseq code, so a change to the
program does not move it.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass

# About the seconds one calibration takes on a 2-vCPU x86-64 host with
# Python 3.11, so that scaled times are close to raw ones there.
REFERENCE_S = 0.02

BLOCKS = ((1, 2, 5), (3, 1, 4, 1, 5), (2, 7, 1, 8, 2, 8), (1, 1, 2), (4, 3, 9), (6, 1, 1, 5))
TERMS = 200


@dataclass(frozen=True)
class _Convergent:
    k: int
    s: int
    t: int


def _convergents(block, count):
    s0, s1, t0, t1 = 1, block[0], 0, 1
    for k in range(count):
        yield _Convergent(k, s1, t1)
        a = block[(k + 1) % len(block)]
        s0, s1 = s1, a * s1 + s0
        t0, t1 = t1, a * t1 + t0


def _jacobi(a, n):
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _work():
    rows = []
    for block in BLOCKS:
        symbols = [_jacobi(c.s, c.t) if c.t % 2 else None for c in _convergents(block, TERMS)]
        rows.append({"block": list(block),
                     "symbols": "".join("*" if x is None else "0+-"[x] for x in symbols)})
    return json.dumps(rows)


def calibrate() -> float:
    """Seconds one calibration takes now.  The collector is off while it
    runs (the work makes no cycles), so that what the program left on the
    heap does not change its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between calibrations of ``before`` and ``after``
    seconds, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
