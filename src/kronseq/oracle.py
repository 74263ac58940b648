"""Brute-force cross-checks of the classification on finite windows.

Aperiodicity cannot be verified on a window; what can be verified is that
every candidate period up to a bound is falsified by a concrete witness
pair.  Cascade members provide such witnesses cheaply for deep candidates;
everything is still checked against the actual symbols before being
reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (Aperiodic, Classification, DEFAULT_PRECISION,
                       PeriodAnalysis, analyze, classify)
from .cf import PeriodicCF
from .errors import OracleMismatch, WindowTooShort
from .symbols import kronecker_sequence

__all__ = ["PeriodReport", "empirical_period", "falsify_period", "cross_check"]

DEFAULT_WINDOW = 600


@dataclass(frozen=True)
class PeriodReport:
    window_length: int
    empirical_period: int | None
    falsified_periods: tuple[tuple[int, tuple[int, int]], ...]
    verdict_agreement: bool


def empirical_period(seq) -> int | None:
    """Smallest p <= len(seq)/2 consistent with the whole window, or None."""
    n = len(seq)
    if n < 4:
        raise WindowTooShort(f"window of {n} is too short")
    for p in range(1, n // 2 + 1):
        if seq[p:] == seq[:-p]:
            return p
    return None


def _find_witness(seq, p):
    # first index pair (i, j), j = i mod p, with differing entries
    if seq[p:] == seq[:-p]:
        return None
    n = len(seq)
    for i in range(p):
        base = seq[i]
        for j in range(i + p, n, p):
            if seq[j] != base:
                return (i, j)
    return None


def falsify_period(cf: PeriodicCF, p: int, window: int):
    """A witness pair (i, j) with i = j mod p and differing Kronecker
    symbols inside the window, or None if the window is p-consistent."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if window < 2 * p:
        raise WindowTooShort(f"window {window} < 2*{p}")
    return _find_witness(kronecker_sequence(cf, window), p)


def _cascade_witness(seq, p, period, steps):
    for k, r in steps:
        for d in (1, 3):
            gap = d * (1 << (r + 1)) * period
            j = k + gap
            if j < len(seq) and gap % p == 0 and seq[j] != seq[k]:
                return (k, j)
    return None


def cross_check(cf: PeriodicCF, window: int | None = None,
                max_period: int | None = None,
                precision: int = DEFAULT_PRECISION,
                analysis: PeriodAnalysis | None = None,
                verdict: Classification | None = None) -> PeriodReport:
    """Replay the classification against the literal symbol window.

    Periodic verdicts must be consistent with their claimed period on the
    window; aperiodic verdicts must falsify every candidate period up to
    max_period (default 4 times the analysis period).  Any disagreement
    raises OracleMismatch.  ``analysis`` and ``verdict``, when given, are
    the results of :func:`analyze` and :func:`classify` for ``cf``.
    """
    if max_period is not None and max_period < 1:
        raise ValueError("max_period must be >= 1")
    if analysis is None:
        analysis = analyze(cf, precision)
    if verdict is None:
        verdict = classify(cf, precision, analysis=analysis)
    P = max_period if max_period is not None else 4 * analysis.period
    if window is None:
        window = max(DEFAULT_WINDOW, 2 * P)
    if window < 2 * P:
        raise WindowTooShort(f"window {window} < 2*{P}")
    seq = kronecker_sequence(cf, window)

    if isinstance(verdict, Aperiodic):
        falsified = []
        for p in range(1, P + 1):
            witness = _cascade_witness(seq, p, analysis.period, verdict.cascade)
            if witness is None:
                witness = _find_witness(seq, p)
            if witness is None:
                raise OracleMismatch(
                    f"{cf} classified aperiodic but period {p} holds on a "
                    f"window of {window}")
            falsified.append((p, witness))
        emp = empirical_period(seq)
        return PeriodReport(window, emp, tuple(falsified), True)

    claimed = verdict.period
    if seq[claimed:] != seq[:-claimed]:
        i, j = _find_witness(seq, claimed)
        raise OracleMismatch(
            f"{cf} classified periodic with period {claimed}, but symbols at "
            f"{i} and {j} differ")
    emp = empirical_period(seq)
    return PeriodReport(window, emp, (), True)
