"""Brute-force cross-checks of the classification on finite windows.

Aperiodicity cannot be verified on a window; what can be verified is that
every candidate period up to a bound is falsified by a concrete witness
pair.  Cascade members provide such witnesses cheaply for deep candidates;
everything is still checked against the actual symbols before being
reported.

The window is packed into a single int x, ``width`` bits per entry (one
bit for a +-1 Kronecker window, as ``symbols.kronecker_bits`` hands it
over; a few when more values occur, as with the STAR entries of a Jacobi
window): entry k sits in bits [k*width, (k+1)*width), equal entries get
equal codes.  With d = (x ^ (x >> p*width)) masked to the first n-p
entries, entry k of d is nonzero exactly when seq[k] != seq[k+p].  So p
is a period of the window iff d == 0, and each candidate costs a few
big-int word operations over the window instead of a copy of it.

The smallest period is found by substring search, not candidate by
candidate: written as text, entry 0 first, the window has period p
exactly when its suffix from entry p is a prefix of it.  For p <= n/2 that suffix starts with the first
n - n/2 entries, so only the aligned places where that prefix recurs,
found by ``str.find``, are candidates.

The witness for a candidate p that no cascade member falsifies is the
lexicographically first pair (i, j), j = i mod p, with seq[i] != seq[j]:
i is the lowest residue class mod p that holds a nonzero entry of d (found
by OR-folding d onto its first p entries with doubling shifts), and
j = q + p for the first such entry q of d in class i (every class-i entry
before q equals seq[i], and seq[q+p] does not).

The window comes from the lane pass of ``symbols``, which the analysis
does not use: :func:`~kronseq.analysis.analyze` carries its one
certifying sign on its exact walk.  The lane pass carries its running sign c_k from
term to term, so :func:`cross_check` rechecks the symbols at both indices
of the first and the last falsification witness against exact
``kronecker(s_k, t_k)`` on exact convergents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (Aperiodic, Classification, DEFAULT_PRECISION,
                       PeriodAnalysis, analyze, classify)
from .cf import PeriodicCF, _v2, iter_convergent_pairs
from .errors import OracleMismatch, WindowTooShort
from .symbols import kronecker, kronecker_bits

__all__ = ["PeriodReport", "empirical_period", "cross_check"]

DEFAULT_WINDOW = 600


@dataclass(frozen=True)
class PeriodReport:
    window_length: int
    empirical_period: int | None
    falsified_periods: tuple[tuple[int, tuple[int, int]], ...]
    verdict_agreement: bool


class _PackedWindow:
    """A window of n entries packed into one int, ``width`` bits each
    (module docstring)."""

    __slots__ = ("bits", "n", "width")

    def __init__(self, bits, n, width=1):
        self.bits = bits
        self.n = n
        self.width = width

    @classmethod
    def of(cls, seq):
        """Pack a sequence of hashable entries, equal entries to equal codes."""
        values = set(seq)
        width = max(1, (len(values) - 1).bit_length())
        code = {v: format(c, f"0{width}b") for c, v in enumerate(values)}
        # entry 0 is the last character, so it lands in the lowest bits
        bits = int("".join(map(code.__getitem__, reversed(seq))) or "0", 2)
        return cls(bits, len(seq), width)

    def entry(self, k):
        return (self.bits >> (k * self.width)) & ((1 << self.width) - 1)

    def mismatches(self, p):
        """Entry k is nonzero iff seq[k] != seq[k+p], for k < n - p (p <= n)."""
        x = self.bits
        return (x ^ (x >> (self.width * p))) & ((1 << (self.width * (self.n - p))) - 1)

    def period(self):
        """Smallest p <= n/2 consistent with the whole window, or None."""
        n, width = self.n, self.width
        if n < 4:
            raise WindowTooShort(f"window of {n} is too short")
        # entry k is text[k*width:(k+1)*width], its bits reversed
        text = format(self.bits, f"0{n * width}b")[::-1]
        head = text[:(n - n // 2) * width]
        q = text.find(head, width)
        while 0 < q <= n // 2 * width:
            if q % width == 0 and text.startswith(text[q:]):
                return q // width
            q = text.find(head, q + 1)
        return None

    def witness(self, p):
        """First pair (i, j), j = i mod p, with differing entries, or None."""
        if p >= self.n:  # no pair of entries p apart: p holds vacuously
            return None
        d = self.mismatches(p)
        if not d:
            return None
        width, span, used = self.width, self.width * p, self.width * (self.n - p)
        g, m, shift = d, (1 << width) - 1, span
        while shift < used:
            g |= g >> shift
            m |= m << shift
            shift <<= 1
        # entry i of g is nonzero iff class i mod p holds a mismatch, and
        # m << i*width covers every class-i entry of d
        i = _v2(g & ((1 << span) - 1)) // width
        q = _v2(d & (m << (i * width))) // width
        return (i, q + p)


def empirical_period(seq) -> int | None:
    """Smallest p <= len(seq)/2 consistent with the whole window, or None."""
    return _PackedWindow.of(seq).period()


def _cascade_witness(window, p, period, steps):
    for k, r in steps:
        for d in (1, 3):
            gap = d * (1 << (r + 1)) * period
            j = k + gap
            if j < window.n and gap % p == 0 and window.entry(j) != window.entry(k):
                return (k, j)
    return None


def _recheck_exact(cf, window, indices):
    # one exact walk of the convergents up to the largest index; the
    # window is a Kronecker window, bit k set iff (s_k/t_k) = -1
    wanted = set(indices)
    for k, (s, t) in zip(range(max(wanted) + 1), iter_convergent_pairs(cf)):
        if k not in wanted:
            continue
        symbol = -1 if window.entry(k) else 1
        if kronecker(s, t) != symbol:
            raise OracleMismatch(
                f"{cf}: window symbol {symbol:+d} at {k} differs from the "
                f"exact Kronecker symbol")


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

    The window comes from the lane pass of ``symbols``, so the symbols at
    both indices of the first and the last witness (those of candidates 1
    and max_period) are rechecked with exact
    ``kronecker(s_k, t_k)`` on one walk of the exact convergents, and any
    difference raises OracleMismatch too.  Only these two are rechecked
    because an exact symbol on convergents thousands of bits long costs
    far more than a lane-pass term: on 1,500-term windows, rechecking every
    witness takes longer than the rest of the call.  The pass carries its
    sign c_k from term to term, so a slip in that sign anywhere before the
    largest rechecked index flips a rechecked symbol; a single wrong term
    elsewhere goes unseen.
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
    packed = _PackedWindow(kronecker_bits(cf, window), window)

    if isinstance(verdict, Aperiodic):
        falsified = []
        for p in range(1, P + 1):
            witness = (_cascade_witness(packed, p, analysis.period, verdict.cascade)
                       or packed.witness(p))
            if witness is None:
                raise OracleMismatch(
                    f"{cf} classified aperiodic but period {p} holds on a "
                    f"window of {window}")
            falsified.append((p, witness))
        _recheck_exact(cf, packed, falsified[0][1] + falsified[-1][1])
        return PeriodReport(window, packed.period(), tuple(falsified), True)

    claimed = verdict.period
    witness = packed.witness(claimed)
    if witness is not None:
        i, j = witness
        raise OracleMismatch(
            f"{cf} classified periodic with period {claimed}, but symbols at "
            f"{i} and {j} differ")
    return PeriodReport(window, packed.period(), (), True)
