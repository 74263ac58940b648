"""Brute-force cross-checks of the classification on finite windows.

Aperiodicity cannot be verified on a window; what can be verified is that
every candidate period up to a bound is falsified by a concrete witness
pair.  Cascade members provide such witnesses cheaply for deep candidates;
everything is still checked against the actual symbols before being
reported.

The window rule: every period the oracle checks fits twice in the window
of n terms.  That holds for each candidate p <= max_period (n >= 2 *
max_period) and for the period a periodic verdict claims (n >= 2 * claim).

One decision.  Let e be the smallest period p <= n/2 of the window, or
None.  Then a p <= n/2 is a period of the window exactly when e divides
p.  Proof: a multiple of a period is a period, since seq[k] = seq[k + e]
= ... = seq[k + p] whenever k + p < n.  Conversely let p be a period, so
e is not None and e <= p.  By the theorem of Fine and Wilf (N. J. Fine
and H. S. Wilf, *Uniqueness theorems for periodic functions*, Proc. AMS
16 (1965), 109-114), a word of length n >= p + q - gcd(p, q) with
periods p and q also has period gcd(p, q).  Here e + p <= n, so
gcd(e, p) <= e is a period, and it equals e because e is the smallest;
hence e divides p.  So one search for e decides both kinds of verdict: a
periodic claim holds exactly when e divides it, and an aperiodic verdict
holds exactly when e is None or e > max_period.  When an aperiodic
verdict fails, e is the first candidate that no pair of the window
falsifies.

The window is a +-1 Kronecker window packed into a single int, as
``symbols.kronecker_bits`` hands it over (bit k set exactly when entry k
is -1), and written once as text: its binary digits, entry k as
character k.  The period search, the witnesses and the exact recheck
all read that text.

The smallest period is found by substring search, not candidate by
candidate: the window has period p exactly when its suffix from
character p is a prefix of it.  For p <= n/2 that suffix starts with the
first n - n/2 characters, so only the places where that prefix recurs,
found by ``str.find``, are candidates.  :func:`empirical_period` takes
any hashable values and codes each distinct value as one character, so
the same search serves both.

The witness for a candidate p that no cascade pair falsifies is the
lexicographically first pair (i, j), j = i mod p, with seq[i] != seq[j]:
i is the lowest residue class mod p whose slice text[i::p] holds the
character other than its first, and j = i + p*q for the first place q of
that character in the slice (every class-i entry before j equals
seq[i]).  Most candidates are settled in class 0, so a witness costs
about one slice of n/p characters: on the aperiodic 1,500-term windows
of the bench's seed 0-7 ``verify-window`` blocks, 3,318 of 3,480
candidates were, and the worst took class 44.  A cascade pair
(k, k + gap) shows a difference when text[k] != text[k + gap].

The window comes from the lane pass of ``symbols``, which the analysis
does not use: :func:`~kronseq.analysis.analyze` carries its one
certifying sign on its exact walk.  The lane pass carries its running
sign c_k from term to term, so :func:`cross_check` rechecks window
symbols against the random-access exact symbol of
``symbols._kronecker_at``, which does not use that running sign: both
indices of the first and the last falsification witness on an
aperiodic verdict, and the last window term on a periodic one.
"""

from __future__ import annotations

from ._record import Record, _set
from .analysis import Aperiodic, Classification, PeriodAnalysis, analyze, classify
from .cf import PeriodicCF
from .errors import OracleMismatch, WindowTooShort
from .symbols import _kronecker_at, kronecker_bits

__all__ = ["PeriodReport", "empirical_period", "cross_check"]

DEFAULT_WINDOW = 600


class PeriodReport(Record):
    __slots__ = ("window_length", "empirical_period", "falsified_periods",
                 "verdict_agreement")

    def __init__(self, window_length: int, empirical_period: int | None,
                 falsified_periods: tuple[tuple[int, tuple[int, int]], ...],
                 verdict_agreement: bool):
        _set(self, "window_length", window_length)
        _set(self, "empirical_period", empirical_period)
        _set(self, "falsified_periods", falsified_periods)
        _set(self, "verdict_agreement", verdict_agreement)


def _smallest_period(text):
    """Smallest p <= len(text)/2 with text[p:] a prefix of text, or None
    (module docstring)."""
    n = len(text)
    head = text[:n - n // 2]
    q = text.find(head, 1)
    while q > 0:
        if text.startswith(text[q:]):
            return q
        q = text.find(head, q + 1)
    return None


def _witness(text, p):
    """First pair (i, j), j = i mod p, with differing characters of the
    two-character window text, or None; p <= len(text)/2 (module
    docstring)."""
    for i in range(p):
        cls = text[i::p]
        q = cls.find("1" if cls[0] == "0" else "0")
        if q > 0:
            return (i, i + p * q)
    return None


def empirical_period(seq) -> int | None:
    """Smallest p <= len(seq)/2 consistent with the whole window, or None."""
    if len(seq) < 4:
        raise WindowTooShort(f"window of {len(seq)} is too short")
    code = {v: chr(c) for c, v in enumerate(dict.fromkeys(seq))}
    return _smallest_period("".join(map(code.__getitem__, seq)))


def _cascade_pairs(steps, period):
    """(k, gap) for each cascade step (k, r) and d in (1, 3), gap = d *
    2^(r+1) * period: the symbols at k and k + gap should differ, so the
    pair falsifies each candidate p dividing gap, once the window holds
    k + gap and shows the difference."""
    return [(k, d * (1 << (r + 1)) * period) for k, r in steps for d in (1, 3)]


def _recheck_exact(cf, period, text, indices):
    # character k of the window text is "1" iff (s_k/t_k) = -1
    for k, exact in _kronecker_at(cf, period, indices).items():
        symbol = -1 if text[k] == "1" else 1
        if exact != symbol:
            raise OracleMismatch(
                f"{cf}: window symbol {symbol:+d} at {k} differs from the "
                f"exact Kronecker symbol")


def cross_check(cf: PeriodicCF, window: int | None = None, max_period: int | None = None,
                analysis: PeriodAnalysis | None = None,
                verdict: Classification | None = None) -> PeriodReport:
    """Replay the classification against the literal symbol window.

    Periodic verdicts must be consistent with their claimed period on the
    window; aperiodic verdicts must falsify every candidate period up to
    max_period (default 4 times the analysis period).  Every period checked
    fits twice in the window (the window rule of the module docstring): the
    default window is max(600, 2 * max_period, 2 * claimed period), and a
    shorter explicit window raises WindowTooShort.  Both verdicts are then
    decided by the smallest period e <= window/2 alone, since a p <=
    window/2 is a period exactly when e divides p (Fine and Wilf, proved in
    the module docstring).  A periodic claim raises OracleMismatch, naming
    its first witness pair, when e is None or does not divide it.  An
    aperiodic verdict with e <= max_period raises OracleMismatch at
    candidate e, except when the window is too short to falsify it: when
    the first cascade pair that e divides lies past the window,
    WindowTooShort names the window that pair needs.  Otherwise each
    candidate is named a witness: the first cascade pair inside the window
    that shows differing symbols and whose gap the candidate divides, or
    else the first pair of the window.  ``analysis`` and ``verdict``, when
    given, are the results of :func:`~kronseq.analysis.analyze` and
    :func:`~kronseq.analysis.classify` for ``cf``; when they are not, the
    verdict is classified from the analysis, whose walk seeds the cascade.

    The window comes from the lane pass of ``symbols``, which carries its
    sign c_k from term to term, so window symbols are rechecked against
    the random-access exact symbol ``symbols._kronecker_at`` at the
    analysis period, and any difference raises OracleMismatch too.  On an
    aperiodic verdict these are both indices of the first and the last
    witness (those of candidates 1 and max_period), on a periodic one the
    last window term.  The random-access symbol does not use the running
    sign, so a slip in it anywhere before the largest rechecked index (any
    odd number of slips, for the periodic recheck) flips a rechecked
    symbol; a single wrong term elsewhere goes unseen.  On the 1,500-term
    windows of the bench's seed 0-3 ``verify-window`` blocks (best of 40,
    shared 2-vCPU host), the aperiodic recheck took 0.02-0.05 ms (an
    exact walk to the last witness and exact symbols on it took 0.08-1.0
    ms) and the periodic one 0.02-0.10 ms, out of 0.23-0.60 ms for the
    whole call, 0.16-0.35 ms of it the lane pass of the window;
    rechecking every witness would take 0.3-1.5 ms, more than the rest of
    the call.
    """
    if max_period is not None and max_period < 1:
        raise ValueError("max_period must be >= 1")
    if analysis is None:
        analysis = analyze(cf)
    if verdict is None:
        verdict = classify(cf, analysis=analysis)
    P = max_period if max_period is not None else 4 * analysis.period
    claim = 0 if isinstance(verdict, Aperiodic) else verdict.period
    if window is None:
        window = max(DEFAULT_WINDOW, 2 * P, 2 * claim)
    if window < 2 * P:
        raise WindowTooShort(f"window {window} < 2*{P}")
    if window < 2 * claim:
        raise WindowTooShort(
            f"window {window} is too short to check the claimed period {claim} "
            f"of {cf}: it needs a window of {2 * claim}")
    # entry k of the window is character k of its text
    text = format(kronecker_bits(cf, window), f"0{window}b")[::-1]
    e = _smallest_period(text)

    falsified = []
    if claim:
        if e is None or claim % e:
            i, j = _witness(text, claim)
            raise OracleMismatch(
                f"{cf} classified periodic with period {claim}, but "
                f"symbols at {i} and {j} differ")
        _recheck_exact(cf, analysis.period, text, (window - 1,))
    else:
        pairs = _cascade_pairs(verdict.cascade, analysis.period)
        if e is not None and e <= P:
            pair = next(((k, k + gap) for k, gap in pairs if gap % e == 0), None)
            if pair is not None and pair[1] >= window:
                raise WindowTooShort(
                    f"window {window} is too short to falsify period {e} of "
                    f"{cf}: its first cascade pair {pair} needs a window of "
                    f"{pair[1] + 1}")
            raise OracleMismatch(
                f"{cf} classified aperiodic but period {e} holds on a "
                f"window of {window}")
        # the pairs that show a difference, in cascade order
        shown = [(gap, (k, k + gap)) for k, gap in pairs
                 if k + gap < window and text[k] != text[k + gap]]
        for p in range(1, P + 1):
            for gap, pair in shown:
                if gap % p == 0:
                    break
            else:
                pair = _witness(text, p)
            falsified.append((p, pair))
        _recheck_exact(cf, analysis.period, text,
                       falsified[0][1] + falsified[-1][1])
    if window < 4:
        raise WindowTooShort(f"window of {window} is too short")
    return PeriodReport(window, e, tuple(falsified), True)
