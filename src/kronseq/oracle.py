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

The window is a +-1 Kronecker window packed into a single int x, as
``symbols.kronecker_bits`` hands it over: bit k is set exactly when entry
k is -1.  With d = (x ^ (x >> p)) masked to the first n-p bits, bit k of
d is set exactly when seq[k] != seq[k+p].  So p is a period of the window
iff d == 0, and each witness costs a few big-int word operations over
the window instead of a copy of it.

The smallest period is found by substring search, not candidate by
candidate: written as text, entry k as character k, the window has
period p exactly when its suffix from character p is a prefix of it.
For p <= n/2 that suffix starts with the first n - n/2 characters, so
only the places where that prefix recurs, found by ``str.find``, are
candidates.  The packed window is written as its binary digits, entry 0
first; :func:`empirical_period` takes any hashable values and codes each
distinct value as one character, so the same search serves both.

The witness for a candidate p that no cascade pair falsifies is the
lexicographically first pair (i, j), j = i mod p, with seq[i] != seq[j]:
i is the lowest residue class mod p that holds a set bit of d (found by
OR-folding d onto its first p bits with doubling shifts), and j = q + p
for the first such bit q of d in class i (every class-i entry
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
from .cf import PeriodicCF, _pairs_at, _v2
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


def _witness(bits, n, p):
    """First pair (i, j), j = i mod p, with differing entries of the
    n-entry window bits, or None; p <= n/2 (module docstring)."""
    d = (bits ^ (bits >> p)) & ((1 << (n - p)) - 1)
    if not d:
        return None
    g, m, shift = d, 1, p
    while shift < n - p:
        g |= g >> shift
        m |= m << shift
        shift <<= 1
    # bit i of g is set iff class i mod p holds a mismatch, and m << i
    # covers every class-i bit of d
    i = _v2(g & ((1 << p) - 1))
    return (i, _v2(d & (m << i)) + p)


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


def _recheck_exact(cf, bits, indices):
    # one exact walk of the convergents up to the largest index; bit k of
    # the Kronecker window is set iff (s_k/t_k) = -1
    for k, (s, t) in _pairs_at(cf, indices).items():
        symbol = -1 if bits >> k & 1 else 1
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
    given, are the results of :func:`analyze` and :func:`classify` for
    ``cf``.

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
    claim = 0 if isinstance(verdict, Aperiodic) else verdict.period
    if window is None:
        window = max(DEFAULT_WINDOW, 2 * P, 2 * claim)
    if window < 2 * P:
        raise WindowTooShort(f"window {window} < 2*{P}")
    if window < 2 * claim:
        raise WindowTooShort(
            f"window {window} is too short to check the claimed period {claim} "
            f"of {cf}: it needs a window of {2 * claim}")
    bits = kronecker_bits(cf, window)
    # entry k of the window is character k of its text
    e = _smallest_period(format(bits, f"0{window}b")[::-1])

    falsified = []
    if claim:
        if e is None or claim % e:
            i, j = _witness(bits, window, claim)
            raise OracleMismatch(
                f"{cf} classified periodic with period {claim}, but "
                f"symbols at {i} and {j} differ")
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
                 if k + gap < window and (bits >> (k + gap) ^ bits >> k) & 1]
        for p in range(1, P + 1):
            witness = next((pair for gap, pair in shown if gap % p == 0), None)
            falsified.append((p, witness or _witness(bits, window, p)))
        _recheck_exact(cf, bits, falsified[0][1] + falsified[-1][1])
    if window < 4:
        raise WindowTooShort(f"window of {window} is too short")
    return PeriodReport(window, e, tuple(falsified), True)
