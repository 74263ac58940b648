"""Period search, 2-adic decomposition, critical convergents, classification.

Let D(n) denote the convergent matrix at index n-1.  For an even multiple L
of the block length with D(L) = I mod 4, write D(L) = I + 2^m * U with U not
entirely even, and let e be the 2-adic valuation of U's lower-left entry.
An index k <= L-1 is critical when s_k = 3 mod 4 and 2^(m+e) divides t_k;
it is subcritical when s_k = 3 mod 4 and v2(t_k) = m+e-1 exactly.

The Kronecker sequence of the expansion is aperiodic exactly when a critical
index exists.  That dichotomy does not depend on which admissible L is used:
squaring sends (m, e) to (m+1, e), an odd multiple keeps both, and v2(t_k)
is carried along correspondingly, so critical indices exist for one
admissible base iff they exist for every other.

The identity-mod-4 condition alone does not force the Jacobi symbol
sequence to repeat with period L, and when it does not, L or 2L need not be
a period of the Kronecker sequence either.  Periodic-case period claims are
therefore made at the smallest admissible L that is also a certified period
of the Jacobi sequence (checked on a window long enough to be conclusive
for any true period within the search bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cf import (PeriodicCF, _mat_mul_mod, iter_convergent_pairs, matrix_at,
                 matrix_at_mod2)
from .errors import NoPeriodFound, NotAperiodic, PrecisionExhausted
from .symbols import jacobi_sequence

__all__ = [
    "PeriodAnalysis",
    "PeriodicL",
    "Periodic2L",
    "Aperiodic",
    "Classification",
    "mod4_period_length",
    "certified_period_length",
    "decompose",
    "critical_scan",
    "analyze",
    "classify",
    "threshold_valuation",
    "cascade",
    "DEFAULT_PRECISION",
    "MAX_PRECISION",
    "DEFAULT_DEPTH",
    "DEFAULT_MULTIPLIER_LIMIT",
]

DEFAULT_PRECISION = 128
MAX_PRECISION = 4096
DEFAULT_DEPTH = 8
DEFAULT_MULTIPLIER_LIMIT = 24


@dataclass(frozen=True)
class PeriodAnalysis:
    """2-adic data of one admissible period length.

    ``e`` is None when U's lower-left entry is zero (cannot happen for
    exact decompositions, where that entry is t_{period-1} / 2^m >= 1,
    but the field keeps the contract explicit).  ``certified`` records
    whether ``period`` is a verified period of the Jacobi sequence.
    """

    period: int
    m: int
    U: tuple[tuple[int, int], tuple[int, int]]
    e: int | None
    critical_indices: tuple[int, ...]
    subcritical_indices: tuple[int, ...]
    precision: int
    certified: bool

    @property
    def u(self):
        """Lower-left entry of U, reduced mod 2**precision."""
        return self.U[1][0]


@dataclass(frozen=True)
class PeriodicL:
    period: int


@dataclass(frozen=True)
class Periodic2L:
    period: int
    witness: int  # a subcritical index forcing the doubled period


@dataclass(frozen=True)
class Aperiodic:
    first_critical: int
    cascade: tuple[tuple[int, int], ...]


Classification = PeriodicL | Periodic2L | Aperiodic


def _is_identity_mod4(M):
    return (M.s % 4, M.s_prev % 4, M.t % 4, M.t_prev % 4) == (1, 0, 0, 1)


def mod4_period_length(cf: PeriodicCF, max_multiplier: int = DEFAULT_MULTIPLIER_LIMIT) -> int:
    """Smallest even multiple L of the block length with D(L) = I mod 4."""
    l = len(cf)
    for d in range(1, max_multiplier + 1):
        L = d * l
        if L % 2 == 0 and _is_identity_mod4(matrix_at(cf, L - 1)):
            return L
    raise NoPeriodFound(f"no admissible period length up to {max_multiplier}*{l} for {cf}")


def certified_period_length(cf: PeriodicCF, max_multiplier: int = DEFAULT_MULTIPLIER_LIMIT) -> int:
    """Smallest even multiple L with D(L) = I mod 4 that is also a period of
    the Jacobi sequence.

    The Jacobi sequence is purely periodic with some period within the
    search bound, so comparing shifted windows of length 2*bound certifies
    candidates exactly rather than merely empirically.
    """
    l = len(cf)
    bound = max_multiplier * l
    window = jacobi_sequence(cf, 2 * bound)
    for d in range(1, max_multiplier + 1):
        L = d * l
        if L % 2 or not _is_identity_mod4(matrix_at(cf, L - 1)):
            continue
        if window[L:] == window[:-L]:
            return L
    raise NoPeriodFound(f"no certified period length up to {max_multiplier}*{l} for {cf}")


def _v2(n):
    return (n & -n).bit_length() - 1


def decompose(cf: PeriodicCF, period: int, precision: int = DEFAULT_PRECISION):
    """Split D(period) = I + 2^m * U; returns (m, U mod 2**precision, e).

    Computed exactly (period lengths are small), then truncated; e is the
    exact valuation of U's lower-left entry, or None if that entry is zero.
    """
    if precision < 8:
        raise ValueError("precision must be >= 8")
    M = matrix_at(cf, period - 1)
    if not _is_identity_mod4(M):
        raise ValueError(f"D({period}) is not the identity mod 4 for {cf}")
    diff = (M.s - 1, M.s_prev, M.t, M.t_prev - 1)
    m = min(_v2(x) for x in diff if x != 0)
    mask = (1 << precision) - 1
    x, y, u, v = (d >> m for d in diff)
    e = _v2(u) if u else None
    U = ((x & mask, y & mask), (u & mask, v & mask))
    return m, U, e


def critical_scan(cf: PeriodicCF, period: int, m: int, e: int):
    """Indices k < period with s_k = 3 mod 4, split by v2(t_k): at least
    m+e gives a critical index, exactly m+e-1 a subcritical one."""
    critical, subcritical = [], []
    it = iter_convergent_pairs(cf)
    for k in range(period):
        s, t = next(it)
        if s % 4 != 3:
            continue
        w = _v2(t)
        if w >= m + e:
            critical.append(k)
        elif w == m + e - 1:
            subcritical.append(k)
    return tuple(critical), tuple(subcritical)


def analyze(cf: PeriodicCF, precision: int = DEFAULT_PRECISION,
            max_multiplier: int = DEFAULT_MULTIPLIER_LIMIT) -> PeriodAnalysis:
    """Period analysis underlying :func:`classify`.

    Critical indices are base-independent, so the aperiodic case is reported
    at the plain mod-4 period length.  When no critical index exists the
    analysis is redone at the certified length, which is the base at which
    the period claims of the classification actually hold.
    """
    L = mod4_period_length(cf, max_multiplier)
    m, U, e = decompose(cf, L, precision)
    if e is not None:
        critical, subcritical = critical_scan(cf, L, m, e)
        if critical:
            certified = _is_jacobi_period(cf, L, max_multiplier)
            return PeriodAnalysis(L, m, U, e, critical, subcritical, precision, certified)
    else:
        critical = subcritical = ()
    Lc = certified_period_length(cf, max_multiplier)
    if Lc != L:
        m, U, e = decompose(cf, Lc, precision)
        if e is not None:
            critical, subcritical = critical_scan(cf, Lc, m, e)
            if critical:
                raise AssertionError(
                    f"critical indices appeared at {Lc} but not at {L} for {cf}")
        else:
            critical = subcritical = ()
    return PeriodAnalysis(Lc, m, U, e, critical, subcritical, precision, True)


def _is_jacobi_period(cf, L, max_multiplier):
    window = jacobi_sequence(cf, 2 * max_multiplier * len(cf))
    return L < len(window) and window[L:] == window[:-L]


def classify(cf: PeriodicCF, precision: int = DEFAULT_PRECISION,
             depth: int = DEFAULT_DEPTH,
             max_multiplier: int = DEFAULT_MULTIPLIER_LIMIT,
             analysis: PeriodAnalysis | None = None) -> Classification:
    """Decide whether the Kronecker sequence repeats, and with what period.

    A critical index makes the sequence aperiodic and yields a witness
    cascade.  Otherwise the sequence is purely periodic: a subcritical index
    doubles the period, else the certified period itself is one.  On
    precision exhaustion the working precision doubles, up to MAX_PRECISION.
    ``analysis``, when given, is the result of :func:`analyze` for ``cf``
    and is used instead of analyzing again.
    """
    if analysis is None:
        analysis = analyze(cf, precision, max_multiplier)
    if analysis.critical_indices:
        first = analysis.critical_indices[0]
        B = precision
        while True:
            try:
                steps = cascade(cf, analysis.period, first, depth, B)
                break
            except PrecisionExhausted:
                if B >= MAX_PRECISION:
                    raise
                B = min(2 * B, MAX_PRECISION)
        return Aperiodic(first_critical=first, cascade=steps)
    if analysis.e is None:
        # lower-left of U vanished: no index can reach any finite threshold
        return PeriodicL(period=analysis.period)
    if analysis.subcritical_indices:
        return Periodic2L(period=2 * analysis.period,
                          witness=analysis.subcritical_indices[0])
    return PeriodicL(period=analysis.period)


def threshold_valuation(cf: PeriodicCF, period: int, doublings: int,
                        precision: int = DEFAULT_PRECISION) -> int:
    """v2 of the lower-left entry of D(2^doublings * period) - I, computed by
    repeated squaring mod 2**precision.

    Squaring raises (m, e) to (m+1, e), so this equals m + e + doublings;
    the equality is asserted by tests, not assumed here.
    """
    M = matrix_at_mod2(cf, period - 1, precision)
    mask = M.modulus - 1
    for _ in range(doublings):
        M = M @ M
    t = M.t & mask
    if t == 0 or _v2(t) >= precision - 2:
        raise PrecisionExhausted(
            f"valuation at {doublings} doublings needs precision above {precision}")
    return _v2(t)


def cascade(cf: PeriodicCF, period: int, start: int, depth: int = DEFAULT_DEPTH,
            precision: int = DEFAULT_PRECISION) -> tuple[tuple[int, int], ...]:
    """Witness cascade (k_j, r_j), j = 1..depth, from a critical index.

    k_j is critical for 2^(r_j) * period but not for 2^(r_j + 1) * period,
    and k_{j+1} = k_j + 2^(r_j) * period.  Both coordinates increase
    strictly.  Valuations of t_{k_j} are read off mod 2**precision.

    The matrices M_k = matrix_at(cf, k) are walked incrementally: for N a
    multiple of the block length, D(N) * M_k = M_{k+N}.  Proof: M_{k+N} is
    the product of the quotient matrices of a_0..a_{k+N}; its first N
    factors make D(N), and since a_{N+i} = a_i the remaining k+1 factors
    make M_k.  The same argument gives D(2^r * period) = D(period)^(2^r).
    So with M = M_{k_j} and P = D(period)^(2^(r_j)), the next matrix is
    P * M, exact in Z/2^precision.  Because r_j rises strictly, P is only
    ever squared further: a cascade of the given depth costs at most
    r_depth squarings and depth - 1 products, plus the two logarithmic
    powers that give M_start and D(period).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if period % len(cf):
        raise ValueError(f"period {period} is not a multiple of the block length of {cf}")
    m, _, e = decompose(cf, period, max(precision, 8))
    if e is None:
        raise NotAperiodic(f"{cf} has no critical threshold")
    base = m + e
    mask = (1 << precision) - 1
    M = matrix_at_mod2(cf, start, precision)
    M = (M.s, M.s_prev, M.t, M.t_prev)
    P = matrix_at_mod2(cf, period - 1, precision)
    P = (P.s, P.s_prev, P.t, P.t_prev)
    p_r = 0  # P = D(period)^(2^p_r)
    out = []
    k = start
    prev_r = -1
    for j in range(depth):
        t = M[2]
        if t == 0 or _v2(t) >= precision - 2:
            raise PrecisionExhausted(
                f"v2(t_{k}) not resolvable at precision {precision}")
        r = _v2(t) - base
        if not out and r < 0:
            raise ValueError(f"start index {start} is not critical for period {period}")
        if r <= prev_r:
            raise AssertionError(f"cascade not strictly increasing at k={k}")
        out.append((k, r))
        prev_r = r
        if j == depth - 1:
            break
        while p_r < r:
            P = _mat_mul_mod(P, P, mask)
            p_r += 1
        M = _mat_mul_mod(P, M, mask)
        k += (1 << r) * period
    return tuple(out)
