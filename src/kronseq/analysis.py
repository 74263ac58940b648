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

Five facts fix the base and its threshold.  (1) D(d*l) = B^d for the
block matrix B = D(l) (see :func:`cascade`), so the L with D(L) = I mod 4
are the multiples of L4 = ord(B mod 4) * l, the first block boundary
d*l of the convergents with D(d*l) = I mod 4.  They are all even, as
det D(L) = (-1)^L must be 1 mod 4.  Every element of GL2(Z/4) has order
1, 2, 3, 4 or 6 (by enumeration of all 96), so L4 <= 6l.
(2) The lower-left entry of D(L) - I is t_{L-1}, so m + e = v2(t_{L-1}),
which D(L) mod 2^B gives while it is below B.  (3) t_{L-1} >= 1, so e is
always finite.  Write D(L4) = [[a, b], [c, d]] and f = (d/c), a Kronecker
symbol.  (4) The Jacobi sequence (s_k/t_k), with STAR at even t_k,
satisfies jac[k + L4] = f * jac[k], so 2*L4 is always a Jacobi period.
(5) L4 is a Jacobi period iff f = +1, and f = (a/c) = (s_{L4-1}/t_{L4-1}):
for (2,), D(4) = I mod 4 but f = -1 and the Jacobi period is 8.
The lemma below, applied to D(L) and to D(L) with its rows and columns
swapped, gives every Kronecker symbol (s_K/t_K) from the symbols below L
by random access (``symbols._kronecker_at``, proved there).

Lemma: let A = [[alpha, beta], [gamma, delta]] be in SL2(Z) with
non-negative entries, gamma >= 1 and A = I mod 4, let s >= 1 and odd
t >= 1 be coprime, and put s' = alpha*s + beta*t and t' = gamma*s +
delta*t.  Then t' is odd and (s'/t') = (delta/gamma)(s/t), with
(delta/gamma) the Kronecker symbol.  Proof: pick i >= 0 with
sigma = s - 4it != 0 and gcd(d', t') = 1, where d' = delta + 4i*gamma.
Such an i exists by the Chinese remainder theorem: a prime p | t' with
p !| gamma excludes one class of i mod p, and a prime dividing gamma
never divides d' = delta mod gamma, as gcd(gamma, delta) = 1.
Since alpha*delta - beta*gamma = 1, delta*s' = s + beta*t' and
gamma*s' = -t (mod t'), so sigma = d'*s' (mod t').  Also
t' = gamma*sigma + d'*t = d'*t (mod 4|sigma|).  As n -> (sigma/n) is a
character mod 4|sigma| on odd n > 0,
    (d'/t')(s'/t') = (sigma/t') = (sigma/d')(sigma/t) = (sigma/d')(s/t).
Reciprocity with d' = 1 mod 4 gives (d'/t') = (t'/d') =
(gamma*sigma/d'), and gcd(sigma, d') = 1 because any common prime would
divide t'.  Hence (s'/t') = (gamma/d')(s/t).  Finally (gamma/d') =
(delta/gamma): for gamma = 2^j g with g odd, (g/d') = (d'/g) = (delta/g)
by reciprocity and d' = delta mod gamma, and (2/d') = (delta/2) since
d' = delta mod 16.
Proof of (4) and (5).  M_{k+N} = D(N) * M_k for N a multiple of l (see
:func:`cascade`), so (s_{k+L4}, t_{k+L4}) = D(L4) (s_k, t_k), and D(L4) =
I mod 4 has determinant 1 (fact (1)) and c = t_{L4-1} >= 1.  So t_k and
t_{k+L4} have the same parity, and by the lemma jac[k+L4] = f * jac[k]
when t_k is odd; f^2 = 1 gives (4).  If f = -1, k = 0 (t_0 = 1) is a
witness that L4 is no Jacobi period, which gives (5).  ad = 1 + bc =
1 mod 16 and modulo the odd part of c, so (a/c)(d/c) = (ad/c) = 1 and
f = (a/c).  The sign is not always +1 even for A = I mod 8: for
A = [[113, 80], [24, 17]], (delta/gamma) = (17/24) = -1.

Periodic-case period claims are made at the certified base, the smallest
admissible L that is also a Jacobi period.  By (5) it is L4 when the
Kronecker symbol (s_{L4-1}/t_{L4-1}) is +1, and 2*L4 otherwise; no
other multiple is ever needed.  At 2*L4, :func:`analyze` splits the
exact square D(2L) = D(L)^2 of D(L), L = L4, which has determinant 1
(fact (1)).  That split is the closed form of the one at L: D(2L) =
(I + 2^m U)^2 = I + 2^(m+1) U' with U' = U + 2^(m-1) U^2, which is U
mod 2 as m >= 2, so m' = m + 1; and U'_21 = u (1 + 2^(m-1) (x + v))
for U = [[x, y], [u, v]], so e' = e.

The base 2*L4 is only used when L = L4 has no critical index, and then
2*L4 has no critical and no subcritical index either, so it is never
scanned.  Proof: (s_{k+L}, t_{k+L}) = D(L) (s_k, t_k) (see
:func:`cascade`), so t_{k+L} = 2^m u s_k + (1 + 2^m v) t_k and, as
m >= 2, s_{k+L} = s_k mod 4.  Take k < L with s_k = 3 mod 4.  Then
v2(2^m u s_k) = m + e, no critical index gives v2(t_k) < m + e, and
1 + 2^m v is odd, so v2(t_{k+L}) = v2(t_k) < m + e.  Hence every index
below 2L with s = 3 mod 4 has v2(t) < m + e, while at 2L a subcritical
index needs v2(t) = m' + e - 1 = m + e and a critical one more.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, islice

from ._record import Record, _set
from .cf import PeriodicCF, _pairs_at, _square_mod, _unresolved, _v2, matrix_at_mod2
from .errors import PrecisionExhausted

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
    "MIN_PRECISION",
    "DEFAULT_DEPTH",
]

DEFAULT_PRECISION = 128
MIN_PRECISION = 8  # the least precision analyze, decompose and the CLI take
DEFAULT_DEPTH = 8


class _Walked(tuple):
    """The exact data the walk of :func:`analyze` keeps beside its
    analysis, the tuple (block, D, pairs): the block matrix D(l) and
    D(L4), each as the 4-tuple (s, s_prev, t, t_prev), and {k: (s_k, t_k)}
    at the critical and subcritical indices of the analysis."""

    __slots__ = ()
    block = property(lambda self: self[0])
    D = property(lambda self: self[1])
    pairs = property(lambda self: self[2])


class PeriodAnalysis(Record, hidden=("walk",)):
    """2-adic data of one admissible period length.

    ``e`` is never None (U's lower-left entry is t_{period-1} / 2^m >= 1).
    ``certified`` records whether ``period`` is a verified Jacobi period.
    ``walk`` is the :class:`_Walked` of the walk of :func:`analyze`: the
    exact values a report prints and a cascade starts from.  It is None
    for an analysis not made by :func:`analyze` (one read back from a
    report, say), and takes no part in equality, hashing or repr.
    """

    __slots__ = ("period", "m", "U", "e", "critical_indices",
                 "subcritical_indices", "precision", "certified", "walk")

    def __init__(self, period: int, m: int,
                 U: tuple[tuple[int, int], tuple[int, int]], e: int,
                 critical_indices: tuple[int, ...],
                 subcritical_indices: tuple[int, ...], precision: int,
                 certified: bool, walk: _Walked | None = None):
        _set(self, "period", period)
        _set(self, "m", m)
        _set(self, "U", U)
        _set(self, "e", e)
        _set(self, "critical_indices", critical_indices)
        _set(self, "subcritical_indices", subcritical_indices)
        _set(self, "precision", precision)
        _set(self, "certified", certified)
        _set(self, "walk", walk)

    @property
    def u(self):
        """Lower-left entry of U, reduced mod 2**precision."""
        return self.U[1][0]


class PeriodicL(Record):
    __slots__ = ("period",)

    def __init__(self, period: int):
        _set(self, "period", period)


class Periodic2L(Record):
    __slots__ = ("period", "witness")

    def __init__(self, period: int, witness: int):
        _set(self, "period", period)
        _set(self, "witness", witness)  # a subcritical index forcing the doubled period


class Aperiodic(Record):
    __slots__ = ("first_critical", "cascade")

    def __init__(self, first_critical: int, cascade: tuple[tuple[int, int], ...]):
        _set(self, "first_critical", first_critical)
        _set(self, "cascade", cascade)


Classification = PeriodicL | Periodic2L | Aperiodic


def _is_identity_mod4(M):
    """Whether the 4-tuple (s, s_prev, t, t_prev) is I mod 4."""
    return (M[0] & 3, M[1] & 3, M[2] & 3, M[3] & 3) == (1, 0, 0, 1)


def mod4_period_length(cf: PeriodicCF) -> int:
    """Smallest even multiple L4 of the block length with D(L4) = I mod 4,
    read off the exact walk of :func:`analyze`; L4 <= 6l (fact (1))."""
    return _walk(cf)[0]


def certified_period_length(cf: PeriodicCF) -> int:
    """Smallest multiple of L4 = mod4_period_length(cf) that is also a
    period of the Jacobi sequence: L4 itself if the Kronecker symbol
    f = (t_{L4-2}/t_{L4-1}) is +1, else 2*L4 (facts (4) and (5) of the
    module docstring), with f read off the exact walk of :func:`analyze`.
    """
    L4, _, _, _, f = _walk(cf)
    return L4 if f == 1 else 2 * L4


def _resolved_v2(t, precision, k):
    """v2(t_k) from t = t_k mod 2**precision, if that residue settles it."""
    if t == 0 or _v2(t) >= precision - 2:
        raise _unresolved(k, precision)
    return _v2(t)


def _check_period(cf, period):
    if period < 1 or period % len(cf):
        raise ValueError(f"period {period} is not a multiple of the block length of {cf}")


def _walk(cf):
    """One exact walk of the convergents k < L4, L4 the first block
    boundary d*l with D(d*l) = I mod 4, at most 6l terms in (fact (1)).
    Returns L4, D(L4) and the block matrix D(l), each as the 4-tuple (s,
    s_prev, t, t_prev), (k, v2(t_k), s_k, t_k) for every k < L4 with s_k =
    3 mod 4 and t_k even, the only candidates for a critical or
    subcritical index (m + e - 1 >= 1, as m >= 2), and the Kronecker
    symbol c_{L4-1} = (t_{L4-2}/t_{L4-1}), which is f of fact (5).  The
    exact pairs of the candidates are the only terms kept: the report
    prints those of the critical and subcritical indices, and the cascade
    starts from the first critical one.

    The recurrence s_k = a_k s_{k-1} + s_{k-2} (and the same for t) is
    stepped in place, one inner loop over ``cf.quotients`` per repetition
    of the block, with no generator and no per-term index test: D is
    tested against I mod 4, in place, once per block boundary.

    c_k is carried by the recurrence of the ``symbols`` module docstring,
    c_k = R(t_{k-1}, t_k) c_{k-1} chi(t_k t_{k-2})^v2(t_{k-1}): it needs
    only t_k mod 8, the parity of v2(t_k) and bit v2(t_k) + 1 of t_k, which
    is 1 exactly when the odd part of t_k is 3 mod 4.  Consecutive t_k are
    coprime, so chi can only be raised at an odd t_k, after an even t_{k-1}:
    each parity of t_k has its own branch, and v2(t_k) is found only for
    an even t_k."""
    quotients = cf.quotients
    candidates = []
    add = candidates.append
    s, s_prev, t, t_prev = 1, 0, 0, 1  # (s, t) at k-1 = -1 and k-2 = -2
    c = 1  # c_k
    h_prev = w_prev = 0  # bit v2(t) + 1 of t and v2(t), at k-1
    k = 0
    block = None
    while True:
        for a in quotients:
            s, s_prev = a * s + s_prev, s
            t, t_prev = a * t + t_prev, t
            if t & 1:
                h = t & 2
                if h and h_prev:  # R(t_{k-1}, t_k)
                    c = -c
                if w_prev:  # chi(t_k t_{k-2}), t_{k-1} even
                    if w_prev & 1 and (t ^ t_odd) & 7 in (2, 4):
                        c = -c
                    w_prev = 0
            else:  # t_{k-1} is odd, so chi(t_k t_{k-2}) is not raised
                t_odd = t_prev  # t_{k-1}, the t_{k-2} of the chi at k + 1
                w_prev = (t & -t).bit_length() - 1
                h = t & (2 << w_prev)
                if s & 3 == 3:
                    add((k, w_prev, s, t))
                if h and h_prev:
                    c = -c
            h_prev = h
            k += 1
        if block is None:
            block = s, s_prev, t, t_prev
        if s & 3 == t_prev & 3 == 1 and not (s_prev | t) & 3:  # D(k) = I mod 4
            return k, (s, s_prev, t, t_prev), block, candidates, c


def _split(D, precision):
    """(m, U mod 2**precision, e) of D = I + 2^m * U, for D = I mod 4.

    m is the lowest valuation of the nonzero entries of D - I, read as the
    valuation of their OR: the lowest set bit of an OR is the lowest set
    bit of its operands.  The OR is nonzero, as its lower-left entry
    t_{period-1} >= 1.  No entry of D - I exceeds D[0] = s_{period-1},
    since s_k >= t_k and s_k increases, so masking at no more than the
    bits of D[0] gives the same U at every precision, however large.  The
    bound is loose by two bits: as m >= 2 (D = I mod 4), every entry of U
    has at most D[0].bit_length() - 2 bits."""
    x, y, u, v = D[0] - 1, D[1], D[2], D[3] - 1
    m = _v2(x | y | u | v)
    mask = (1 << min(precision, D[0].bit_length())) - 1
    u >>= m
    return m, (((x >> m) & mask, (y >> m) & mask), (u & mask, (v >> m) & mask)), _v2(u)


def _classes(candidates, m, e):
    """The candidates of :func:`_walk` split by v2(t_k), in one pass: at
    least m+e gives a critical index, exactly m+e-1 a subcritical one.
    Returns both index tuples and {k: (s_k, t_k)} over the two."""
    critical, subcritical, pairs = [], [], {}
    sub = m + e - 1
    for k, w, s, t in candidates:
        if w >= sub:
            pairs[k] = s, t
            if w > sub:
                critical.append(k)
            else:
                subcritical.append(k)
    return tuple(critical), tuple(subcritical), pairs


def decompose(cf: PeriodicCF, period: int, precision: int = DEFAULT_PRECISION):
    """Split D(period) = I + 2^m * U; returns (m, U mod 2**precision, e).

    Computed exactly (period lengths are small), then truncated; e is the
    exact valuation of U's lower-left entry t_{period-1} / 2^m >= 1.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    _check_period(cf, period)
    pairs = _pairs_at(cf, (period - 1, period - 2))
    (s, t), (s_prev, t_prev) = pairs[period - 1], pairs[period - 2]
    D = s, s_prev, t, t_prev
    if not _is_identity_mod4(D):
        raise ValueError(f"D({period}) is not the identity mod 4 for {cf}")
    return _split(D, precision)


def critical_scan(cf: PeriodicCF, period: int, m: int, e: int):
    """Indices k < period with s_k = 3 mod 4 and t_k even, split by
    v2(t_k): at least m+e gives a critical index, exactly m+e-1 a
    subcritical one (m >= 2 for every decomposition)."""
    _check_period(cf, period)
    candidates = [(k, _v2(t), s, t) for k, (s, t) in _pairs_at(cf, range(period)).items()
                  if s & 3 == 3 and not t & 1]
    return _classes(candidates, m, e)[:2]


def analyze(cf: PeriodicCF, precision: int = DEFAULT_PRECISION) -> PeriodAnalysis:
    """Period analysis underlying :func:`classify`.

    One exact walk of the first L4 convergents finds L4 (fact (1)) and
    gives D(L4), hence (m, U, e), and the critical and subcritical
    indices.  Critical indices are base-independent, so the aperiodic case
    is reported at L4.  L4 is certified when the Kronecker symbol
    f = (t_{L4-2}/t_{L4-1}), carried on the same walk, is +1 (fact (5));
    when it is -1 and no critical index exists, the analysis is reported
    at the certified length 2*L4, the base at which the period claims of
    the classification actually hold.  Its decomposition is the split of
    the exact square D(L4)^2 = D(2*L4), and it has no critical or
    subcritical index (module docstring).  The same walk also gives the
    exact data a report prints and a cascade starts from, kept as
    ``walk``.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    L, D, block, candidates, f = _walk(cf)
    m, U, e = _split(D, precision)
    critical, subcritical, pairs = _classes(candidates, m, e)
    certified = f == 1
    if critical or certified:
        return PeriodAnalysis(L, m, U, e, critical, subcritical, precision, certified,
                              _Walked((block, D, pairs)))
    m, U, e = _split(_square_mod(D, -1), precision)
    return PeriodAnalysis(2 * L, m, U, e, (), (), precision, True, _Walked((block, D, {})))


def classify(cf: PeriodicCF, depth: int = DEFAULT_DEPTH,
             analysis: PeriodAnalysis | None = None) -> Classification:
    """Decide whether the Kronecker sequence repeats, and with what period.

    A critical index makes the sequence aperiodic and yields a witness
    cascade.  Otherwise the sequence is purely periodic: a subcritical index
    doubles the period, else the certified period itself is one.
    ``analysis``, when given, is the result of :func:`analyze` for ``cf``
    and is used instead of analyzing again; one without a walk (read back
    from a report, say) is analyzed again.

    The cascade's width is chosen from the request alone, on the rungs
    DEFAULT_PRECISION * 2^i.  It starts at the first rung that reaches the
    predicted need m + e + 2*depth + 3, and doubles on precision
    exhaustion.  Step j reads v2(t_{k_j}) = m + e + r_j, which a residue
    mod 2^B resolves only if B >= m + e + r_j + 3.  The r_j are the set
    bits of the 2-adic root n* of :func:`cascade`, so r_depth >= r_1 +
    depth - 1, and rungs at or below m + e + r_1 + depth + 1 are certain
    to fail.  The set bits of a typical 2-adic integer are on average 2
    apart (each bit is set with probability 1/2, so the gap to the next
    set bit is geometric with mean 2), hence 2*depth; the measured slope
    (r_depth - r_1) / (depth - 1) is 1.80-2.27 on all 96 ``cascade-deep``
    blocks of bench seeds 0-7 (depth 150-200).  A rung one too high costs
    twice the series terms of the root, on numbers twice as wide (depth
    200 of (1,2,5) takes 0.14, 0.28 and 1.1 ms at 512, 1,024 and 2,048
    bits, best of 7), one too low a retry.

    Why the ladder ends.  n* has infinitely many set bits: one with
    finitely many would be an integer n >= 0 with f(n) = t_{start + nL} = 0
    (:func:`cascade` (b)), but every t_k >= 1.  So r_depth, the depth-th
    set bit, is finite, and the first rung above m + e + r_depth + 2
    resolves every step the attempt reads, walked or off the root
    (:func:`cascade` (d)): that attempt succeeds, and the last rung is
    below 2 * max(DEFAULT_PRECISION, m + e + 2*depth + 3,
    m + e + r_depth + 3).  An attempt that succeeds, or raises anything
    but PrecisionExhausted, does the same at every higher rung, since the
    residues it resolved stay resolved; so skipping rungs changes no
    output, and every call ends as an attempt at a wide enough precision
    would.

    Each attempt is the walk of :func:`cascade`, seeded from the exact
    D(L4) and (s, t) at the first critical index in ``analysis.walk``
    rather than from two binary powers, with the same steps and errors.
    """
    if analysis is None or analysis.walk is None:
        analysis = analyze(cf)
    if analysis.critical_indices:
        first = analysis.critical_indices[0]
        D, x = analysis.walk.D, analysis.walk.pairs[first]
        # the first rung >= need: 128 * 2^i >= need iff 2^i > (need - 1) // 128
        need = analysis.m + analysis.e + 2 * depth + 3
        B = DEFAULT_PRECISION << ((need - 1) // DEFAULT_PRECISION).bit_length()
        while True:
            try:
                return Aperiodic(first, _cascade(cf, analysis.period, first, depth, B, D, x))
            except PrecisionExhausted:
                B *= 2
    if analysis.subcritical_indices:
        return Periodic2L(2 * analysis.period, analysis.subcritical_indices[0])
    return PeriodicL(analysis.period)


def threshold_valuation(cf: PeriodicCF, period: int, doublings: int,
                        precision: int = DEFAULT_PRECISION) -> int:
    """v2 of the lower-left entry t_k of D(2^doublings * period) - I, k =
    2^doublings * period - 1, read off the binary power of the block
    product mod 2**precision (:func:`~kronseq.cf.matrix_at_mod2`), with no
    determinant bookkeeping.

    Squaring raises (m, e) to (m+1, e), so this equals m + e + doublings;
    the equality is asserted by tests, not assumed here.
    """
    _check_period(cf, period)
    k = (period << doublings) - 1
    return _resolved_v2(matrix_at_mod2(cf, k, precision).t, precision, k)


def _inverse(a, w):
    """a^-1 mod 2^w for odd a: y <- y (2 - a y) doubles the bits of y that
    are right, and a itself is right to 3 bits, as a^2 = 1 mod 8.  For w-bit
    a this is several times faster than pow(a, -1, 2**w), which runs
    Euclid's algorithm: that took 0.06 ms at 500 bits and 1.7 ms at 4,076."""
    y, n = a & 7, 3
    while n < w:
        n = min(2 * n, w)
        y = y * (2 - a * y) & ((1 << n) - 1)
    return y


def _root(P, s, t, vg, precision):
    """n' mod 2^w, w = precision - 2 - vg, by the closed form (d) of
    :func:`cascade`: P = D(period)^(2^r0) and (s, t) = x_k mod
    2**precision, with vg = m + e + r0 = v2(g).

    Each series is summed as one fraction num / den over the odd common
    denominator den = 3 * 5 * ... * (2i+1): a term a_i / (2i+1) is added
    as num <- num (2i+1) + a_i den and den <- den (2i+1), mod 2^w.  After
    N terms, N about w / (2M - 2), den has about N log2(2N) bits, below w
    at r0 = 16 (M >= 18) for any width in use, so a term costs one
    full-width product, the next power of mu or q, and products by small
    numbers.  Each series takes one 2-adic inverse: of g num for phi, which
    also gives 1/g, and of den for the sum.  With a pow(2i+1, -1, 2^w) and
    a full-width product per term instead, the root of (1,2,5) at depth
    200, 1,500 and 10,000 took 0.057, 6.7 and 1,190 ms at 512, 4,096 and
    32,768 bits; it takes 0.039, 3.5 and 683 ms (best of 5 or more, Python
    3.11, a shared 2-vCPU x86-64 host)."""
    w = precision - 2 - vg
    mask, low = (1 << precision) - 1, (1 << w) - 1
    a, _, c, d = P
    tau = (a + d - 2) & mask
    nu = tau + (tau * tau >> 2)  # c^2 - 1, exact mod 2**precision
    mu = (nu >> 2) & low
    num, den, y, C, i = 1, 1, mu, 1, 1  # phi = num / den
    while y:
        C = C * 2 * (2 * i - 1) // i  # binomial(2i, i)
        term = C * y * den
        num = (num * (2 * i + 1) + (-term if i & 1 else term)) & low
        den = den * (2 * i + 1) & low
        y, i = y * mu & low, i + 1
    g = (c * s + (((d - a) & mask) >> 1) * t) & mask  # ((P - cI) x_k)_2
    t = t >> vg
    h = _inverse((g >> vg) * num & low, w)  # 1 / (g num)
    z = -t * num * h & low  # -t / g
    h *= den  # 1 / (g phi)
    q = z * z * nu & low
    num, den, x, i = 1, 1, q, 1  # S = num / den
    while x:
        num = (num * (2 * i + 1) + x * den) & low
        den = den * (2 * i + 1) & low
        x, i = x * q & low, i + 1
    return -(t * num & low) * (h * _inverse(den, w) & low) & low


# The switch point r0 of :func:`cascade`.  Measured on cascade((1,2,5),
# 12, 7, depth, B) (Python 3.11, one core of a shared host, best of 3 to
# 15 in each of several runs), r0 = 0, 4, 8, 16, 24 and 32 took 0.37,
# 0.15, 0.14, 0.14, 0.17 and 0.20 ms at depth 200 and 512 bits, the
# cascade-deep rung, and 47, 8.8, 8.1, 4.8, 4.4 and 4.7 ms at depth 1,500
# and 4,096 bits: below 16 the root needs too many series terms (at 512
# bits r0 = 8 ties), and well above it the walk costs more than the terms
# it saves.  At depth 10,000 and 32,768 bits r0 = 16, 32, 48 and 64 took
# 736, 421, 351 and 325 ms, so the best r0 grows with the rung.  Every
# r0 >= 0 gives the same steps.
# The root has a fixed cost, so the walk hands over only when at least
# _ROOT_STEPS steps remain: on 40 seeded blocks at 128 and 512 bits,
# walking 1, 2 or 4 steps past the switch point was faster than the root,
# and 8 or 16 slower.  A step is about two squarings, so the walk also
# hands over when its next step alone is 2 * _ROOT_STEPS squarings away.
_SWITCH, _ROOT_STEPS = 16, 8
_BIT = bytes.maketrans(b"01", b"\0\1")  # a bit's character to a false or true byte


def cascade(cf: PeriodicCF, period: int, start: int, depth: int = DEFAULT_DEPTH,
            precision: int = DEFAULT_PRECISION) -> tuple[tuple[int, int], ...]:
    """Witness cascade (k_j, r_j), j = 1..depth, from a critical index.

    k_j is critical for 2^(r_j) * period but not for 2^(r_j + 1) * period,
    and k_{j+1} = k_j + 2^(r_j) * period.  Both coordinates increase
    strictly.  Valuations of t_{k_j} are read off mod 2**precision = 2^B:
    step j is made while v2(t_{k_j}) = m + e + r_j < B - 2, and the first
    step past that raises PrecisionExhausted naming its t_k.

    The walk.  For N a multiple of the block length, D(N) * M_k = M_{k+N}
    with M_k = matrix_at(cf, k).  Proof: M_{k+N} is the product of the
    quotient matrices of a_0..a_{k+N}; its first N factors make D(N), and
    since a_{N+i} = a_i the remaining k+1 factors make M_k.  The same
    argument gives D(2^r * period) = D(period)^(2^r).  Only t_k is read,
    and the first column x_k = (s_k, t_k) of M_k is mapped by D(N) on its
    own: with P = D(period)^(2^(r_j)), x at k_{j+1} is P * x at k_j, exact
    in Z/2^B.  P is squared by Cayley-Hamilton, P^2 = tr(P) P - I, which
    needs det P = 1: det D(n) = (-1)^n, and D(period) = I mod 4 forces
    (-1)^period = 1 mod 4, so period is even and every power of D(period)
    has determinant 1.  The threshold m + e is v2(t_{period-1}), read off
    the same D(period) mod 2^B.

    Why the cascade is the binary expansion of a 2-adic root.  Let L =
    period, D = D(L) = I + 2^m U with U = [[x, y], [u, v]], v2(u) = e,
    and f(n) = t_{start + nL}, the second entry of x_n = D^n x_0, with
    v2(f(0)) >= m + e (else ValueError: start is not critical).
    (a) v2(f(a) - f(b)) = m + e + v2(a - b) for a != b.  Cayley-Hamilton
    gives D^N = alpha_N D + beta_N I with alpha_0 = 0, alpha_1 = 1 and
    alpha_{N+1} = tr(D) alpha_N - alpha_{N-1}, so alpha_N is odd for odd
    N (tr D is even), and (D^N)^2 = tr(D^N) D^N - I gives alpha_{2N} =
    tr(D^N) alpha_N with tr(D^N) = 2 mod 4: v2(alpha_N) = v2(N).  Write
    D^N - I = alpha_N (D - I) + gamma_N I.  A matrix I + 2^j Y of
    determinant 1 has trace 2 - 2^(2j) det Y, and D^N = I mod 2^(m +
    v2(N)) (squaring raises m by one, odd powers keep it; module
    docstring), so taking traces, 2 gamma_N = (tr D^N - 2) - alpha_N (tr D
    - 2) has v2 >= 2m + v2(N).  Now f(b+N) - f(b) = alpha_N 2^m (u s_b +
    v t_b) + gamma_N t_b.  With N = 1 this has v2 >= m + e, so every f(b)
    does and s_b is odd (gcd(s_b, t_b) = 1); then v2(u s_b) = e < v2(v
    t_b), the first term has v2 exactly m + e + v2(N), and the second at
    least 2m - 1 + v2(N) + m + e, more as m >= 2.
    (b) By (a), n -> f(n) / 2^(m+e) is injective on Z/2^i, so exactly one
    class n mod 2^i has f(n) = 0 mod 2^(m+e+i).  These classes nest and
    define one n* in the 2-adic integers, and v2(f(n)) = m + e + v2(n - n*)
    (f extends to them by continuity, with f(n*) = 0).
    (c) Hence r_1 = v2(n*), and if n_j = (k_j - start) / L = n* mod 2^(r_j)
    with bit r_j of n* set, then n_{j+1} = n_j + 2^(r_j) = n* mod 2^(r_j+1)
    and r_{j+1} = v2(n_{j+1} - n*) is the next set bit of n*.  So the r_j
    are the set bits of n* and rise strictly, as a theorem; k_j = start +
    L (n* mod 2^(r_j)).  The walk below keeps its AssertionError guard.
    (d) The closed form.  The walk stops at a step r >= r0, at index k,
    with its power of D(L) still at most D^(2^r0): at its first such step,
    or the next one if that r is r0.  (It walks on to the end when fewer
    than 8 steps remain and the next is fewer than 16 squarings away.)
    Put P = D^(2^r0) = I + 2^M U' (M = m + r0), c = tr(P)/2 and W = P - cI, so
    W^2 = nu I with nu = c^2 - 1 = tau + tau^2/4, tau = tr P - 2 =
    -2^(2M) det U': v2(nu) >= 2M.  By (b) for P, F(n) = (P^n x_k)_2
    has one root n' = (n* - n_k) / 2^r0, with v2(n') = r - r0.  In the
    commutative ring Q_2[W], P = c + W = exp(phi W) for phi = sum_i
    (-1)^i binomial(2i, i) (nu/4)^i / (2i+1), which is arsinh(rho)/rho for
    rho^2 = nu: the series identity exp(arsinh x) = x + sqrt(1 + x^2), with
    c = 1 mod 4 the square root of 1 + nu that the binomial series gives.
    So P^n = cosh(n phi rho) I + (sinh(n phi rho)/rho) W, each side a
    series in nu (v2(nu) >= 2M makes every series here converge), for n
    in N and by continuity for every 2-adic n.  With g = (W x_k)_2, F(n) =
    0 iff tanh(n phi rho)/rho = z := -t_k/g, that is
        n' = z * sum_i (z^2 nu)^i / (2i+1)  /  phi.
    g = P_21 s_k + ((P_22 - P_11)/2) t_k has v2(g) = m + e + r0: v2(P_21)
    = M + e by (a) and s_k is odd, while the second term has v2 >= M - 1 +
    m + e + r.  So z, with v2(z) = r - r0, and nu are known mod 2^(w+2)
    from x_k and P mod 2^B, w = B - 2 - m - e - r0.  Truncation: term i
    of the numerator has v2 >= 2Mi, and of phi v2 >= 2(M - 1)i + 1
    (v2(binomial(2i, i)) is the number of set bits of i), so about
    w / (2M - 2) terms give n' mod 2^w.  Its set bits i > r - r0 are the
    remaining r_j = r0 + i, exactly those with m + e + r_j < B - 2; each
    k_{j+1} = k_j + 2^(r_j) L.  When they run out before depth, the next
    step has v2(t) >= B - 2 and the error names the t_k the walk would.
    So every output and every error is the walk's.

    The seeds.  The walk needs only D(period) and x_start mod 2^B.  Here
    they are two logarithmic powers of the block matrix
    (:func:`~kronseq.cf.matrix_at_mod2`), for any period and start;
    :func:`classify` hands the same walk the exact D(L4) and x at the
    first critical index from ``analysis.walk`` instead, reduced mod 2^B
    at each rung, which gives the same residues and so the same steps and
    errors.

    Cost: at most r0 = 16 squarings and r0 column steps, four
    multiplications each, the two logarithmic powers of the seeds, and
    two series of about w / (2M - 2) terms mod 2^w, each term one
    full-width product and products by small numbers, with one 2-adic
    inverse per series, whatever the depth.  The remaining r_j are then
    read off the bits of n' in one pass and each k_j takes one addition.
    A cascade that ends within 8 steps of its first r_j >= r0 walks those
    steps instead, unless the next is 16 or more squarings away: the
    depth-8 cascade of (2, 1, 2^2200 - 1, 1), with r_1 = 2198, walked
    2,198 squarings at 4,096 bits and 4,406 at 8,192 in 0.53 s, and takes
    3.7 ms off the root.  On (1,2,5), depth 200 at 512 bits took 0.14 ms,
    depth 1,500 at 4,096 bits 4.8 ms and depth 10,000 at 32,768 bits
    0.74 s (Python 3.11, a shared 2-vCPU x86-64 host, best of several
    runs).
    """
    _check_period(cf, period)
    M = matrix_at_mod2(cf, start, precision)
    D = matrix_at_mod2(cf, period - 1, precision)
    return _cascade(cf, period, start, depth, precision,
                    (D.s, D.s_prev, D.t, D.t_prev), (M.s, M.t))


def _cascade(cf, period, start, depth, precision, D, x):
    """:func:`cascade` from its seeds: D = D(period) as the 4-tuple (s,
    s_prev, t, t_prev) and x = (s_start, t_start), exact or mod 2^B for
    B >= precision."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mask = (1 << precision) - 1
    a, b, c, d = P = tuple(v & mask for v in D)
    s, t = x[0] & mask, x[1] & mask
    if not _is_identity_mod4(P):
        raise ValueError(f"D({period}) is not the identity mod 4 for {cf}")
    base = _resolved_v2(c, precision, period - 1)  # m + e
    p_r = 0  # (a, b, c, d) = D(period)^(2^p_r)
    out = []
    k = start
    prev_r = -1
    # the walk, up to the hand-over to the root; its v2 reads, squarings and
    # column steps are those of _resolved_v2, _square_mod and _column_step,
    # in place
    for j in range(depth):
        r = (t & -t).bit_length() - 1  # v2(t), or -1 for t = 0
        if not 0 <= r < precision - 2:
            raise _unresolved(k, precision)
        r -= base
        if not out and r < 0:
            raise ValueError(f"start index {start} is not critical for period {period}")
        if r <= prev_r:
            raise AssertionError(f"cascade not strictly increasing at k={k}")
        out.append((k, r))
        prev_r = r
        # the root squares (a, b, c, d) = D(period)^(2^p_r), p_r the last r
        # walked, up to D(period)^(2^r0), so the walk hands over only while
        # p_r <= r0: when _ROOT_STEPS steps remain, or its next step alone
        # needs 2 * _ROOT_STEPS squarings
        if j == depth - 1 or r >= _SWITCH >= p_r and (
                depth - 1 - j >= _ROOT_STEPS or r - p_r >= 2 * _ROOT_STEPS):
            break
        while p_r < r:
            T = a + d
            a, b, c, d = (T * a - 1) & mask, T * b & mask, T * c & mask, (T * d - 1) & mask
            p_r += 1
        s, t = (a * s + b * t) & mask, (c * s + d * t) & mask
        k += period << r
    if len(out) < depth:  # the rest off the root n', its set bits above r - r0
        P = a, b, c, d
        while p_r < _SWITCH:
            P = _square_mod(P, mask)
            p_r += 1
        bits = format(_root(P, s, t, base + _SWITCH, precision), "b")[::-1]
        # character i of bits is bit i of n', r_j = r0 + i, read from i = r - r0 + 1
        # in one pass, and k_{j+1} = k_j + 2^(r_j) L
        ones = bits[r - _SWITCH + 1:].encode().translate(_BIT)
        rs = list(islice(compress(count(r + 1), ones), depth - len(out)))
        ks = list(accumulate(map(period.__lshift__, [r, *rs]), initial=k))
        out += zip(ks[1:], rs)
        if len(out) < depth:  # n' has no set bit left below w: the next t_k
            raise _unresolved(ks[-1], precision)
    return tuple(out)
