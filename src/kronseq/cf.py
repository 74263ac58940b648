"""Exact convergents of purely periodic regular continued fractions.

Everything here is integer arithmetic on Python ints; no floating point
is used anywhere in the package.  ``_str`` and ``_int`` write and read the
decimal form of ints of any length, for the block's ``str`` and the CLI.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._record import Record, _set
from .errors import EmptyInput, NonPositiveQuotient, NotCoprime, PrecisionExhausted

__all__ = [
    "PeriodicCF",
    "Convergent",
    "ConvergentMatrix",
    "QuadIrrational",
    "normalize_period",
    "convergents",
    "iter_convergent_pairs",
    "matrix_at",
    "matrix_at_mod2",
    "quad_irrational_of",
    "cf_of_rational",
]


class PeriodicCF(Record, uncompared=("reduced",)):
    """A repeating block of partial quotients, always stored with minimal
    block length.

    ``reduced`` records whether :func:`normalize_period` had to shrink the
    input; it does not take part in equality.  Each quotient is read with
    ``operator.index``, so a float or a string is rejected with TypeError,
    and the block is stored as a tuple of ints.
    """

    __slots__ = ("quotients", "reduced")

    def __init__(self, quotients: tuple[int, ...], reduced: bool = False):
        q = tuple(map(operator.index, quotients))
        _check_quotients(q)
        if _minimal_period(q) != len(q):
            raise ValueError(f"block {q} is not of minimal period; "
                             "use normalize_period()")
        _set(self, "quotients", q)
        _set(self, "reduced", reduced)

    def __len__(self):
        return len(self.quotients)

    def quotient(self, k):
        """Partial quotient a_k of the infinite periodic expansion."""
        return self.quotients[k % len(self.quotients)]

    def __str__(self):
        return "[" + ",".join(map(_str, self.quotients)) + "]"


class Convergent(Record):
    """The k-th convergent s/t, in lowest terms by construction."""

    __slots__ = ("k", "s", "t")

    def __init__(self, k: int, s: int, t: int):
        _set(self, "k", k)
        _set(self, "s", s)
        _set(self, "t", t)


class ConvergentMatrix(Record):
    """Columns are two consecutive convergents: ((s_k, s_{k-1}), (t_k, t_{k-1})).

    ``modulus`` is None for exact matrices, or 2**precision for reduced ones.
    """

    __slots__ = ("k", "s", "s_prev", "t", "t_prev", "modulus")

    def __init__(self, k: int, s: int, s_prev: int, t: int, t_prev: int,
                 modulus: int | None = None):
        _set(self, "k", k)
        _set(self, "s", s)
        _set(self, "s_prev", s_prev)
        _set(self, "t", t)
        _set(self, "t_prev", t_prev)
        _set(self, "modulus", modulus)


class QuadIrrational(Record):
    """(P + sqrt(D)) / Q in normalized form: D positive and non-square,
    Q > 0 dividing D - P*P, the value > 1 and its conjugate in (-1, 0)."""

    __slots__ = ("P", "D", "Q")

    def __init__(self, P: int, D: int, Q: int):
        _set(self, "P", P)
        _set(self, "D", D)
        _set(self, "Q", Q)
        if D <= 0 or (r := math.isqrt(D)) ** 2 == D:  # r, the floor of sqrt(D), is never exact
            raise ValueError(f"D must be positive and non-square, got {_str(D)}")
        if Q <= 0 or (D - P * P) % Q:
            raise ValueError(f"Q must be positive and divide D - P^2: {self}")
        if not (P + r >= Q):  # value > 1  <=>  P + sqrt(D) > Q
            raise ValueError(f"{self} is not > 1")
        if not (P < 0 or P * P < D):  # conjugate < 0
            raise ValueError(f"conjugate of {self} is not < 0")
        if not (P + Q > 0 and (P + Q) ** 2 > D):  # conjugate > -1
            raise ValueError(f"conjugate of {self} is not > -1")

    def __str__(self):
        return f"({_str(self.P)} + sqrt({_str(self.D)})) / {_str(self.Q)}"


def _check_quotients(q):
    if not q:
        raise EmptyInput("quotient block must be non-empty")
    if min(q) < 1:
        raise NonPositiveQuotient(f"quotients must be >= 1, got {q}")


def _minimal_period(q):
    """Smallest divisor p of len(q) with q[i] = q[i mod p] for every i.
    For a divisor p that holds exactly when rotating q by p leaves it
    unchanged, which is one sequence compare."""
    n = len(q)
    for p in range(1, n):
        if n % p == 0 and q[p:] + q[:p] == q:
            return p
    return n


def normalize_period(quotients) -> PeriodicCF:
    """Reduce a quotient block to its minimal repeating prefix.

    The returned block tiles the input exactly; ``reduced`` is set when the
    input was not already minimal.  Quotients are read with
    ``operator.index``: a float or a string raises TypeError instead of
    being truncated or parsed.  An empty or non-positive block is
    rejected on the prefix, which holds every quotient of the input (and is
    empty for an empty input), as :class:`PeriodicCF` rejects it.

    The prefix q[:p] of minimal period p is itself of minimal period p: a
    divisor d < p of p whose prefix tiles q[:p] would tile q too, a smaller
    period of q.  So the instance is built without the constructor's check,
    which would find p a second time.
    """
    q = tuple(map(operator.index, quotients))
    p = _minimal_period(q)
    _check_quotients(q[:p])
    cf = object.__new__(PeriodicCF)
    _set(cf, "quotients", q[:p])
    _set(cf, "reduced", p < len(q))
    return cf


def iter_convergent_pairs(cf: PeriodicCF):
    """Yield (s_k, t_k) for k = 0, 1, 2, ... without end."""
    # from (s, t)_{-1} = (1, 0) and (s, t)_{-2} = (0, 1)
    s, t, s_prev, t_prev = 1, 0, 0, 1
    for a in itertools.cycle(cf.quotients):
        s, s_prev = a * s + s_prev, s
        t, t_prev = a * t + t_prev, t
        yield s, t


def convergents(cf: PeriodicCF, count: int) -> list[Convergent]:
    """The first ``count`` convergents, computed exactly."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [Convergent(k, s, t) for k, (s, t) in zip(range(count), iter_convergent_pairs(cf))]


def matrix_at(cf: PeriodicCF, k: int) -> ConvergentMatrix:
    """Exact matrix of the convergents at indices k and k-1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    pairs = _pairs_at(cf, (k, k - 1))
    (s, t), (s_prev, t_prev) = pairs[k], pairs[k - 1]
    return ConvergentMatrix(k, s, s_prev, t, t_prev)


def _pairs_at(cf, indices):
    """{k: (s_k, t_k)} for the given indices k >= -1, from one exact walk
    of max(indices) + 1 convergents; (s_{-1}, t_{-1}) = (1, 0)."""
    wanted = set(indices)
    pairs = {-1: (1, 0)} if -1 in wanted else {}
    for k, pair in zip(range(max(wanted) + 1), iter_convergent_pairs(cf)):
        if k in wanted:
            pairs[k] = pair
    return pairs


def _str(n):
    """str(n) for an int n of any length, with no digit limit read or set.

    Past the int-to-str digit limit of Python 3.11+, str() raises
    ValueError; n is then split as hi * 10**h + lo at about half its
    digits, and the halves are written alone, lo padded to h digits.  As
    str() is quadratic in the digits in CPython 3.11, two halves take half
    the time of the whole, which pays for the divmod."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _str(-n)
        h = n.bit_length() * 3 // 20  # about half the digits; 10**h < n
        hi, lo = divmod(n, 10**h)
        return _str(hi) + _str(lo).zfill(h)


def _int(text):
    """int(text) for a decimal string of any length, with no digit limit
    read or set: the reader of :func:`_str`.  Past the int-to-str digit
    limit of Python 3.11+ int() raises ValueError; a text of decimal digits
    is then read from its two halves as head * 10**h + tail, after what
    int() also reads around them: surrounding whitespace, a sign, and
    single underscores between digits.  The halves shrink until int()
    takes them, at 640 digits at the latest, as no limit can be set lower.
    Anything else raises ValueError, as from int()."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        negative = digits[:1] == "-"
        if digits[:1] in ("-", "+"):
            digits = digits[1:]
        if "__" not in f"_{digits}_":  # no underscore first, last or doubled
            digits = digits.replace("_", "")
        # bytes.isdigit() reads ASCII digits seven times as fast as str.isdecimal()
        if not (digits.encode().isdigit() or digits.isdecimal()):
            raise
        h = len(digits) // 2
        n = _int(digits[:-h]) * 10**h + _int(digits[-h:])
        return -n if negative else n


def _v2(n):  # 2-adic valuation of n != 0
    return (n & -n).bit_length() - 1


def _unresolved(k, precision):
    """The PrecisionExhausted of a t_k whose valuation the residue mod
    2**precision does not settle.  k can be about period * 2**r_j, past
    the int-to-str digit limit."""
    return PrecisionExhausted(f"v2(t_{_str(k)}) not resolvable at precision {_str(precision)}")


def _mat_mul_mod(A, B, mask):
    return ((A[0] * B[0] + A[1] * B[2]) & mask, (A[0] * B[1] + A[1] * B[3]) & mask,
            (A[2] * B[0] + A[3] * B[2]) & mask, (A[2] * B[1] + A[3] * B[3]) & mask)


def _square_mod(P, mask):
    """P @ P for the 2x2 tuple P of determinant 1 only, reduced by mask
    (the mask -1 keeps it exact).

    Cayley-Hamilton gives P^2 = tr(P) P - I over Z, hence mod 2^B, so a
    square costs four multiplications instead of the eight of
    :func:`_mat_mul_mod`.
    """
    a, b, c, d = P
    T = a + d
    return (T * a - 1) & mask, (T * b) & mask, (T * c) & mask, (T * d - 1) & mask


def _column_step(P, s, t, mask):
    """P @ (s, t), reduced by mask: the first column of P @ M from that
    of M, in four multiplications."""
    return (P[0] * s + P[1] * t) & mask, (P[2] * s + P[3] * t) & mask


def _mat_pow_mod(A, n, mask):
    R = (1, 0, 0, 1)
    while n:
        if n & 1:
            R = _mat_mul_mod(R, A, mask)
        A = _mat_mul_mod(A, A, mask)
        n >>= 1
    return R


def matrix_at_mod2(cf: PeriodicCF, k: int, precision: int) -> ConvergentMatrix:
    """matrix_at(cf, k) with entries reduced mod 2**precision.

    One whole block is a fixed matrix, so k+1 quotients split into a binary
    power of the block product times a short prefix.  Cost is logarithmic in
    k, which is what makes deep cascade indices affordable.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if precision < 2:
        raise ValueError("precision must be >= 2")
    mask = (1 << precision) - 1
    block = (1, 0, 0, 1)
    for a in cf.quotients:
        block = _mat_mul_mod(block, (a & mask, 1, 1, 0), mask)
    q, r = divmod(k + 1, len(cf))
    M = _mat_pow_mod(block, q, mask)
    for i in range(r):
        M = _mat_mul_mod(M, (cf.quotients[i] & mask, 1, 1, 0), mask)
    return ConvergentMatrix(k, M[0], M[1], M[2], M[3], 1 << precision)


def quad_irrational_of(cf: PeriodicCF) -> QuadIrrational:
    """Closed form of the expansion's value as a quadratic irrational.

    The value z satisfies t_{l-1} z^2 + (t_{l-2} - s_{l-1}) z - s_{l-2} = 0
    where l is the block length; take the positive root and normalize.
    """
    M = matrix_at(cf, len(cf) - 1)
    return _quad_irrational(M.s, M.t, M.s_prev, M.t_prev)


def _quad_irrational(s1, t1, s2, t2):
    """:func:`quad_irrational_of` from the columns (s1, t1) = (s_{l-1},
    t_{l-1}) and (s2, t2) = (s_{l-2}, t_{l-2}) of the block matrix D(l)."""
    P = s1 - t2
    D = (t2 - s1) ** 2 + 4 * t1 * s2
    Q = 2 * t1
    # D - P^2 = 4*t_{l-1}*s_{l-2} = 2*Q*s_{l-2}, so Q | D - P^2 from the start
    g = _largest_reduction(P, D, Q)
    return QuadIrrational(P // g, D // (g * g), Q // g)


def _largest_reduction(P, D, Q):
    """Largest g with g | P, g | Q, g^2 | D that keeps Q/g | (D - P^2)/g^2.

    That g is gcd(P, Q, (D - P^2)/Q), given Q | D - P^2.  A valid g divides
    P and Q, and Q*g | D - P^2, so it divides (D - P^2)/Q and hence the gcd.
    Conversely the gcd G gives Q*G | D - P^2, so G^2 | Q*G | D - P^2, and
    G^2 | P^2, hence G^2 | D: G is itself valid.
    """
    return math.gcd(P, Q, (D - P * P) // Q)


def cf_of_rational(s: int, t: int) -> list[int]:
    """Regular continued fraction of s/t by the Euclidean algorithm.

    The expansion is canonical: when longer than one term its last quotient
    is >= 2, so expansions are unique.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    if math.gcd(s, t) != 1:
        raise NotCoprime(f"gcd({s}, {t}) != 1")
    out = []
    while t:
        a, r = divmod(s, t)
        out.append(a)
        s, t = t, r
    return out
