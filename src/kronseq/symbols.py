"""Jacobi and Kronecker symbols, and the symbol sequences of a periodic CF.

Symbols are computed by reciprocity-style reduction only; nothing here
factors its arguments.  ``jacobi`` and ``kronecker`` work on exact integers
and are the reference for the sequences, which never build an exact
convergent.

The sequences come from one pass over the convergents kept mod 2^B.  With
s_{-1} = 1, t_{-1} = 0, s_0 = a_0, t_0 = 1, consecutive convergents satisfy

    s_k t_{k-1} - s_{k-1} t_k = (-1)^(k+1).

Write u_k for the odd part of t_k, chi(x) = (x/2) (+1 for x = +-1 mod 8)
and R(x, y) = -1 exactly when the odd parts of x and y are both 3 mod 4,
the sign of Kronecker reciprocity for coprime positive arguments (Cohen,
A Course in Computational Algebraic Number Theory, Thm 1.4.9).  Let
c_k = (t_{k-1}/t_k).  Then c_0 = c_1 = 1 and, for k >= 2, since
t_k = t_{k-2} mod t_{k-1},

    c_k = R(t_{k-1}, t_k) * c_{k-1} * chi(t_k t_{k-2})^v2(t_{k-1}).

Reducing the identity mod u_k gives (s_k/u_k)(t_{k-1}/u_k) =
((-1)^(k+1)/u_k), and the 2-part of t_k contributes chi(s_k t_{k-1})^v2(t_k):

    (s_k/t_k) = c_k * ((-1)^(k+1)/u_k) * chi(s_k t_{k-1})^v2(t_k).

The Jacobi entry is that value when t_k is odd, and the reciprocal entry
(t_k/s_k) = R(s_k, t_k) * (s_k/t_k) when s_k is odd.  As in computing the
Jacobi symbol from the Euclidean quotient sequence (Brent & Zimmermann,
ANTS 2010), the quotients are known up front: here they are the block
itself.  Each term needs only v2(t_k) and the residues mod 8 of odd parts.
The pass reads them off t_k mod 2^B while v2(t_k) < B-3 (bits v2 to v2+2
lie inside the residue, with one to spare); when t_k = 0 mod 2^B or
v2(t_k) >= B-3 it restarts at twice the precision, which ends once 2^B
exceeds 8 t_k.
"""

from __future__ import annotations

import math

from .cf import PeriodicCF
from .errors import EvenArgument, EvenModulus, NotCoprime, PrecisionExhausted

__all__ = [
    "STAR",
    "jacobi",
    "kronecker",
    "reciprocity_sign",
    "jacobi_sequence",
    "reciprocal_jacobi_sequence",
    "kronecker_sequence",
]

# Placeholder entry for sequence positions where the Jacobi symbol is
# undefined (even lower argument).  Serialized as-is.
STAR = "*"

# Working precision (bits) of the residue pass before any escalation.
_START_PRECISION = 64

# The sequence a residue pass builds.
_KRONECKER, _JACOBI, _RECIPROCAL = range(3)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 when gcd(a, n) > 1.

    Negative a is reduced mod n first, which absorbs the (-1/n) supplement.
    """
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"lower argument must be odd and positive, got {n}")
    a %= n
    result = 1
    while a:
        z = (a & -a).bit_length() - 1
        if z & 1 and n & 7 in (3, 5):
            result = -result
        a >>= z
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def kronecker(s: int, t: int) -> int:
    """Kronecker symbol (s/t) for coprime s, t with t >= 1; always +-1.

    For t = 2^j * t' with t' odd this is (s/2)^j * (s/t'), where (s/2) is
    +1 for s = +-1 mod 8 and -1 for s = +-3 mod 8.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if math.gcd(s, t) != 1:
        raise NotCoprime(f"gcd({s}, {t}) != 1")
    j = 0
    while t % 2 == 0:
        t //= 2
        j += 1
    result = jacobi(s, t)
    if j % 2:
        result *= 1 if s % 8 in (1, 7) else -1
    return result


def reciprocity_sign(s_odd: int, t_odd: int) -> int:
    """Sign relating (s/t) and (t/s): -1 iff both arguments are 3 mod 4."""
    if s_odd < 1 or s_odd % 2 == 0 or t_odd < 1 or t_odd % 2 == 0:
        raise EvenArgument(f"arguments must be odd positive, got {s_odd}, {t_odd}")
    return -1 if s_odd % 4 == 3 and t_odd % 4 == 3 else 1


def jacobi_sequence(cf: PeriodicCF, count: int) -> list:
    """(s_k/t_k) for k < count, with STAR wherever t_k is even."""
    return _symbol_sequence(cf, count, _JACOBI)


def reciprocal_jacobi_sequence(cf: PeriodicCF, count: int) -> list:
    """(t_k/s_k) for k < count, with STAR wherever s_k is even."""
    return _symbol_sequence(cf, count, _RECIPROCAL)


def kronecker_sequence(cf: PeriodicCF, count: int) -> list[int]:
    """Kronecker symbols (s_k/t_k) for k < count; entries are always +-1
    because consecutive convergents are coprime."""
    return _symbol_sequence(cf, count, _KRONECKER)


def _symbol_sequence(cf, count, kind, precision=_START_PRECISION):
    """The Kronecker, Jacobi or reciprocal Jacobi list (by ``kind``) of
    length count, from the residue pass at the smallest doubling of
    precision that resolves every term."""
    if count < 1:
        raise ValueError("count must be >= 1")
    while True:
        try:
            return _residue_pass(cf, count, kind, precision)
        except PrecisionExhausted:
            precision *= 2


def _residue_pass(cf, count, kind, precision):
    # Loop state before step k: s = s_{k-1}, s_prev = s_{k-2}, t = t_{k-1},
    # t_prev = t_{k-2} (all mod 2^precision), w = v2(t_{k-1}),
    # o = u_{k-1} mod 8 and c = c_{k-1}.
    mask = (1 << precision) - 1
    limit = precision - 3
    quotients = [a & mask for a in cf.quotients]
    l = len(quotients)
    s, s_prev, t, t_prev = quotients[0], 1, 1, 0
    w, o, c = 0, 1, 1
    out = [STAR if kind == _RECIPROCAL and not s & 1 else 1]
    for k in range(1, count):
        a = quotients[k % l]
        s, s_prev = (a * s + s_prev) & mask, s
        t_new = (a * t + t_prev) & mask
        if t_new & 1:
            v, u = 0, t_new & 7
        else:
            if not t_new:
                raise PrecisionExhausted(f"t_{k} = 0 mod 2^{precision}")
            v = (t_new & -t_new).bit_length() - 1
            if v >= limit:
                raise PrecisionExhausted(f"v2(t_{k}) not resolvable at precision {precision}")
            u = (t_new >> v) & 7
        if o & u & 2:  # R(t_{k-1}, t_k)
            c = -c
        if w & 1 and (t_new * t_prev) & 7 in (3, 5):  # chi(t_k t_{k-2})^w
            c = -c
        sym = c
        if not k & 1 and u & 2:  # ((-1)^(k+1) / u_k)
            sym = -sym
        if v & 1 and (s * t) & 7 in (3, 5):  # chi(s_k t_{k-1})^v
            sym = -sym
        if kind == _KRONECKER:
            out.append(sym)
        elif kind == _JACOBI:
            out.append(STAR if v else sym)
        else:  # (t_k/s_k) = R(s_k, t_k) * (s_k/t_k)
            out.append(STAR if not s & 1 else -sym if s & u & 2 else sym)
        t, t_prev = t_new, t
        w, o = v, u
    return out
