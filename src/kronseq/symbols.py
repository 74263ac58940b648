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
itself.  Each term needs only v2(t_k) and the residues mod 8 of odd parts,
read off t_k mod 2^B while v2(t_k) < B-3 (bits v2 to v2+2 lie inside the
residue, with one to spare).  When some t_k = 0 mod 2^B or v2(t_k) >= B-3
the pass raises PrecisionExhausted in the chunk (below) that holds k, and
goes on from that chunk at twice the precision, which ends once 2^B
exceeds 8 t_k.

The pass works on all terms at once.  The lanes of two ints S and T,
W = 2B + 8 bits apart, hold s_k and t_k mod 2^B for consecutive k, so
that a lane times a B-bit scalar, plus another such product, stays inside
its lane.  The first two lanes hold the seed terms (s, t)_{-2} = (0, 1)
and (s, t)_{-1} = (1, 0), and lane i holds term i - 2.  For N a multiple
of the block length l, (s, t)_{k+N} = D(N) (s, t)_k for k >= -2, with
D(N) = [[s_{N-1}, s_{N-2}], [t_{N-1}, t_{N-2}]] (the column identity of
:func:`kronseq.analysis.cascade`): it holds from k = -2 on, since D(N)
maps the seed terms onto its own columns (s, t)_{N-2} and (s, t)_{N-1}.
So the seed terms and terms 0..l-1, from the recurrence, fill terms
N-2..2N-1 from terms -2..N-1 with four scalar multiplications of the
whole window by D(N) mod 2^B, for N = l, 2l, 4l, ...  Each term's data
is then a few word operations over the window, with ONES the int holding
1 in every lane and LM the one holding 2^B - 1:

    low  = T & ((LM ^ T) + ONES)   # 2^v2(t_k) in lane k (-t = ~t + 1)
    V_k  = [low_k at an odd bit]   # v2(t_k) odd
    H_k  = [t_k & (low_k << 1)]    # bit v2+1 of t_k: u_k = 3 mod 4
    X(x) = bit 1 ^ bit 2 of x      # chi(x) = -1, for odd x

each flag moved to bit 0 of its lane by adding LM (a nonzero lane carries
into bit B) and shifting.  Lane shifts by W give the flags of t_{k-1} and
t_{k-2}.  With bit 1 standing for -1, the recurrence for c_k is a running
XOR of the flips

    F_k = H_{k-1} H_k ^ V_{k-1} (X(t_k) ^ X(t_{k-2})),

and (s_k/t_k) = c_k ^ G_k with G_k = [k even] H_k ^ V_k (X(s_k) ^
X(t_{k-1})).  F_0 = F_1 = G_0 = 0, since the seed t_{-1} = 0 gives no
flag and t_0 = 1.  The Jacobi entry is STAR where bit 0 of t_k is clear, the
reciprocal entry STAR where bit 0 of s_k is, and R(s_k, t_k) = bit 1 of
s_k and H_k.  The low byte of lane k, holding these flags, is cut out of
the bytes of the window as one byte per term; ``bytes.translate`` turns
one flag of every term into a digit string, read as one int with bit k
for term k.  The running XOR c is then the prefix XOR of F, in
ceil(log2 n) shift-XORs c ^= c << 2^i.

So one pass yields four masks, bit k for term k: the Kronecker -1 mask
c ^ G, the t-even and s-even masks, and the reciprocity-flip mask
R(s_k, t_k).  Each sequence is read off them: the Kronecker one from the
-1 mask, the Jacobi one from it with STAR at the t-even bits, the
reciprocal one from its XOR with the flip mask, with STAR at the s-even
bits.  A request for all three sequences makes one pass, and one for
the Kronecker mask alone sets only the F and G flags.

Memory stays bounded by doing this in chunks of C = l * 2^j terms (about
_CHUNK_LANES).  S and T of the chunk that starts at term base hold its
terms and the two below it, base-2 .. base+n-1, and those two lower lanes
give the flags of t_{k-1} and t_{k-2} at the chunk's bottom.  Chunk 0
has the seed terms there.  The next chunk, lower lanes included, is D(C)
times the current one, again four scalar multiplications, so S and T are
all that passes from one chunk to the next.  Only the flag bytes, one
per term, are kept.

A chunk the pass cannot resolve is built again, alone, at twice the
precision, and the pass goes on from it; the chunks before it are kept.
The column identity seeds chunk j at any precision without the chunks
before it: D(jC) = D(C)^j, as jC is a multiple of l, so chunk j, its two
lower lanes included, is D(C)^j times chunk 0, lane for lane.  That is
one power of D(C) mod 2^B, by :func:`~kronseq.cf._mat_pow_mod` (C may be
odd, so det D(C) = (-1)^C may be -1), and four scalar multiplications of
chunk 0.  A finished flag byte is exact, whatever the precision of its
chunk: it is a function of v2(t_k) and of bits v2 to v2+2 of t_k, t_{k-1}
and t_{k-2} and bits 0 to 2 of s_k, which the residues mod 2^B determine
once every v2 among them is below B-3.  Only the chunk's own terms are
checked for that.  Its two lower lanes need no check of their own: they
were checked in the chunk before, at the same precision or a lower one
(the chunk before a resumed one was finished at a lower precision, and
the bits it resolved stay resolved), and in chunk 0 they are the exact
seeds t_{-2} = 1 and t_{-1} = 0.  The sign c_k is the prefix XOR of the
F flags, taken after the pass, so no other state crosses a chunk
boundary.
"""

from __future__ import annotations

import math

from .cf import PeriodicCF, _column_step, _mat_pow_mod, _pairs_at, _unresolved, _v2
from .errors import EvenArgument, EvenModulus, NotCoprime, PrecisionExhausted

__all__ = [
    "STAR",
    "jacobi",
    "kronecker",
    "reciprocity_sign",
    "jacobi_sequence",
    "reciprocal_jacobi_sequence",
    "kronecker_sequence",
    "kronecker_bits",
]

# Placeholder entry for sequence positions where the Jacobi symbol is
# undefined (even lower argument).  Serialized as-is.
STAR = "*"

# Working precision (bits) of the lane pass before any escalation; a lane
# is 2B + 8 bits wide (5 bytes at B = 16), so B sets the cost of every word
# operation.  An escalation builds only the chunk that holds the
# unresolved term again, so the pass starts low: on the 64 seed 0-7 bench
# verify-window blocks, 55 resolve all 1,500 terms at 16 bits and the other
# 9 escalate once.  The random-access symbol starts at the same precision.
_START_PRECISION = 16

# Lanes per chunk of the lane pass, before rounding to l * 2^j.  About two
# dozen chunk-sized ints are alive at once, 1.3 KB each at B = 16, so a
# pass needs tens of KB beside its one flag byte per term; on 1,500-term
# windows at B = 32, chunks of 4,096 lanes measured no faster and held
# 310 KB.  An escalation rebuilds at most one chunk.
_CHUNK_LANES = 256

# Bits of a term's flag byte.
_F, _G, _T_EVEN, _S_EVEN, _FLIP = (1 << i for i in range(5))

# bytes.translate tables: flag byte -> b"1" if the flag is set, else b"0".
_DIGIT = {flag: bytes(b"01"[bool(b & flag)] for b in range(256))
          for flag in (_F, _G, _T_EVEN, _S_EVEN, _FLIP)}


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
    j = _v2(t)
    sign = -1 if j & 1 and s % 8 in (3, 5) else 1  # (s/2)^j
    return sign * jacobi(s, t >> j)


def reciprocity_sign(s_odd: int, t_odd: int) -> int:
    """Sign relating (s/t) and (t/s): -1 iff both arguments are 3 mod 4."""
    if s_odd < 1 or s_odd % 2 == 0 or t_odd < 1 or t_odd % 2 == 0:
        raise EvenArgument(f"arguments must be odd positive, got {s_odd}, {t_odd}")
    return -1 if s_odd % 4 == 3 and t_odd % 4 == 3 else 1


def jacobi_sequence(cf: PeriodicCF, count: int) -> list:
    """(s_k/t_k) for k < count, with STAR wherever t_k is even."""
    minus, t_even, _, _ = _masks(cf, count)
    return _read(minus, t_even, count)


def reciprocal_jacobi_sequence(cf: PeriodicCF, count: int) -> list:
    """(t_k/s_k) for k < count, with STAR wherever s_k is even."""
    minus, _, s_even, flip = _masks(cf, count)
    return _read(minus ^ flip, s_even, count)


def kronecker_sequence(cf: PeriodicCF, count: int) -> list[int]:
    """Kronecker symbols (s_k/t_k) for k < count; entries are always +-1
    because consecutive convergents are coprime."""
    return _read(kronecker_bits(cf, count), 0, count)


def kronecker_bits(cf: PeriodicCF, count: int) -> int:
    """The Kronecker symbols (s_k/t_k), k < count, packed: bit k is set
    exactly when (s_k/t_k) = -1."""
    return _minus(_flags(cf, count, _START_PRECISION, False), count)


def _kronecker_at(cf, period, indices):
    """{K: (s_K/t_K)} for the given indices K >= 0, by random access: from
    exact symbols below ``period``, a multiple of the block length with
    D(period) = I mod 4 (L4 or 2*L4), and the residue of t_K mod 2^B.

    Write P = period, K = k + n*P with k < P, and D(P) = [[a, b], [c, d]]
    = [[s_{P-1}, s_{P-2}], [t_{P-1}, t_{P-2}]].  D(P) is in SL2(Z) (P is
    even, fact (1) of the ``analysis`` module docstring), has non-negative
    entries and is I mod 4, and (s, t)_{j+P} = D(P) (s, t)_j for j >= 0
    (the column identity of :func:`kronseq.analysis.cascade`); so t_K and
    t_k have the same parity, and s_K = s_k mod 4.  Consecutive convergents
    are coprime and s_j, t_j >= 1 for j >= 0.

    Odd t_k.  The lemma of the ``analysis`` module docstring, applied to
    D(P) (lower-left entry c = t_{P-1} >= 1) and (s, t)_j, gives
    (s_{j+P}/t_{j+P}) = f (s_j/t_j) with f = (d/c) = (t_{P-2}/t_{P-1});
    n steps give (s_K/t_K) = f^n (s_k/t_k), fact (4).

    Even t_k.  Then s_K is odd; write t_K = 2^v u_K with u_K odd.  As
    (s/2) = (2/s) for odd s, and by Jacobi reciprocity for the coprime odd
    s_K and u_K, (s_K/t_K) = (s_K/2)^v (s_K/u_K) = R(s_K, u_K) (t_K/s_K),
    with R as in the module docstring.  The rows and columns of D(P)
    swapped, [[d, c], [b, a]], send (t, s)_j to (t, s)_{j+P}; it is in
    SL2(Z), non-negative, I mod 4, and its lower-left entry is
    b = s_{P-2} >= 1 (P >= 2 and s_0 = a_0 >= 1).  The same lemma, with
    t_j >= 1 in the role of s and the odd s_j in that of t, gives
    (t_{j+P}/s_{j+P}) = g (t_j/s_j) with g = (a/b) = (s_{P-1}/s_{P-2}).
    And g = f: since a = 1 mod 4, (a/x) = (x/a) for x >= 1 (reciprocity
    again, with (a/2) = (2/a)), so (a/b)(a/c) = (a/bc) = ((ad - 1)/a) =
    (-1/a) = 1, and (a/c) = f (proof of fact (5)).  Hence
    (s_K/t_K) = R(s_K, u_K) f^n (t_k/s_k).  R(s_K, u_K) is -1 only when
    s_k = s_K = 3 mod 4, and only then is u_K mod 4 read: bits v and v+1
    of t_K mod 2^B, the second entry of D(P)^n (s, t)_k mod 2^B (one
    :func:`~kronseq.cf._mat_pow_mod` and one
    :func:`~kronseq.cf._column_step`), which a residue settles once it is
    nonzero with v <= B - 2.  B starts at _START_PRECISION and doubles
    until it does, which ends once 2^B > 4 t_K.

    The symbols below P, D(P) and f are exact, from one exact walk of P
    terms, f only when some n is odd; per index the cost is then at most a
    few matrix powers, logarithmic in K.
    """
    wanted = sorted(set(indices))
    below = {K % period for K in wanted}
    pairs = _pairs_at(cf, [*below, period - 2, period - 1])
    (a, c), (b, d) = pairs[period - 1], pairs[period - 2]
    D = (a, b, c, d)  # D(P), determinant 1
    base = {}  # (s_k/t_k) for odd t_k, (t_k/s_k) for even t_k
    for k in below:
        s, t = pairs[k]
        base[k] = kronecker(s, t) if t & 1 else kronecker(t, s)
    f = 0  # until some odd n needs it
    out = {}
    for K in wanted:
        n, k = divmod(K, period)
        s, t = pairs[k]
        symbol = base[k]
        if n & 1:
            f = f or kronecker(d, c)
            symbol *= f
        if not t & 1 and s & 3 == 3:  # R(s_K, u_K) = -1 iff u_K = 3 mod 4
            B = _START_PRECISION
            while True:
                mask = (1 << B) - 1
                tK = _column_step(_mat_pow_mod(D, n, mask), s, t, mask)[1]
                if tK and _v2(tK) <= B - 2:
                    break
                B *= 2
            if tK >> _v2(tK) & 2:
                symbol = -symbol
        out[K] = symbol
    return out


def _sequences(cf, count):
    """The Jacobi, reciprocal Jacobi and Kronecker lists of length count,
    from one lane pass."""
    minus, t_even, s_even, flip = _masks(cf, count)
    return (_read(minus, t_even, count), _read(minus ^ flip, s_even, count),
            _read(minus, 0, count))


def _read(minus, star, count):
    """The list whose entry k is STAR if bit k of star is set, else -1 if
    bit k of minus is, else 1."""
    signs = format(minus, f"0{count}b")[::-1]
    stars = format(star, f"0{count}b")[::-1]
    return [STAR if a == "1" else -1 if b == "1" else 1
            for a, b in zip(stars, signs)]


def _masks(cf, count, precision=_START_PRECISION):
    """(minus, t_even, s_even, flip) for the terms k < count, each an int
    with bit k for term k: (s_k/t_k) = -1, t_k even, s_k even, and
    R(s_k, t_k) = -1."""
    flags = _flags(cf, count, precision, True)
    return (_minus(flags, count), _bits(flags, _T_EVEN), _bits(flags, _S_EVEN),
            _bits(flags, _FLIP))


def _flags(cf, count, precision, full):
    """The flag bytes of the terms k < count, one per term, from one lane
    pass that starts at ``precision`` and goes on from the chunk it cannot
    resolve at twice the precision, keeping the chunks it has made."""
    if count < 1:
        raise ValueError("count must be >= 1")
    chunks = []
    while True:
        try:
            for flags in _lane_flags(cf, count, precision, len(chunks), full):
                chunks.append(flags)
            return b"".join(chunks)
        except PrecisionExhausted:
            precision *= 2


def _bits(flags, flag):
    """The int with bit k set exactly when byte k of flags has ``flag``."""
    return int(flags.translate(_DIGIT[flag])[::-1], 2)


def _minus(flags, count):
    """The mask of the terms k < count with (s_k/t_k) = -1: c_k ^ G_k,
    with c_k the prefix XOR of F."""
    c, shift = _bits(flags, _F), 1
    while shift < count:
        c ^= c << shift
        shift <<= 1
    return (c ^ _bits(flags, _G)) & ((1 << count) - 1)


def _chunk(l):
    """Lanes per chunk for block length l: l * 2^j, at most _CHUNK_LANES
    and more than half of it, or l itself when l exceeds it."""
    return l << max(0, (_CHUNK_LANES // l).bit_length() - 1)


def _lane_flags(cf, count, precision, start=0, full=True):
    """Yield the flag bytes of the terms k < count (module docstring), one
    byte per term and one bytes object per chunk, from chunk ``start`` on,
    computed mod 2**precision.  Raises PrecisionExhausted at the first
    chunk holding a t_k whose low precision - 3 bits are all zero.  With
    ``full`` false only the F and G flags are set.

    Lanes 0..n+1 of S and T hold terms base-2 .. base+n-1 of the chunk of
    n terms that starts at term base: one layout for chunk 0, whose lower
    lanes are the seeds, for each doubling of its fill, for the next chunk
    (D(C) times this one) and for a resumed one (D(C)^start times chunk
    0).  Only lanes 2..n+1 are checked for resolvability; the lower two
    were checked in the chunk before, at the same precision or a lower
    one, or are the exact seeds t_{-2} = 1 and t_{-1} = 0."""
    B = precision
    size = (2 * B + 15) // 8  # bytes per lane
    W = 8 * size  # 2B + 8 bits when B is a multiple of 4
    mask = (1 << B) - 1

    def D(N):  # D(N) mod 2^B: its columns, terms N-1 and N-2, in lanes N+1, N
        return tuple((X >> (k * W)) & mask for X in (S, T) for k in (N + 1, N))

    C = _chunk(len(cf))
    n = min(count, C)  # terms of the current chunk
    # masks for the first chunk, over its n + 2 lanes
    ONES = int.from_bytes(b"\1".ljust(size, b"\0") * (n + 2), "little")
    EVEN = int.from_bytes(b"\1".ljust(2 * size, b"\0") * (n // 2 + 1), "little")
    LM, ODD = ONES * mask, ONES * (int("10" * B, 2) & mask)  # ODD: odd bits
    TOP = (ONES >> (2 * W)) << (2 * W + B - 3)  # bit B - 3 of lanes 2..n+1
    LOW = TOP - (TOP >> (B - 3))  # the bits of t_k that must not all be 0

    # the seed lanes (s, t)_{-2} = (0, 1) and (s, t)_{-1} = (1, 0), then
    # terms 0..l-1 by the recurrence
    S, T = [0, 1], [1, 0]
    for a in cf.quotients:
        S.append((a * S[-1] + S[-2]) & mask)
        T.append((a * T[-1] + T[-2]) & mask)
    S, T = (int.from_bytes(b"".join(x.to_bytes(size, "little") for x in X), "little")
            for X in (S, T))
    N = len(cf)
    while N < n:  # terms N-2..2N-1 are D(N) times terms -2..N-1
        a, b, c, d = D(N)
        S, T = (S | ((a * S + b * T) & LM) << (N * W),
                T | ((c * S + d * T) & LM) << (N * W))
        N *= 2
    step = D(C)  # used only when count > C, and the fill then holds lane C + 1

    base = start * C
    if start:  # chunk start is D(C)^start = D(base) times chunk 0
        a, b, c, d = _mat_pow_mod(step, start, mask)
        S, T = a * S + b * T, c * S + d * T
    while True:
        if count - base < n:  # a shorter last chunk
            n = count - base
            window = (1 << ((n + 2) * W)) - 1
            ONES, LM, ODD, LOW, TOP = (X & window for X in (ONES, LM, ODD, LOW, TOP))
        S, T = S & LM, T & LM  # terms base-2 .. base+n-1, each mod 2^B
        if ((T & LOW) + LOW) & TOP != TOP:
            unsettled = TOP ^ (((T & LOW) + LOW) & TOP)
            k = base - 2 + ((unsettled & -unsettled).bit_length() - 1) // W
            raise _unresolved(k, B)
        lowbit = T & ((LM ^ T) + ONES)
        V = (((lowbit & ODD) + LM) >> B) & ONES
        H = (((T & (lowbit << 1)) + LM) >> B) & ONES
        Xt = T >> 1
        Xt = (Xt ^ (Xt >> 1)) & ONES
        Hk, S1 = H >> (2 * W), S >> (2 * W + 1)  # lane k: term base + k
        # lanes n and n + 1 of these hold garbage, cut off below
        F = ((H >> W) & Hk) ^ ((V >> W) & (Xt ^ (Xt >> (2 * W))))
        G = ((EVEN >> (base & 1) * W) & Hk) ^ ((V >> (2 * W)) & (S1 ^ (S1 >> 1) ^ (Xt >> W)))
        flags = F | G << 1
        if full:
            flags |= ((((T >> (2 * W)) & ONES) ^ ONES) << 2
                      | (((S >> (2 * W)) & ONES) ^ ONES) << 3 | (S1 & Hk) << 4)
        yield flags.to_bytes((n + 2) * size, "little")[:n * size:size]
        base += n
        if base >= count:
            return
        a, b, c, d = step
        S, T = a * S + b * T, c * S + d * T
