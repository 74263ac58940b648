"""Shared corpus of quotient blocks and cached per-block computations.

The corpus covers block lengths 1 to 4 with quotients up to 5, every block
already in minimal-period form, and includes the three worked examples
(1,2,3), (1,2,5), (1,2,2).
"""

import functools

import kronseq.symbols
from kronseq import (PrecisionExhausted, analyze, certified_period_length,
                     classify, decompose, iter_convergent_pairs,
                     jacobi_sequence, kronecker_sequence, normalize_period,
                     reciprocal_jacobi_sequence)

CORPUS = [
    (1,), (2,), (3,), (4,), (5,),
    (1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (1, 4), (4, 1), (2, 5), (5, 2), (3, 4),
    (1, 2, 3), (1, 2, 5), (1, 2, 2), (1, 1, 2), (2, 2, 1), (1, 3, 2), (3, 1, 2),
    (1, 1, 3), (2, 1, 5), (1, 4, 2), (5, 1, 1), (2, 2, 3), (1, 5, 5),
    (1, 2, 1, 3), (1, 1, 1, 2), (2, 1, 2, 3), (1, 2, 3, 4), (1, 1, 2, 2), (3, 1, 1, 2),
]


@functools.lru_cache(maxsize=None)
def block_cf(block):
    return normalize_period(block)


@functools.lru_cache(maxsize=None)
def block_analysis(block):
    return analyze(block_cf(block))


@functools.lru_cache(maxsize=None)
def block_classification(block):
    return classify(block_cf(block))


@functools.lru_cache(maxsize=None)
def block_certified_length(block):
    return certified_period_length(block_cf(block))


@functools.lru_cache(maxsize=None)
def block_certified_decomposition(block):
    m, _, e = decompose(block_cf(block), block_certified_length(block))
    return m, e


@functools.lru_cache(maxsize=None)
def convergent_pairs(block, count):
    it = iter_convergent_pairs(block_cf(block))
    return tuple(next(it) for _ in range(count))


@functools.lru_cache(maxsize=None)
def kronecker_window(block, count):
    return kronecker_sequence(block_cf(block), count)


@functools.lru_cache(maxsize=None)
def jacobi_window(block, count):
    return jacobi_sequence(block_cf(block), count)


@functools.lru_cache(maxsize=None)
def reciprocal_window(block, count):
    return reciprocal_jacobi_sequence(block_cf(block), count)


def pinned_shift_cases(block):
    """All (k, f) with k < L, s_k = 3 mod 4, t_k even and v2(t_k) < m+e,
    at the certified period length L.  These are exactly the indices whose
    symbol at k+L is pinned: equal when f <= e-2, flipped when f = e-1."""
    L = block_certified_length(block)
    m, e = block_certified_decomposition(block)
    pairs = convergent_pairs(block, 2 * L)
    cases = []
    for k in range(L):
        s, t = pairs[k]
        if s % 4 != 3 or t % 2 != 0:
            continue
        f = _v2(t) - m
        if f <= e - 1:
            cases.append((k, f))
    return cases


def _v2(n):
    return (n & -n).bit_length() - 1


def record_lane_chunks(monkeypatch):
    """Record every chunk the lane pass builds, in build order, as
    (precision, chunk index, finished); the chunk at which a pass raises
    PrecisionExhausted is recorded unfinished."""
    built = []
    lane_flags = kronseq.symbols._lane_flags

    def recorded(cf, count, precision, start=0, full=True):
        j = start
        try:
            for flags in lane_flags(cf, count, precision, start, full):
                built.append((precision, j, True))
                j += 1
                yield flags
        except PrecisionExhausted:
            built.append((precision, j, False))
            raise

    monkeypatch.setattr(kronseq.symbols, "_lane_flags", recorded)
    return built
