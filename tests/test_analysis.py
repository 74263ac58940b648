import importlib
import inspect
import itertools
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronseq.analysis
import kronseq.cf
import kronseq.symbols
from kronseq import (Aperiodic, PeriodAnalysis, Periodic2L, PeriodicL,
                     PrecisionExhausted, analyze, cascade,
                     certified_period_length, classify, convergents,
                     critical_scan, decompose, iter_convergent_pairs, jacobi,
                     jacobi_sequence, kronecker, kronecker_sequence, matrix_at,
                     matrix_at_mod2, mod4_period_length, normalize_period,
                     threshold_valuation)

from conftest import CORPUS, block_analysis, block_classification, block_cf


def v2(n):
    return (n & -n).bit_length() - 1


def doubled(m, U, precision):
    """(m', U') of D(2L) = I + 2^m' U' from D(L) = I + 2^m U by the closed
    form of the analysis module docstring: m' = m + 1 and U' = U +
    2^(m-1) U^2 mod 2**precision (e is unchanged)."""
    mask = (1 << precision) - 1
    P = U[0] + U[1]
    x, y, u, v = ((p + (q << (m - 1))) & mask
                  for p, q in zip(P, kronseq.cf._mat_mul_mod(P, P, mask)))
    return m + 1, ((x, y), (u, v))


# ---------------------------------------------------------------------------
# period lengths

def test_mod4_period_lengths():
    assert mod4_period_length(block_cf((1, 2, 3))) == 6
    assert mod4_period_length(block_cf((1, 2, 5))) == 12
    assert mod4_period_length(block_cf((2,))) == 4
    assert mod4_period_length(block_cf((1,))) == 6
    # for (1,2,2) the identity mod 4 first holds at 18 = 6*3, although the
    # Jacobi sequence only repeats from 36 on
    assert mod4_period_length(block_cf((1, 2, 2))) == 18


def test_certified_period_lengths():
    assert certified_period_length(block_cf((1, 2, 3))) == 6
    assert certified_period_length(block_cf((1, 2, 5))) == 24
    assert certified_period_length(block_cf((1, 2, 2))) == 36
    assert certified_period_length(block_cf((2,))) == 8
    assert certified_period_length(block_cf((1,))) == 12


def test_mod4_length_is_identity_and_smallest():
    for block in CORPUS:
        cf = block_cf(block)
        L = mod4_period_length(cf)
        assert L % 2 == 0 and L % len(cf) == 0
        M = matrix_at(cf, L - 1)
        assert (M.s % 4, M.s_prev % 4, M.t % 4, M.t_prev % 4) == (1, 0, 0, 1)
        for L2 in range(len(cf), L, len(cf)):
            if L2 % 2:
                continue
            M2 = matrix_at(cf, L2 - 1)
            assert (M2.s % 4, M2.s_prev % 4, M2.t % 4, M2.t_prev % 4) != (1, 0, 0, 1)


def test_gl2_z4_element_orders():
    # the mod-4 search ends within 6 block multiples: every invertible 2x2
    # matrix mod 4 has order 1, 2, 3, 4 or 6
    identity = (1, 0, 0, 1)
    orders = set()
    group = [A for A in itertools.product(range(4), repeat=4)
             if (A[0] * A[3] - A[1] * A[2]) % 2]
    assert len(group) == 96
    for A in group:
        P, order = A, 1
        while P != identity:
            P = kronseq.cf._mat_mul_mod(P, A, 3)
            order += 1
        orders.add(order)
    assert orders == {1, 2, 3, 4, 6}


def is_identity_mod4(M):
    return (M.s % 4, M.s_prev % 4, M.t % 4, M.t_prev % 4) == (1, 0, 0, 1)


def exact_mod4_period_length(cf):
    """The search by an exact matrix_at per candidate multiplier."""
    for d in range(1, 25):
        L = d * len(cf)
        if L % 2 == 0 and is_identity_mod4(matrix_at(cf, L - 1)):
            return L


def exact_certified_period_length(cf):
    """The search of every even multiple of l up to 24 l on a 48 l window."""
    window = jacobi_sequence(cf, 48 * len(cf))
    for d in range(1, 25):
        L = d * len(cf)
        if L % 2 == 0 and is_identity_mod4(matrix_at(cf, L - 1)) \
                and window[L:] == window[:-L]:
            return L


def minimal_blocks(max_length, max_quotient):
    for l in range(1, max_length + 1):
        for block in itertools.product(range(1, max_quotient + 1), repeat=l):
            cf = normalize_period(block)
            if cf.quotients == block:
                yield cf


def check_base_search(cf):
    L4 = mod4_period_length(cf)
    assert L4 == exact_mod4_period_length(cf) and L4 <= 6 * len(cf), cf
    # the identity mod 4 forces an even length: det D(L) = (-1)^L
    assert all(not is_identity_mod4(matrix_at(cf, L - 1))
               for L in range(len(cf), 25 * len(cf), 2 * len(cf)) if L % 2), cf
    Lc = certified_period_length(cf)
    assert Lc == exact_certified_period_length(cf), cf
    # fact (4): 2*L4 is a period of the Jacobi sequence
    window = jacobi_sequence(cf, 48 * len(cf))
    assert window[2 * L4:] == window[:-2 * L4], cf
    # fact (5): the sign f = (d/c) = (a/c) of D(L4) = [[a, b], [c, d]]
    # decides whether L4 is a Jacobi period
    D = matrix_at(cf, L4 - 1)
    f = kronecker(D.t_prev, D.t)
    assert f == kronecker(D.s, D.t) == kronecker_sequence(cf, L4)[L4 - 1], cf
    assert (Lc == L4) == (f == 1), cf
    for L in (L4, 2 * L4):
        m, _, e = decompose(cf, L)
        assert m + e == v2(matrix_at(cf, L - 1).t), (cf, L)
    check_doubling(cf, L4)
    # analyze's one walk gives what the public steps give one by one
    m, U, e = decompose(cf, L4)
    critical, subcritical = critical_scan(cf, L4, m, e)
    if critical or Lc == L4:
        expected = PeriodAnalysis(L4, m, U, e, critical, subcritical, 128, Lc == L4)
    else:
        expected = PeriodAnalysis(2 * L4, *doubled(m, U, 128), e, (), (), 128, True)
    assert analyze(cf) == expected, cf
    # no critical index at L4 leaves nothing to scan at 2*L4 (module
    # docstring), so analyze does not scan there
    if critical:
        return False
    assert critical_scan(cf, 2 * L4, m + 1, e) == ((), ()), cf
    return Lc == 2 * L4  # analyze reached 2*L4


def check_doubling(cf, L4):
    """The decomposition at 2*L4, from the exact walk to 2*L4, is the
    closed form of the one at L4."""
    for precision in (8, 128):
        m, U, e = decompose(cf, L4, precision)
        assert (*doubled(m, U, precision), e) == decompose(cf, 2 * L4, precision), \
            (cf, precision)


def test_base_search_matches_exact_loops_on_small_blocks():
    blocks = list(minimal_blocks(4, 5))
    assert len(blocks) == 745
    assert sum(check_base_search(cf) for cf in blocks) == 367


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=12))
def test_base_search_matches_exact_loops_hypothesis(quotients):
    check_base_search(normalize_period(quotients))


def reference_walk(cf, period=None):
    """The analysis walk written plainly: pairs drawn from
    iter_convergent_pairs, a stop at the first block boundary d*l that is
    ``period`` or, when that is None, has D(d*l) = I mod 4, and f the exact
    Kronecker symbol (t_{L-2}/t_{L-1})."""
    l, s_prev, t_prev, candidates = len(cf), 1, 0, []
    for k, (s, t) in enumerate(iter_convergent_pairs(cf)):
        if t % 2 == 0 and s % 4 == 3:
            candidates.append((k, v2(t), s, t))
        if (k + 1) % l == 0:
            D = (s, s_prev, t, t_prev)
            if k + 1 == l:
                block = D
            if k + 1 == period or period is None and \
                    (D[0] % 4, D[1] % 4, D[2] % 4, D[3] % 4) == (1, 0, 0, 1):
                return k + 1, D, block, candidates, kronecker(t_prev, t)
        s_prev, t_prev = s, t


def reference_split(D, candidates, precision):
    """(m, U, e) of D = I + 2^m U, m the least v2 of the nonzero entries of
    D - I, and the critical and subcritical indices with their pairs."""
    diff = (D[0] - 1, D[1], D[2], D[3] - 1)
    m = min(v2(x) for x in diff if x)
    mask = (1 << precision) - 1
    x, y, u, v = (d >> m for d in diff)
    e = v2(u)
    critical = tuple(k for k, w, _, _ in candidates if w >= m + e)
    subcritical = tuple(k for k, w, _, _ in candidates if w == m + e - 1)
    pairs = {k: (s, t) for k, w, s, t in candidates if w >= m + e - 1}
    return m, ((x & mask, y & mask), (u & mask, v & mask)), e, critical, subcritical, pairs


def reference_analysis(cf, precision):
    """analyze by the reference walk and split, with the decomposition at
    2*L4 by the closed form."""
    L, D, block, candidates, f = reference_walk(cf)
    m, U, e, critical, subcritical, pairs = reference_split(D, candidates, precision)
    if critical or f == 1:
        return (PeriodAnalysis(L, m, U, e, critical, subcritical, precision, f == 1),
                (block, D, pairs))
    return (PeriodAnalysis(2 * L, *doubled(m, U, precision), e, (), (), precision, True),
            (block, D, {}))


def check_against_reference(cf):
    """Whether analyze reported at 2*L4, after checking it, decompose and
    critical_scan against the reference."""
    for precision in (8, 128):
        expected, walk = reference_analysis(cf, precision)
        a = analyze(cf, precision)
        assert (a, a.walk) == (expected, walk), (cf, precision)
    L4 = reference_walk(cf)[0]
    for period in (L4, 2 * L4):
        _, D, _, candidates, _ = reference_walk(cf, period)
        m, U, e, critical, subcritical, _ = reference_split(D, candidates, 128)
        assert decompose(cf, period) == (m, U, e), (cf, period)
        assert critical_scan(cf, period, m, e) == (critical, subcritical), (cf, period)
    return a.period == 2 * L4


def test_walk_and_split_match_reference_on_small_blocks():
    blocks = list(minimal_blocks(4, 5))
    assert len(blocks) == 745
    assert sum(check_against_reference(cf) for cf in blocks) == 367


def test_walk_and_split_match_reference_on_seeded_blocks():
    rng = random.Random(20261019)
    reached = 0
    for _ in range(200):
        l = rng.randint(1, 64)
        cf = normalize_period([rng.randint(1, 1000) for _ in range(l)])
        reached += check_against_reference(cf)
        check_doubling(cf, mod4_period_length(cf))
    assert 0 < reached < 200


def random_sl2(rng, q):
    """A random [[a, b], [c, d]] in SL2(Z) with non-negative entries,
    c >= 1 and the whole matrix = I mod q, for q = 4 or 8."""
    while True:
        c = q * rng.randint(1, 60)
        d = 1 + q * rng.randint(0, 60)
        if math.gcd(c, d) == 1:
            break
    # a*d = 1 mod q*c makes b = (a*d - 1)/c divisible by q, and then
    # a*d = 1 mod q^2 gives a = 1 mod q
    a = pow(d, -1, q * c) + q * c * rng.randint(0, 4)
    return a, (a * d - 1) // c, c, d


def odd_part(n):
    return n >> v2(n)


def lemma_cases(rng, A, count):
    """(s, t, s', t') for random coprime s >= 1 and odd t >= 1, half of them
    with t forced to share the odd part of A's lower-left entry."""
    alpha, beta, gamma, delta = A
    g = odd_part(gamma)
    for i in range(count):
        t = 2 * rng.randint(0, 40) + 1
        if i % 2 and g > 1:
            t *= g
        s = rng.randint(1, 500)
        while math.gcd(s, t) != 1:
            s += 1
        yield s, t, alpha * s + beta * t, gamma * s + delta * t


def test_jacobi_lemma_on_squares_of_identity_mod4():
    # fact (4) by the square: for A = B^2 with B = I mod 4, A = I mod 8 and
    # (s'/t') = (delta/g)(s/t) with (delta/g) = 1, also when gcd(gamma, t) > 1
    rng = random.Random(20150412)
    cases = shared = 0
    for _ in range(300):
        a, b, c, d = random_sl2(rng, 4)
        T = a + d
        A = (a * a + b * c, b * T, c * T, d * T - 1)
        # the mask -1 keeps the product exact
        assert A == kronseq.cf._mat_mul_mod((a, b, c, d), (a, b, c, d), -1)
        assert T % 8 == 2
        assert jacobi(A[3], odd_part(A[2])) == 1
        for s, t, s2, t2 in lemma_cases(rng, A, 8):
            assert t2 % 2 == 1
            assert jacobi(s2, t2) == jacobi(s, t), (A, s, t)
            cases += 1
            shared += math.gcd(A[2], t) > 1
    assert cases == 2400 and shared > 900


def test_jacobi_lemma_needs_the_square():
    # the lemma holds for any A = I mod 4 with factor the Kronecker symbol
    # (delta/gamma), but off the squares it can be -1, and then the Jacobi
    # symbol flips; for A = I mod 8 it is (delta/g), g the odd part of gamma
    rng = random.Random(7)
    flipped = not_mod8 = 0
    for q in (8, 4):
        for _ in range(300):
            A = random_sl2(rng, q)
            sign = kronecker(A[3], A[2])
            if q == 8:
                assert sign == jacobi(A[3], odd_part(A[2])), A
            flipped += sign == -1
            not_mod8 += any(x % 8 != y for x, y in zip(A, (1, 0, 0, 1)))
            for s, t, s2, t2 in lemma_cases(rng, A, 4):
                assert jacobi(s2, t2) == sign * jacobi(s, t), (A, s, t)
    assert flipped > 100 and not_mod8 > 150
    A = (113, 80, 24, 17)  # I mod 8, det 1, (17/24) = (17/3) = -1
    assert A[0] * A[3] - A[1] * A[2] == 1 and kronecker(17, 24) == -1
    assert jacobi(A[0] + A[1], A[2] + A[3]) == -jacobi(1, 1)


@pytest.mark.parametrize("block, L4, period, certified", [
    ((1, 2, 2), 18, 18, False),  # aperiodic: reported at L4, not certified
    ((2,), 4, 8, True),  # periodic: certified base 2*L4, derived from L4
    ((1, 2, 3), 6, 6, True),  # periodic: L4 certified
], ids=["aperiodic-122", "periodic-2", "periodic-123"])
def test_analyze_makes_one_walk_and_no_symbol_pass(
        monkeypatch, block, L4, period, certified):
    # one exact walk, which stops at L4 and yields the decomposition and
    # the critical indices, and carries the Kronecker symbol
    # (t_{L4-2}/t_{L4-1}) that certifies L4 (fact (5)); it steps the
    # recurrence itself, so no pair is drawn from iter_convergent_pairs; no
    # symbol pass, none of the public steps, no matrix power and no exact
    # matrix
    calls = {"walk": [], "pairs": 0, "kronecker": [], "other": []}
    mod = kronseq.analysis

    def counted(key, fn, arg=None):
        def wrapper(*a, **k):
            calls[key].append(a[arg] if arg is not None else fn.__name__)
            return fn(*a, **k)
        return wrapper

    def counted_walk(*a, **k):
        out = walk(*a, **k)
        calls["walk"].append(out[0])
        return out

    def counted_pairs(cf):
        for pair in iter_pairs(cf):
            calls["pairs"] += 1
            yield pair

    assert not hasattr(mod, "matrix_at") and not hasattr(mod, "jacobi_sequence")
    assert not hasattr(mod, "kronecker_sequence")
    assert not hasattr(mod, "iter_convergent_pairs")
    walk, iter_pairs = mod._walk, kronseq.cf.iter_convergent_pairs
    monkeypatch.setattr(mod, "_walk", counted_walk)
    for owner in (kronseq, kronseq.cf):
        monkeypatch.setattr(owner, "iter_convergent_pairs", counted_pairs)
    monkeypatch.setattr(kronseq.symbols, "_lane_flags",
                        counted("kronecker", kronseq.symbols._lane_flags, 1))
    for owner, name in [(mod, "mod4_period_length"), (mod, "decompose"),
                        (mod, "critical_scan"), (mod, "matrix_at_mod2"),
                        (kronseq.cf, "matrix_at"), (kronseq.symbols, "jacobi_sequence")]:
        monkeypatch.setattr(owner, name, counted("other", getattr(owner, name)))
    a = analyze(block_cf(block))
    assert calls == {"walk": [L4], "pairs": 0, "kronecker": [], "other": []}
    assert (a.period, a.certified) == (period, certified)
    monkeypatch.undo()
    m, U, e = decompose(block_cf(block), period)
    assert (a.m, a.U, a.e) == (m, U, e)


# ---------------------------------------------------------------------------
# decompose

def test_decompose_123():
    m, U, e = decompose(block_cf((1, 2, 3)), 6)
    assert (m, e) == (2, 0)
    assert U == ((30, 9), (21, 6))


def test_decompose_125():
    m, U, e = decompose(block_cf((1, 2, 5)), 12)
    assert (m, e) == (2, 0)
    assert U[1][0] % 2 == 1


def test_decompose_122_both_bases():
    assert decompose(block_cf((1, 2, 2)), 18)[::2] == (2, 1)
    assert decompose(block_cf((1, 2, 2)), 36)[::2] == (3, 1)


def test_decompose_has_odd_entry_and_matches_matrix():
    for block in CORPUS:
        cf = block_cf(block)
        L = mod4_period_length(cf)
        m, U, e = decompose(cf, L)
        assert m >= 2
        assert any(x % 2 == 1 for row in U for x in row)
        M = matrix_at(cf, L - 1)
        assert U[1][0] == (M.t >> m) % (1 << 128)
        assert e == v2(M.t) - m  # lower-left of the difference is t_{L-1}


def test_decompose_rejects_wrong_period():
    with pytest.raises(ValueError):
        decompose(block_cf((1, 2, 5)), 6)


@pytest.mark.parametrize("period", [0, -3, 5])
@pytest.mark.parametrize("call", [
    lambda cf, period: decompose(cf, period),
    lambda cf, period: critical_scan(cf, period, 2, 0),
    lambda cf, period: threshold_valuation(cf, period, 1),
    lambda cf, period: cascade(cf, period, 7, depth=2),
], ids=["decompose", "critical_scan", "threshold_valuation", "cascade"])
def test_period_must_be_a_positive_multiple_of_the_block_length(call, period):
    with pytest.raises(ValueError, match="not a multiple of the block length"):
        call(block_cf((1, 2, 5)), period)


# ---------------------------------------------------------------------------
# critical_scan

def test_critical_scan_examples():
    assert critical_scan(block_cf((1, 2, 3)), 6, 2, 0) == ((), (1,))
    assert critical_scan(block_cf((1, 2, 5)), 12, 2, 0) == ((7,), (1,))
    assert critical_scan(block_cf((1, 2, 2)), 36, 3, 1) == ((6,), (24,))
    assert critical_scan(block_cf((1, 2, 2)), 18, 2, 1) == ((6,), ())


def test_critical_indices_satisfy_definition():
    for block in CORPUS:
        cf = block_cf(block)
        a = block_analysis(block)
        pairs = convergents(cf, a.period)
        for k in a.critical_indices:
            assert pairs[k].s % 4 == 3
            assert pairs[k].t % (1 << (a.m + a.e)) == 0
        for k in a.subcritical_indices:
            assert pairs[k].s % 4 == 3
            assert v2(pairs[k].t) == a.m + a.e - 1


# ---------------------------------------------------------------------------
# classify

def test_classify_worked_examples():
    assert block_classification((1, 2, 3)) == Periodic2L(period=12, witness=1)
    c = block_classification((1, 2, 5))
    assert isinstance(c, Aperiodic)
    assert c.first_critical == 7
    assert c.cascade[:4] == ((7, 0), (19, 1), (43, 3), (139, 6))
    c = block_classification((1, 2, 2))
    assert isinstance(c, Aperiodic)
    assert c.first_critical == 6


def test_classify_periodic_uses_certified_base():
    assert block_classification((2,)) == PeriodicL(period=8)
    assert block_classification((1,)) == PeriodicL(period=12)


def test_analysis_certified_flags():
    assert block_analysis((1, 2, 3)).certified
    assert not block_analysis((1, 2, 5)).certified  # aperiodic, mod-4 base
    assert block_analysis((2,)).certified
    assert block_analysis((2,)).period == 8


def test_long_block_with_f_minus_one_is_certified_at_twice_L4():
    # a seeded 198-term block: L4 = 1188, f = -1 and no critical index
    # among its 198 candidates, so L4 is no Jacobi period and the analysis
    # is reported at 2*L4, however many candidates the walk has
    rng = random.Random(0)
    l = rng.randint(100, 300)
    cf = normalize_period(tuple(rng.randint(1, 9) for _ in range(l)))
    assert l == 198 and mod4_period_length(cf) == 1188
    a = analyze(cf)
    assert (a.period, a.certified, a.critical_indices) == (2376, True, ())
    seq = jacobi_sequence(cf, 2 * 1188)
    assert any(seq[k] != seq[k + 1188] for k in range(1188))


def test_classification_dichotomy():
    for block in CORPUS:
        a = block_analysis(block)
        c = block_classification(block)
        assert isinstance(c, Aperiodic) == bool(a.critical_indices), block
        if isinstance(c, Periodic2L):
            assert a.subcritical_indices and c.period == 2 * a.period
        if isinstance(c, PeriodicL):
            assert not a.subcritical_indices and c.period == a.period


def test_classify_escalates_precision(monkeypatch):
    # depth 2040 of (7,4,2) predicts 2 + 1 + 2*2040 + 3 = 4086 bits, but
    # r_2040 = 4157 needs 4163: the 4096-bit rung runs out, and the ladder,
    # which has no top, doubles to 8192
    precisions = record_cascade_precisions(monkeypatch)
    cf = block_cf((7, 4, 2))
    got = classify(cf, depth=2040)
    assert precisions == [4096, 8192]
    assert got.cascade == cascade(cf, 18, 6, 2040, precision=8192)
    assert got.cascade[-1][1] == 4157


# ---------------------------------------------------------------------------
# threshold_valuation

def test_threshold_valuation_tracks_doublings():
    for block, L in [((1, 2, 3), 6), ((1, 2, 5), 12), ((1, 2, 2), 36)]:
        cf = block_cf(block)
        m, _, e = decompose(cf, L)
        for r in range(9):
            assert threshold_valuation(cf, L, r) == m + e + r, (block, r)


def test_threshold_valuation_examples():
    cf = block_cf((1, 2, 5))
    assert threshold_valuation(cf, 12, 0) == 2
    assert threshold_valuation(cf, 12, 1) == 3


@pytest.mark.parametrize("block, period", [((1, 2, 3), 3), ((1, 2, 3), 9), ((2,), 1)])
def test_threshold_valuation_odd_period(block, period):
    # det D(period) = -1, which the binary power of the block product never
    # needs
    cf = block_cf(block)
    for r in range(5):
        exact = matrix_at(cf, (period << r) - 1).t
        assert threshold_valuation(cf, period, r) == v2(exact), (block, r)


def test_threshold_valuation_precision_exhaustion():
    # the entry is t_{2^8 * 12 - 1}
    with pytest.raises(PrecisionExhausted, match=r"v2\(t_3071\) not resolvable at precision 8"):
        threshold_valuation(block_cf((1, 2, 5)), 12, 8, precision=8)


# ---------------------------------------------------------------------------
# cascade

def test_cascade_worked_example_values():
    got = cascade(block_cf((1, 2, 5)), 12, 7, depth=4)
    assert got == ((7, 0), (19, 1), (43, 3), (139, 6))


def test_cascade_depth_8_frozen():
    got = cascade(block_cf((1, 2, 5)), 12, 7, depth=8)
    assert got == ((7, 0), (19, 1), (43, 3), (139, 6),
                   (907, 8), (3979, 16), (790411, 17), (2363275, 19))


def test_cascade_122():
    assert cascade(block_cf((1, 2, 2)), 36, 6, depth=1) == ((6, 2),)
    assert cascade(block_cf((1, 2, 2)), 18, 6, depth=3) == ((6, 3), (150, 5), (726, 6))


def test_cascade_first_step_is_valuation_gap():
    for block in [(1, 2, 5), (1, 2, 2)]:
        cf = block_cf(block)
        a = block_analysis(block)
        if not a.critical_indices:
            continue
        k = a.critical_indices[0]
        t = convergents(cf, k + 1)[k].t
        got = cascade(cf, a.period, k, depth=1)
        assert got == ((k, v2(t) - a.m - a.e),)


def test_cascade_strictly_increasing():
    for block in CORPUS:
        c = block_classification(block)
        if not isinstance(c, Aperiodic):
            continue
        ks = [k for k, _ in c.cascade]
        rs = [r for _, r in c.cascade]
        assert ks == sorted(set(ks)) and rs == sorted(set(rs)), block


def test_cascade_valuations_match_exact_convergents():
    cf = block_cf((1, 2, 5))
    m, _, e = decompose(cf, 12)
    pairs = convergents(cf, 140)
    for k, r in cascade(cf, 12, 7, depth=4):
        assert v2(pairs[k].t) == m + e + r


def test_cascade_rejects_non_critical_start():
    with pytest.raises((AssertionError, ValueError)):
        cascade(block_cf((1, 2, 5)), 12, 1, depth=2)  # k=1 is subcritical


def test_cascade_precision_exhaustion_reported():
    with pytest.raises(PrecisionExhausted):
        cascade(block_cf((1, 2, 5)), 12, 7, depth=8, precision=16)


def test_cascade_rejects_base_not_identity_mod4():
    # D(6) of (1,2,5) is not I mod 4; its mod-4 base is 12
    with pytest.raises(ValueError, match="identity mod 4"):
        cascade(block_cf((1, 2, 5)), 6, 7)


@pytest.mark.parametrize("precision", [2, 4])
def test_cascade_threshold_precision_exhaustion(precision):
    # v2(t_11) = m + e = 2 for (1,2,5) cannot be told apart from a larger
    # valuation below 5 bits, not even for the subcritical start k = 1
    with pytest.raises(PrecisionExhausted, match="t_11"):
        cascade(block_cf((1, 2, 5)), 12, 1, depth=1, precision=precision)


def test_cascade_escalation_decomposes_once(monkeypatch):
    # the cascade reads m + e off D(L) mod 2^B, and analyze takes (m, U, e)
    # from its own walk, so nothing calls decompose
    decomposed = []
    original_decompose = kronseq.analysis.decompose

    def counted_decompose(*a, **k):
        decomposed.append(a[1])
        return original_decompose(*a, **k)

    monkeypatch.setattr(kronseq.analysis, "decompose", counted_decompose)
    precisions = record_cascade_precisions(monkeypatch)
    got = classify(block_cf((1, 2, 5)), depth=200)
    assert len(got.cascade) == 200
    assert precisions == [512]  # predicted need 2 + 2*200 + 3 = 405 bits
    assert decomposed == []


def record_cascade_precisions(monkeypatch):
    """The precision of every cascade attempt: classify seeds the walk
    from its analysis and the public cascade from two binary powers, and
    both run it as _cascade(cf, period, start, depth, precision, D, x)."""
    precisions = []
    original_cascade = kronseq.analysis._cascade

    def counted_cascade(*a):
        precisions.append(a[4])
        return original_cascade(*a)

    monkeypatch.setattr(kronseq.analysis, "_cascade", counted_cascade)
    return precisions


def test_cascade_start_below_need_falls_back_to_doubling(monkeypatch):
    # the predicted need 2 + 2*60 + 3 = 125 bits gives 128, but r_60 = 131
    # needs 136, so the first attempt runs out and the ladder doubles
    precisions = record_cascade_precisions(monkeypatch)
    cf = block_cf((1, 2, 5))
    got = classify(cf, depth=60)
    assert precisions == [128, 256]
    assert got.cascade == cascade(cf, 12, 7, 60, precision=4096)
    assert got.cascade[-1][1] == 131


def doubling_ladder_classify(cf, depth, analysis):
    """The cascade as classify ran it before it predicted its start: every
    rung of DEFAULT_PRECISION * 2^i from the first, with no top."""
    first = analysis.critical_indices[0]
    B = kronseq.analysis.DEFAULT_PRECISION
    while True:
        try:
            return kronseq.analysis.cascade(cf, analysis.period, first, depth, B)
        except PrecisionExhausted:
            B *= 2


@pytest.mark.parametrize("top", [512, 4096])
def test_predicted_start_matches_doubling_ladder(monkeypatch, top):
    # seeded random aperiodic blocks at depths whose predicted need is at
    # most ``top`` bits: the same cascade as the doubling ladder from 128
    # bits.  The attempts climb that ladder from the first rung that covers
    # the predicted need, and stop where it stopped, or at once if the
    # prediction was higher
    precisions = record_cascade_precisions(monkeypatch)
    rng = random.Random(20151009)
    blocks = 0
    while blocks < 16:
        cf = normalize_period([rng.randint(1, 30) for _ in range(rng.randint(1, 8))])
        a = analyze(cf)
        if not a.critical_indices:
            continue
        blocks += 1
        for _ in range(4):
            depth = rng.randint(1, max(1, (top - a.m - a.e - 3) // 2))
            expected = doubling_ladder_classify(cf, depth, a)
            old_attempts = precisions[:]
            precisions.clear()
            assert classify(cf, depth, a).cascade == expected, (cf, depth)
            start = 128
            while start < a.m + a.e + 2 * depth + 3:
                start *= 2
            assert precisions == ([B for B in old_attempts if B >= start] or [start]), \
                (cf, depth)
            precisions.clear()


def test_predicted_start_past_the_cap_makes_one_attempt(monkeypatch):
    # depth 2500 of (1,2,5) predicts 2 + 2*2500 + 3 = 5005 bits, past 4,096:
    # one attempt, at 8192 bits, which the public cascade at that precision
    # repeats, and which 4,096 bits cannot
    cf = block_cf((1, 2, 5))
    precisions = record_cascade_precisions(monkeypatch)
    got = classify(cf, 2500)
    assert precisions == [8192]
    assert len(got.cascade) == 2500
    assert got.cascade == cascade(cf, 12, 7, 2500, precision=8192)
    with pytest.raises(PrecisionExhausted):
        cascade(cf, 12, 7, 2500, precision=4096)


def small_aperiodic_blocks():
    """Every aperiodic minimal block with l <= 4 and quotients <= 5."""
    for block in (b for l in range(1, 5) for b in itertools.product(range(1, 6), repeat=l)):
        cf = normalize_period(block)
        if cf.quotients == block and analyze(cf).critical_indices:
            yield cf


def test_walk_seeded_cascade_matches_the_public_cascade():
    # the exact D(L4) and start pair of the analysis walk, reduced at the
    # rung, against the two binary powers of cascade: the same steps, or
    # the same error with the same message
    blocks = errors = 0
    for cf in small_aperiodic_blocks():
        a = analyze(cf, 128)
        first = a.critical_indices[0]
        c = convergents(cf, first + 1)[-1]
        assert a.walk.pairs[first] == (c.s, c.t)
        blocks += 1
        for depth, B in itertools.product((8, 200), (128, 512)):
            expected = outcome(cascade, cf, a.period, first, depth, B)
            got = outcome(kronseq.analysis._cascade, cf, a.period, first, depth, B,
                          a.walk.D, a.walk.pairs[first])
            assert got == expected, (cf, depth, B)
            errors += isinstance(expected[0], type)
    assert blocks == 167 and errors > 0


def test_walk_seeded_classify_escalates_and_exhausts_like_the_public_cascade(monkeypatch):
    # depth 60 of (1,2,5) escalates from 128 to 256 bits, as the doubling
    # ladder of the public cascade does; the walk-seeded attempt at 128 bits
    # raises PrecisionExhausted with the public cascade's message
    cf = block_cf((1, 2, 5))
    a = analyze(cf, 128)
    expected = outcome(cascade, cf, 12, 7, 60, 128)
    assert expected[0] is PrecisionExhausted
    assert outcome(kronseq.analysis._cascade, cf, 12, 7, 60, 128, a.walk.D,
                   a.walk.pairs[7]) == expected
    rungs = record_cascade_precisions(monkeypatch)
    got = classify(cf, 60, a)
    assert rungs == [128, 256]
    assert got.cascade == doubling_ladder_classify(cf, 60, a)


def test_period_analysis_ignores_its_walk():
    # equality, hashing and repr see the 2-adic data, not the walk kept
    # beside it, so an analysis read back from a report equals the original
    for block in ((1, 2, 5), (1, 2, 3), (2,)):
        a = analyze(block_cf(block))
        bare = PeriodAnalysis(a.period, a.m, a.U, a.e, a.critical_indices,
                              a.subcritical_indices, a.precision, a.certified)
        assert a.walk is not None
        assert a == bare and hash(a) == hash(bare) and repr(a) == repr(bare)
        assert "walk" not in repr(a)


def test_cascade_rejects_period_off_the_block_length():
    with pytest.raises(ValueError, match="multiple"):
        cascade(block_cf((1, 2, 5)), 8, 7, depth=2)


def reference_cascade(cf, period, start, depth, precision):
    """The cascade by a fresh binary power matrix_at_mod2(cf, k_j) at every
    step.  Returns the steps made and the type of the error that stopped
    the walk before ``depth`` steps, or None."""
    m, _, e = decompose(cf, period, max(precision, 8))
    out, k = [], start
    for _ in range(depth):
        t = matrix_at_mod2(cf, k, precision).t
        if t == 0 or v2(t) >= precision - 2:
            return tuple(out), PrecisionExhausted
        r = v2(t) - m - e
        if not out and r < 0:
            return tuple(out), ValueError
        if out and r <= out[-1][1]:
            return tuple(out), AssertionError
        out.append((k, r))
        k += (1 << r) * period
    return tuple(out), None


def test_cascade_matches_per_index_reference():
    # every aperiodic minimal block with l <= 4 and quotients <= 4, at
    # depths 1-40: the same steps, or the same error at the same depth
    blocks = [b for l in range(1, 5) for b in itertools.product(range(1, 5), repeat=l)]
    aperiodic = 0
    for block in blocks:
        cf = normalize_period(block)
        a = analyze(cf)
        if cf.quotients != block or not a.critical_indices:
            continue
        aperiodic += 1
        start = a.critical_indices[0]
        for precision in (16, 32, 64, 128):
            steps, error = reference_cascade(cf, a.period, start, 40, precision)
            for depth in range(1, 41):
                where = (block, precision, depth)
                if depth <= len(steps):
                    got = cascade(cf, a.period, start, depth, precision)
                    assert got == steps[:depth], where
                else:
                    with pytest.raises(error):
                        cascade(cf, a.period, start, depth, precision)
    assert aperiodic == 55


def test_cascade_is_the_binary_expansion_of_a_2adic_root():
    # f(n) = t_{first + n*L} has v2(f(n)) = m + e + v2(n - n*) for one
    # 2-adic integer n*, so n* mod 2^R is the one n < 2^R with
    # v2(f(n)) >= m + e + R, found here by brute force, independently of
    # the cascade's own walk: the cascade's r_j below R are the set bits
    # of n*, and k_j = first + L * (n* mod 2^r_j)
    R, B = 11, 64
    mask = (1 << B) - 1
    rng = random.Random(2026)
    checked = 0
    while checked < 60:
        block = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        cf = normalize_period(block)
        a = analyze(cf)
        if cf.reduced or not a.critical_indices:
            continue
        L, first, base = a.period, a.critical_indices[0], a.m + a.e
        assert base + R <= B, block
        M, D = matrix_at_mod2(cf, first, B), matrix_at_mod2(cf, L - 1, B)
        s, t = M.s, M.t
        roots = []
        for n in range(1 << R):
            if t == 0 or v2(t) >= base + R:
                roots.append(n)
            s, t = (D.s * s + D.s_prev * t) & mask, (D.t * s + D.t_prev * t) & mask
        assert len(roots) == 1, block
        n_star = roots[0]
        steps = [(k, r) for k, r in classify(cf, depth=30, analysis=a).cascade if r < R]
        assert [r for _, r in steps] == [i for i in range(R) if n_star >> i & 1], block
        assert all(k == first + L * (n_star % (1 << r)) for k, r in steps), block
        checked += 1


def line_runs(fn, markers, call):
    """call(), and for each marker the number of times the one line of
    fn's source holding it ran, counted with sys.settrace."""
    lines, first = inspect.getsourcelines(fn)
    at = []
    for marker in markers:
        found = [first + i for i, line in enumerate(lines) if marker in line]
        assert len(found) == 1, (marker, found)
        at += found
    runs, code, saved = dict.fromkeys(at, 0), fn.__code__, sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno in runs:
            runs[frame.f_lineno] += 1
        return trace

    sys.settrace(trace)
    try:
        out = call()
    finally:
        sys.settrace(saved)
    return out, [runs[n] for n in at]


def test_cascade_cost_is_independent_of_depth(monkeypatch):
    # one attempt makes the two logarithmic powers, at most r0 squarings and
    # at most r0 column steps; the 2-adic root gives every later step, at any
    # depth.  The column walk it replaced made r_max squarings and depth - 1
    # column steps (398 and 199 here at depth 200).  Products, squarings and
    # column steps are all counted: the calls of the cf helpers, and the
    # runs of the two lines of _cascade's walk that square and step in place
    products = []

    def counted(original):
        def wrapper(*args, **kwargs):
            products.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    for name in ("_mat_mul_mod", "_square_mod", "_column_step"):
        wrapper = counted(getattr(kronseq.cf, name))
        for module in (kronseq.cf, kronseq.analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    cf, period, r0 = block_cf((1, 2, 5)), 12, kronseq.analysis._SWITCH
    counts = []
    for depth, precision in ((200, 512), (1000, 2048)):
        products.clear()
        steps, (walk_squarings, walk_steps) = line_runs(
            kronseq.analysis._cascade, ("T * a - 1", "a * s + b * t"),
            lambda: cascade(cf, period, 7, depth, precision))
        assert len(steps) == depth
        squarings = walk_squarings + products.count("_square_mod")
        column_steps = walk_steps + products.count("_column_step")
        assert squarings <= r0
        assert column_steps <= r0
        assert len(products) + walk_squarings + walk_steps <= \
            2 * r0 + 4 * (len(cf) + period.bit_length())
        counts.append(squarings + column_steps)
    assert counts[0] == counts[1]


def column_walk(cf, period, start, precision):
    """The cascade as a bit-by-bit column walk, the way :func:`cascade` found
    every step before it read them off the 2-adic root: the steps from
    ``start`` on, each computed only when asked for, so that the first
    ``depth`` of them, or the error that stops the walk before that, are
    what the walk gives at that depth."""
    mask = (1 << precision) - 1
    M = matrix_at_mod2(cf, start, precision)
    s, t = M.s, M.t
    P = matrix_at_mod2(cf, period - 1, precision)
    P = (P.s, P.s_prev, P.t, P.t_prev)
    if not kronseq.analysis._is_identity_mod4(P):
        raise ValueError(f"D({period}) is not the identity mod 4 for {cf}")
    base = kronseq.analysis._resolved_v2(P[2], precision, period - 1)  # m + e
    p_r, k, prev_r = 0, start, -1
    while True:
        r = kronseq.analysis._resolved_v2(t, precision, k) - base
        if prev_r < 0 and r < 0:
            raise ValueError(f"start index {start} is not critical for period {period}")
        if r <= prev_r:
            raise AssertionError(f"cascade not strictly increasing at k={k}")
        yield k, r
        prev_r = r
        while p_r < r:
            P = kronseq.cf._square_mod(P, mask)
            p_r += 1
        s, t = kronseq.cf._column_step(P, s, t, mask)
        k += (1 << r) * period


def assert_cascade_matches_column_walk(cf, period, start, precision, depths):
    """cascade against the column walk at each depth and at the depths
    around where the walk stops: the same steps, or the same error type
    with the same message.  Returns the number of calls compared."""
    steps, error = [], None
    try:
        for step in itertools.islice(column_walk(cf, period, start, precision), max(depths)):
            steps.append(step)
    except (PrecisionExhausted, ValueError, AssertionError) as exc:
        error = type(exc), str(exc)
    n = len(steps)
    depths = sorted({d for d in (*depths, n, n + 1) if 1 <= d <= max(depths)})
    for depth in depths:
        expected = tuple(steps[:depth]) if depth <= n else error
        assert outcome(cascade, cf, period, start, depth, precision) == expected, \
            (cf, period, start, precision, depth)
    return len(depths)


def test_cascade_matches_column_walk_exhaustively():
    # every critical start of every aperiodic minimal block with l <= 4 and
    # quotients <= 4, at 8-256 bits, where the walk runs out of precision
    # within 400 steps
    depths = (1, 2, 3, 5, 8, 13, 21, 34, 400)
    aperiodic = calls = 0
    for block in (b for l in range(1, 5) for b in itertools.product(range(1, 5), repeat=l)):
        cf = normalize_period(block)
        a = analyze(cf)
        if cf.quotients != block or not a.critical_indices:
            continue
        aperiodic += 1
        for start in a.critical_indices:
            for precision in (8, 12, 16, 24, 32, 48, 64, 128, 256):
                calls += assert_cascade_matches_column_walk(cf, a.period, start, precision, depths)
    assert aperiodic == 55 and calls > 5000


def test_cascade_matches_column_walk_on_random_blocks():
    # seeded random aperiodic blocks, every critical start, 300-4096 bits
    # and depths up to 400
    rng = random.Random(20261019)
    blocks = 0
    while blocks < 12:
        cf = normalize_period([rng.randint(1, 30) for _ in range(rng.randint(1, 8))])
        a = analyze(cf)
        if not a.critical_indices:
            continue
        blocks += 1
        precision = (300, 512, 1000, 1024, 2048, 4096)[blocks % 6]
        depths = sorted(rng.randint(1, 400) for _ in range(4))
        for start in a.critical_indices:
            assert_cascade_matches_column_walk(cf, a.period, start, precision, depths)


def test_cascade_matches_column_walk_on_the_bench_blocks(monkeypatch):
    # the 96 cascade-deep blocks of bench seeds 0-7, every critical start,
    # at their bench depth and the rung classify starts it at
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    corpus = importlib.import_module("corpus")
    blocks = 0
    for seed in range(8):
        for call in corpus.make_calls("cascade-deep", seed):
            cf = normalize_period(call.blocks[0])
            depth = int(call.argv[call.argv.index("--depth") + 1])
            a = analyze(cf)
            precision = 128
            while precision < a.m + a.e + 2 * depth + 3:
                precision *= 2
            for start in a.critical_indices:
                assert_cascade_matches_column_walk(cf, a.period, start, precision, (1, depth))
            blocks += 1
    assert blocks == 96


def full_matrix_cascade(cf, period, start, depth, precision):
    """The cascade walking whole 2x2 matrices: P * M_{k_j} = M_{k_{j+1}} by
    an eight-multiplication product and P squared by another."""
    mask = (1 << precision) - 1
    M = matrix_at_mod2(cf, start, precision)
    M = (M.s, M.s_prev, M.t, M.t_prev)
    P = matrix_at_mod2(cf, period - 1, precision)
    P = (P.s, P.s_prev, P.t, P.t_prev)
    base = kronseq.analysis._resolved_v2(P[2], precision, period - 1)
    p_r, out, k, prev_r = 0, [], start, -1
    for j in range(depth):
        r = kronseq.analysis._resolved_v2(M[2], precision, k) - base
        if not out and r < 0:
            raise ValueError(f"start index {start} is not critical for period {period}")
        if r <= prev_r:
            raise AssertionError(f"cascade not strictly increasing at k={k}")
        out.append((k, r))
        prev_r = r
        if j == depth - 1:
            break
        while p_r < r:
            P = kronseq.cf._mat_mul_mod(P, P, mask)
            p_r += 1
        M = kronseq.cf._mat_mul_mod(P, M, mask)
        k += (1 << r) * period
    return tuple(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionExhausted, ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def test_cascade_column_walk_matches_full_matrix_walk():
    # seeded random aperiodic blocks at 128-1024 bits: the same steps, or
    # the same error with the same message at the same depth
    rng = random.Random(20151008)
    blocks = errors = 0
    while blocks < 40:
        cf = normalize_period([rng.randint(1, 30) for _ in range(rng.randint(1, 8))])
        a = analyze(cf)
        if not a.critical_indices:
            continue
        blocks += 1
        start = a.critical_indices[0]
        for precision in (128, 256, 512, 1024):
            depth = rng.randint(1, 250)
            expected = outcome(full_matrix_cascade, cf, a.period, start, depth, precision)
            assert outcome(cascade, cf, a.period, start, depth, precision) == expected, \
                (cf, precision, depth)
            errors += isinstance(expected[0], type)
    assert errors > 10


def test_switch_point_changes_no_step_or_error(monkeypatch):
    # the walk seeded from analyze, with r0 = _SWITCH at 0, 4, 16 and 48,
    # against r0 past the last step, where every step is walked: the same
    # steps, or the same PrecisionExhausted text, which names the t_k after
    # the last step (an off-by-one in the k read off the root shows there).
    # Depths 8-1,500, each at the rung classify starts it at, at half that
    # rung and a few bits short of the need m + e + 2*depth, so that many
    # cascades run out of root bits at their rung
    rng = random.Random(28)
    blocks = [(1, 2, 5), (1, 2, 2), (2, 5, 9, 9, 5, 3, 2, 3)]
    while len(blocks) < 7:
        block = tuple(rng.randint(1, 9) for _ in range(rng.randint(3, 6)))
        cf = normalize_period(block)
        if not cf.reduced and analyze(cf).critical_indices:
            blocks.append(block)
    roots = []  # the calls of _root in one attempt
    root = kronseq.analysis._root

    def counted_root(*args):
        roots.append(args)
        return root(*args)

    monkeypatch.setattr(kronseq.analysis, "_root", counted_root)
    out_of_root_bits = 0
    for block in blocks:
        cf = block_cf(block)
        a = analyze(cf)
        first = a.critical_indices[0]
        seeds = a.walk.D, a.walk.pairs[first]
        for depth in (8, 9, 17, 40, 200, 1500):
            rung = 128
            while rung < a.m + a.e + 2 * depth + 3:
                rung *= 2
            for precision in (rung, rung // 2, a.m + a.e + 2 * depth - 6):
                args = cf, a.period, first, depth, precision, *seeds
                monkeypatch.setattr(kronseq.analysis, "_SWITCH", 10**9)
                roots.clear()
                expected = outcome(kronseq.analysis._cascade, *args)
                assert not roots
                for r0 in (0, 4, 16, 48):
                    monkeypatch.setattr(kronseq.analysis, "_SWITCH", r0)
                    roots.clear()
                    assert outcome(kronseq.analysis._cascade, *args) == expected, \
                        (block, depth, precision, r0)
                    out_of_root_bits += bool(roots) and expected[0] is PrecisionExhausted
    assert out_of_root_bits > 100


def test_a_far_next_step_goes_to_the_root(monkeypatch):
    # t_2 of (2, 1, 2^N - 1, 1) is 2^N, so r_1 = N - 2 at k = 2 and the
    # walk's next step is N - 2 squarings away: the depth-8 cascade hands
    # over to the root there, though fewer than _ROOT_STEPS steps remain,
    # and gives the column walk's steps, or its error, at every depth
    roots = []
    root = kronseq.analysis._root
    monkeypatch.setattr(kronseq.analysis, "_root", lambda *a: roots.append(a) or root(*a))
    for N in (19, 20, 40, 150, 300):
        cf = block_cf((2, 1, 2**N - 1, 1))
        a = analyze(cf)
        assert a.critical_indices[0] == 2 and a.m + a.e == 2
        for precision in (128, 512, 1024):
            assert_cascade_matches_column_walk(cf, a.period, 2, precision, (1, 2, 8, 30))
            roots.clear()
            outcome(cascade, cf, a.period, 2, 8, precision)
            assert len(roots) == (N < precision - 2), (N, precision)  # when r_1 resolves
        assert classify(cf, analysis=a).cascade[0] == (2, N - 2)


# ---------------------------------------------------------------------------
# structural checks along doubled periods

def test_doubling_keeps_e_and_raises_m():
    for block in CORPUS:
        cf = block_cf(block)
        L = mod4_period_length(cf)
        m1, _, e1 = decompose(cf, L)
        m2, _, e2 = decompose(cf, 2 * L)
        assert m2 == m1 + 1 and e2 == e1, block


def test_sign_flips_along_doubled_periods_exact():
    # first cascade level of (1,2,5): symbols at k + d*2L flip as (-1)^d
    from kronseq import kronecker
    cf = block_cf((1, 2, 5))
    pairs = convergents(cf, 7 + 2 * 24 + 1)
    base = kronecker(pairs[7].s, pairs[7].t)
    assert kronecker(pairs[7 + 24].s, pairs[7 + 24].t) == -base
    assert kronecker(pairs[7 + 48].s, pairs[7 + 48].t) == base


def test_congruence_along_one_period_shift():
    # t_{k+L} = 2^(m+f) t'' with t'' = t' mod 4 when f <= e-2, and
    # t'' = t' + 2 mod 4 when f = e-1
    from conftest import (block_certified_decomposition,
                          block_certified_length, convergent_pairs,
                          pinned_shift_cases)
    checked = 0
    for block in CORPUS:
        L = block_certified_length(block)
        m, e = block_certified_decomposition(block)
        pairs = convergent_pairs(block, 2 * L)
        for k, f in pinned_shift_cases(block):
            t_now, t_next = pairs[k][1], pairs[k + L][1]
            assert v2(t_next) == m + f == v2(t_now), (block, k)
            tp = t_now >> (m + f)
            tpp = t_next >> (m + f)
            if f <= e - 2:
                assert tpp % 4 == tp % 4, (block, k)
            else:
                assert tpp % 4 == (tp + 2) % 4, (block, k)
            checked += 1
    assert checked > 10


def test_analyze_periodic_recheck_consistency():
    # when the certified base differs from the mod-4 base, critical indices
    # must be absent at both (their existence is base-independent)
    for block in CORPUS:
        cf = block_cf(block)
        a = block_analysis(block)
        if a.critical_indices:
            continue
        L0 = mod4_period_length(cf)
        m0, _, e0 = decompose(cf, L0)
        assert critical_scan(cf, L0, m0, e0)[0] == ()
        assert a.certified
