import importlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronseq import (Convergent, EmptyInput, NonPositiveQuotient, NotCoprime,
                     PeriodicCF, QuadIrrational, analyze, cascade,
                     cf_of_rational, convergents, decompose, kronecker,
                     matrix_at, matrix_at_mod2, normalize_period,
                     quad_irrational_of)
from kronseq.cf import (_column_step, _largest_reduction, _mat_mul_mod,
                        _minimal_period, _square_mod)

blocks = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(tuple)


def fold_cf(quots):
    """Independent value oracle: fold [a0,...,ak] from the right."""
    x = Fraction(quots[-1])
    for a in reversed(quots[:-1]):
        x = a + 1 / x
    return x


# ---------------------------------------------------------------------------
# normalize_period

def test_normalize_already_minimal():
    cf = normalize_period((1, 2, 3))
    assert cf.quotients == (1, 2, 3)
    assert len(cf) == 3
    assert not cf.reduced


def test_normalize_reduces_repetition():
    cf = normalize_period((1, 2, 1, 2))
    assert cf.quotients == (1, 2)
    assert cf.reduced
    # the rotation test of _minimal_period against the index scan it
    # replaced, on every block with l <= 8 and quotients <= 3
    def scan(q):
        n = len(q)
        return next(p for p in range(1, n + 1)
                    if n % p == 0 and all(q[i] == q[i % p] for i in range(n)))
    for l in range(1, 9):
        for block in itertools.product(range(1, 4), repeat=l):
            p = scan(block)
            assert _minimal_period(block) == p, block
            cf = normalize_period(block)
            assert (cf.quotients, cf.reduced) == (block[:p], p < l), block
            assert cf == PeriodicCF(cf.quotients), block  # passes the check


def test_normalize_singleton():
    cf = normalize_period((2,))
    assert cf.quotients == (2,)
    assert not cf.reduced


def test_normalize_non_divisor_length_stays():
    assert normalize_period((1, 2, 1)).quotients == (1, 2, 1)


def test_normalize_rejects_bad_input():
    with pytest.raises(EmptyInput):
        normalize_period(())
    with pytest.raises(NonPositiveQuotient):
        normalize_period((1, 0, 2))
    # PeriodicCF checks the minimal prefix, so the message names it
    with pytest.raises(NonPositiveQuotient, match=r"got \(1, 0\)$"):
        normalize_period((1, 0, 1, 0))


@pytest.mark.parametrize("block", [(1, 2.9), (1.5,), (2.0,), ("1",), (1, "2")],
                         ids=["float-2.9", "float-1.5", "float-2.0", "str", "str-second"])
def test_non_integral_quotients_are_rejected(block):
    # quotients are read with operator.index: a float is not truncated
    # (int(2.9) would make (1, 2.9) the block [1,2]) and a string is not
    # parsed, in normalize_period and in the constructor alike
    for build in (normalize_period, PeriodicCF):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(block)


def test_int_like_quotients_are_read_as_ints():
    # bool is an int subclass, so operator.index reads True as 1
    for build in (normalize_period, PeriodicCF):
        cf = build((True, 2))
        assert cf.quotients == (1, 2) and type(cf.quotients[0]) is int
        assert str(cf) == "[1,2]"
    assert PeriodicCF([1, 2]).quotients == (1, 2)


def test_constructor_rejects_non_minimal():
    for block in [(3, 3), (1, 1), (1, 2, 1, 2)]:
        with pytest.raises(ValueError, match="not of minimal period"):
            PeriodicCF(block)


# ---------------------------------------------------------------------------
# convergents

def test_convergents_123():
    cf = normalize_period((1, 2, 3))
    got = convergents(cf, 2)
    assert [(c.s, c.t) for c in got] == [(1, 1), (3, 2)]
    sixth = convergents(cf, 6)[5]
    assert (sixth.s, sixth.t) == (121, 84)


def test_convergents_122_seventh():
    c = convergents(normalize_period((1, 2, 2)), 7)[6]
    assert (c.s, c.t) == (91, 64)


def test_convergents_match_fraction_fold():
    for block in [(1,), (2,), (1, 2, 3), (1, 2, 5), (3, 1, 4, 1)]:
        cf = normalize_period(block)
        for c in convergents(cf, 12):
            quots = [cf.quotient(i) for i in range(c.k + 1)]
            assert Fraction(c.s, c.t) == fold_cf(quots)


@settings(deadline=None, max_examples=60)
@given(blocks)
def test_determinant_and_coprimality(block):
    cf = normalize_period(block)
    prev = Convergent(-1, 1, 0)
    for c in convergents(cf, 201):
        assert c.s >= 1 and c.t >= 1
        assert math.gcd(c.s, c.t) == 1
        assert c.s * prev.t - prev.s * c.t == (-1) ** (c.k + 1)
        prev = c


@settings(deadline=None, max_examples=40)
@given(blocks, st.integers(0, 50), st.integers(1, 24))
def test_shift_identity(block, k, d):
    cf = normalize_period(block)
    L = d * len(cf)
    D, M = matrix_at(cf, L - 1), matrix_at(cf, k)
    # M_{k+N} = D(N) M_k, on 4-tuples; the mask -1 keeps the product exact
    product = _mat_mul_mod((D.s, D.s_prev, D.t, D.t_prev),
                           (M.s, M.s_prev, M.t, M.t_prev), -1)
    N = matrix_at(cf, k + L)
    assert (N.s, N.s_prev, N.t, N.t_prev) == product


# ---------------------------------------------------------------------------
# matrix_at

def test_matrix_seed():
    M = matrix_at(normalize_period((1, 2, 3)), 0)
    assert (M.s, M.s_prev, M.t, M.t_prev) == (1, 1, 1, 0)


def test_matrix_123_at_5():
    M = matrix_at(normalize_period((1, 2, 3)), 5)
    assert (M.s, M.s_prev, M.t, M.t_prev) == (121, 36, 84, 25)
    assert all(x % 4 == y for x, y in
               zip((M.s, M.s_prev, M.t, M.t_prev), (1, 0, 0, 1)))


def test_matrix_125_at_11_identity_mod4_with_odd_corner():
    M = matrix_at(normalize_period((1, 2, 5)), 11)
    assert (M.s % 4, M.s_prev % 4, M.t % 4, M.t_prev % 4) == (1, 0, 0, 1)
    assert (M.t // 4) % 2 == 1


def test_matrix_det():
    M = matrix_at(normalize_period((2, 1)), 7)
    assert M.s * M.t_prev - M.s_prev * M.t == (-1) ** 8


# ---------------------------------------------------------------------------
# matrix_at_mod2

def test_mod2_matrix_example():
    M = matrix_at_mod2(normalize_period((1, 2, 3)), 5, 4)
    assert (M.s, M.s_prev, M.t, M.t_prev) == (9, 4, 4, 9)


def test_mod2_matrix_seed():
    for block in [(1, 2, 3), (7,), (2, 5)]:
        M = matrix_at_mod2(normalize_period(block), 0, 2)
        assert (M.s, M.s_prev, M.t, M.t_prev) == (block[0] % 4, 1, 1, 0)


def test_mod2_matrix_agrees_with_exact():
    cf = normalize_period((1, 2, 5))
    for k in (1, 17, 100, 999):
        for B in (2, 16, 64):
            exact = matrix_at(cf, k)
            mask = (1 << B) - 1
            got = matrix_at_mod2(cf, k, B)
            assert (got.s, got.s_prev, got.t, got.t_prev) == (
                exact.s & mask, exact.s_prev & mask, exact.t & mask, exact.t_prev & mask)


def test_mod2_matrix_deep_spot_check():
    cf = normalize_period((1, 2, 5))
    k = 9999
    exact = matrix_at(cf, k)
    got = matrix_at_mod2(cf, k, 64)
    mask = (1 << 64) - 1
    assert got.t == exact.t & mask and got.s == exact.s & mask


def test_mod2_matrix_rejects_tiny_precision():
    with pytest.raises(ValueError):
        matrix_at_mod2(normalize_period((1, 2)), 3, 1)


@given(blocks, st.integers(0, 300), st.sampled_from([8, 64, 512]))
def test_square_and_column_step_match_full_product(block, k, B):
    # det M_k = (-1)^(k+1), and _square_mod is only for determinant 1 (odd
    # k); the mask -1 keeps the product exact
    cf = normalize_period(block)
    M = matrix_at(cf, k)
    P = (M.s, M.s_prev, M.t, M.t_prev)
    for mask in ((1 << B) - 1, -1):
        full = _mat_mul_mod(P, P, mask)
        if k & 1:
            assert _square_mod(P, mask) == full
        assert _column_step(P, P[0], P[2], mask) == (full[0], full[2])


# ---------------------------------------------------------------------------
# cf_of_rational

def test_cf_of_rational_examples():
    assert cf_of_rational(3, 8) == [0, 2, 1, 2]
    assert cf_of_rational(3, 1) == [3]
    assert cf_of_rational(975, 668) == [1, 2, 5, 1, 2, 5, 1, 2]


def test_cf_of_rational_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        cf_of_rational(6, 8)


def test_cf_of_rational_canonical_last_quotient():
    for s, t in [(3, 8), (2, 3), (8, 5), (13, 9), (975, 668)]:
        q = cf_of_rational(s, t)
        if len(q) > 1:
            assert q[-1] >= 2


def test_cf_of_rational_reproduces_quotients():
    # expansion of s_k/t_k gives the first k+1 quotients, except that a
    # trailing quotient 1 merges into its predecessor in canonical form
    for block in [(1, 2, 3), (2, 1), (1, 1, 2), (3, 1, 4, 1)]:
        cf = normalize_period(block)
        for c in convergents(cf, 10):
            expected = [cf.quotient(i) for i in range(c.k + 1)]
            got = cf_of_rational(c.s, c.t)
            if len(expected) > 1 and expected[-1] == 1:
                merged = expected[:-2] + [expected[-2] + 1]
                assert got in (expected, merged)
            else:
                assert got == expected


# ---------------------------------------------------------------------------
# quad_irrational_of

def test_quad_irrational_examples():
    assert quad_irrational_of(normalize_period((1, 2, 3))) == QuadIrrational(4, 37, 7)
    assert quad_irrational_of(normalize_period((1, 2, 5))) == QuadIrrational(7, 82, 11)
    assert quad_irrational_of(normalize_period((1, 2, 2))) == QuadIrrational(5, 85, 10)
    assert quad_irrational_of(normalize_period((1,))) == QuadIrrational(1, 5, 2)
    assert quad_irrational_of(normalize_period((2,))) == QuadIrrational(1, 2, 1)


def test_quad_irrational_invariants_enforced():
    with pytest.raises(ValueError):
        QuadIrrational(4, 36, 7)  # square D
    with pytest.raises(ValueError):
        QuadIrrational(4, 37, 6)  # Q does not divide D - P^2
    with pytest.raises(ValueError):
        QuadIrrational(-9, 37, 7)  # Q does not divide D - P^2 = -44 either


def expand_quadratic(P, D, Q, steps):
    """Test helper: floor/conjugate expansion of (P + sqrt(D))/Q using only
    integer arithmetic; returns (quotients, final_state)."""
    r = math.isqrt(D)
    quots = []
    for _ in range(steps):
        a = (P + r) // Q
        quots.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return quots, (P, Q)


@settings(deadline=None, max_examples=60)
@given(blocks)
def test_quad_irrational_round_trip(block):
    cf = normalize_period(block)
    z = quad_irrational_of(cf)
    quots, state = expand_quadratic(z.P, z.D, z.Q, len(cf))
    assert tuple(quots) == cf.quotients
    assert state == (z.P, z.Q)  # purely periodic: the state returns


def largest_reduction_by_divisors(P, D, Q):
    """Reference: try every divisor g of gcd(P, Q), keeping the largest
    with g^2 | D and Q/g | (D - P^2)/g^2."""
    G = math.gcd(P, Q)
    best = 1
    d = 1
    while d * d <= G:
        if G % d == 0:
            for g in (d, G // d):
                if g > best and D % (g * g) == 0 and (D - P * P) % (Q * g) == 0:
                    best = g
        d += 1
    return best


def test_largest_reduction_matches_divisor_search():
    # unreduced (P, D, Q) of every minimal block with l <= 5, quotients <= 5
    checked = reduced = 0
    for l in range(1, 6):
        for block in itertools.product(range(1, 6), repeat=l):
            cf = normalize_period(block)
            if cf.quotients != block:
                continue
            M = matrix_at(cf, l - 1)
            P, D, Q = M.s - M.t_prev, (M.t_prev - M.s) ** 2 + 4 * M.t * M.s_prev, 2 * M.t
            g = _largest_reduction(P, D, Q)
            assert g == largest_reduction_by_divisors(P, D, Q), block
            checked += 1
            reduced += g > 1
    assert checked >= 2000 and reduced > 0


# ---------------------------------------------------------------------------
# library guards: each call is refused with the error its guard names

CF_125 = PeriodicCF((1, 2, 5))


@pytest.mark.parametrize("call, error, message", [
    (lambda: analyze(CF_125, 7), ValueError, "precision must be >= 8"),
    (lambda: decompose(CF_125, 6, 7), ValueError, "precision must be >= 8"),
    (lambda: cascade(CF_125, 6, 3, depth=0), ValueError, "depth must be >= 1"),
    (lambda: PeriodicCF(()), EmptyInput, "non-empty"),
    (lambda: PeriodicCF((0,)), NonPositiveQuotient, "must be >= 1"),
    (lambda: QuadIrrational(1, 5, 4), ValueError, r"^\(1 \+ sqrt\(5\)\) / 4 is not > 1"),
    (lambda: QuadIrrational(3, 5, 1), ValueError, "conjugate .* is not < 0"),
    (lambda: QuadIrrational(0, 5, 1), ValueError, "conjugate .* is not > -1"),
    (lambda: convergents(CF_125, 0), ValueError, "count must be >= 1"),
    (lambda: matrix_at(CF_125, -1), ValueError, "k must be >= 0"),
    (lambda: matrix_at_mod2(CF_125, -1, 8), ValueError, "k must be >= 0"),
    (lambda: cf_of_rational(0, 1), ValueError, "must be positive"),
    (lambda: kronecker(1, 0), ValueError, "t must be >= 1"),
], ids=["analyze-precision", "decompose-precision", "cascade-depth",
        "empty-block", "zero-quotient", "quad-value", "quad-conjugate-sign",
        "quad-conjugate-bound", "convergents-count", "matrix_at-k",
        "matrix_at_mod2-k", "cf_of_rational-zero", "kronecker-t"])
def test_library_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# package exports

@pytest.mark.parametrize("module", ["kronseq", "kronseq.cf", "kronseq.symbols",
                                    "kronseq.analysis", "kronseq.oracle"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
