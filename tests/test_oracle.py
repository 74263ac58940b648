import pytest

from kronseq import (Aperiodic, Periodic2L, PeriodicL, WindowTooShort,
                     cross_check, empirical_period, falsify_period)

from conftest import (CORPUS, block_analysis, block_certified_length,
                      block_cf, block_classification, jacobi_window,
                      kronecker_window, reciprocal_window)


def naive_period(seq):
    n = len(seq)
    for p in range(1, n // 2 + 1):
        if all(seq[k] == seq[k + p] for k in range(n - p)):
            return p
    return None


# ---------------------------------------------------------------------------
# empirical_period

def test_empirical_period_alternating():
    assert empirical_period([1, -1, 1, -1, 1, -1]) == 2


def test_empirical_period_123():
    assert empirical_period(kronecker_window((1, 2, 3), 120)) == 12
    assert empirical_period(kronecker_window((1, 2, 3), 240)) == 12


def test_empirical_period_125_none():
    assert empirical_period(kronecker_window((1, 2, 5), 600)) is None


def test_empirical_period_window_too_short():
    with pytest.raises(WindowTooShort):
        empirical_period([1, -1, 1])


def test_empirical_period_matches_naive_scan():
    import random
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(4, 40)
        seq = [rng.choice([1, -1, "*"]) for _ in range(n)]
        if rng.random() < 0.5:
            p = rng.randrange(1, 6)
            seq = (seq[:p] * (n // p + 1))[:n]
        assert empirical_period(seq) == naive_period(seq)


def test_empirical_period_stable_under_window_doubling():
    for block in CORPUS:
        c = block_classification(block)
        if isinstance(c, Aperiodic):
            continue
        n = 4 * c.period
        assert (empirical_period(kronecker_window(block, n))
                == empirical_period(kronecker_window(block, 2 * n))), block


# ---------------------------------------------------------------------------
# falsify_period

def test_falsify_125_candidate_12():
    witness = falsify_period(block_cf((1, 2, 5)), 12, 100)
    assert witness == (0, 12)
    seq = kronecker_window((1, 2, 5), 100)
    i, j = witness
    assert (j - i) % 12 == 0 and seq[i] != seq[j]


def test_falsify_123_true_period_consistent():
    assert falsify_period(block_cf((1, 2, 3)), 12, 120) is None


def test_falsify_123_rejects_half_period():
    witness = falsify_period(block_cf((1, 2, 3)), 6, 60)
    assert witness is not None
    i, j = witness
    seq = kronecker_window((1, 2, 3), 60)
    assert (j - i) % 6 == 0 and seq[i] != seq[j]


def test_falsify_witnesses_are_valid_everywhere():
    for block in [(1, 2, 5), (1, 2, 2), (2, 1, 5)]:
        cf = block_cf(block)
        seq = kronecker_window(block, 200)
        for p in range(1, 40):
            w = falsify_period(cf, p, 200)
            if w is None:
                assert seq[p:] == seq[:-p]
            else:
                i, j = w
                assert i < j < 200 and (j - i) % p == 0 and seq[i] != seq[j]


def test_falsify_window_too_short():
    with pytest.raises(WindowTooShort):
        falsify_period(block_cf((1, 2, 5)), 60, 100)


# ---------------------------------------------------------------------------
# cross_check

def test_cross_check_123():
    report = cross_check(block_cf((1, 2, 3)), window=240, max_period=60)
    assert report.verdict_agreement
    assert report.empirical_period == 12
    assert report.falsified_periods == ()


def test_cross_check_125_falsifies_all_candidates():
    report = cross_check(block_cf((1, 2, 5)), window=600, max_period=48)
    assert report.verdict_agreement
    assert {p for p, _ in report.falsified_periods} == set(range(1, 49))
    seq = kronecker_window((1, 2, 5), 600)
    for p, (i, j) in report.falsified_periods:
        assert (j - i) % p == 0 and seq[i] != seq[j]


def test_cross_check_cascade_witness_preferred():
    # candidates dividing the level-1 gap 2*12 get their witness pair from
    # the first cascade index
    report = cross_check(block_cf((1, 2, 5)), window=600, max_period=48)
    falsified = dict(report.falsified_periods)
    assert falsified[12] == (7, 31)
    assert falsified[24] == (7, 31)


def test_aperiodic_blocks_falsified_on_cascade_sized_windows():
    # window large enough to contain level-2 cascade witnesses
    for block in CORPUS:
        c = block_classification(block)
        if not isinstance(c, Aperiodic) or len(c.cascade) < 2:
            continue
        L = block_analysis(block).period
        r2 = c.cascade[1][1]
        window = max(600, 4 * (1 << (r2 + 1)) * L)
        # a witness inside the 600-prefix is a witness for the full window,
        # so the long window is only materialized for surviving candidates
        prefix = kronecker_window(block, min(window, 600))
        pending = [p for p in range(1, 4 * L + 1) if prefix[p:] == prefix[:-p]]
        if pending:
            seq = kronecker_window(block, window)
            for p in pending:
                assert seq[p:] != seq[:-p], (block, p)


def test_cross_check_singleton_smoke():
    report = cross_check(block_cf((2,)), window=100, max_period=20)
    assert report.verdict_agreement
    assert report.empirical_period == 8


def test_cross_check_window_too_short():
    with pytest.raises(WindowTooShort):
        cross_check(block_cf((1, 2, 3)), window=100, max_period=60)


def test_cross_check_default_window():
    report = cross_check(block_cf((1, 2, 3)))
    assert report.window_length >= 600
    assert report.empirical_period == 12


def test_claimed_period_is_multiple_of_empirical():
    for block in CORPUS:
        c = block_classification(block)
        if isinstance(c, Aperiodic):
            continue
        emp = empirical_period(kronecker_window(block, max(600, 4 * c.period)))
        assert emp is not None and c.period % emp == 0, block


def test_symbol_sequences_have_period_dividing_certified_length():
    for block in CORPUS:
        L = block_certified_length(block)
        for window in (jacobi_window(block, 10 * L),
                       reciprocal_window(block, 10 * L)):
            emp = empirical_period(window)
            assert emp is not None and L % emp == 0, block


@pytest.mark.parametrize("max_period", [0, -3])
def test_cross_check_rejects_max_period_below_one(max_period):
    with pytest.raises(ValueError):
        cross_check(block_cf((1, 2, 3)), window=240, max_period=max_period)
