import itertools
import random

import pytest

import kronseq.oracle as oracle
from kronseq import (STAR, Aperiodic, OracleMismatch, Periodic2L, PeriodicL,
                     WindowTooShort, cross_check, empirical_period,
                     kronecker_bits)
from kronseq.cf import _v2
from kronseq.cli import EXIT_MISMATCH, main

from conftest import (CORPUS, block_analysis, block_certified_length,
                      block_cf, block_classification, jacobi_window,
                      kronecker_window, reciprocal_window)


def naive_period(seq):
    n = len(seq)
    for p in range(1, n // 2 + 1):
        if all(seq[k] == seq[k + p] for k in range(n - p)):
            return p
    return None


def naive_find_witness(seq, p):
    # the slice-based scan the packed window replaced
    if seq[p:] == seq[:-p]:
        return None
    n = len(seq)
    for i in range(p):
        base = seq[i]
        for j in range(i + p, n, p):
            if seq[j] != base:
                return (i, j)
    return None


def fold_witness(bits, n, p):
    # the bit-fold search the class slices replaced: bit k of d is set iff
    # entries k and k+p differ; OR-folding d onto its first p bits with
    # doubling shifts sets bit i of g iff class i mod p holds a mismatch,
    # and m << i covers every class-i bit of d
    d = (bits ^ (bits >> p)) & ((1 << (n - p)) - 1)
    if not d:
        return None
    g, m, shift = d, 1, p
    while shift < n - p:
        g |= g >> shift
        m |= m << shift
        shift <<= 1
    i = _v2(g & ((1 << p) - 1))
    return (i, _v2(d & (m << i)) + p)


def window_text(bits, n):
    # a packed +-1 window written as cross_check writes it: entry k, 1 for
    # a -1 entry, as character k
    return format(bits, f"0{n}b")[::-1]


def assert_packed_matches_naive(seq):
    # the period of any window; the witnesses of a +-1 window, packed as
    # kronecker_bits packs it and written as text, against the slice scan
    # and the bit fold; and the Fine-Wilf decision: p <= n/2 holds exactly
    # when the smallest period e divides it
    e = naive_period(seq)
    assert empirical_period(seq) == e, seq
    if set(seq) <= {1, -1}:
        bits = sum(1 << k for k, v in enumerate(seq) if v == -1)
        text = window_text(bits, len(seq))
        for p in range(1, len(seq) // 2 + 1):
            witness = oracle._witness(text, p)
            assert witness == naive_find_witness(seq, p), (seq, p)
            assert witness == fold_witness(bits, len(seq), p), (seq, p)
            assert (witness is None) == (e is not None and p % e == 0), (seq, p)


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
    # windows up to 200 terms of two values (their witnesses compared too),
    # three and five, half of them periodic
    rng = random.Random(7)
    for values in ([1, -1], [1, -1, STAR], [1, -1, STAR, "a", "b"]):
        for _ in range(200):
            n = rng.randrange(4, 201)
            seq = [rng.choice(values) for _ in range(n)]
            if rng.random() < 0.5:
                p = rng.randrange(1, n // 2 + 1)
                seq = (seq[:p] * (n // p + 1))[:n]
            assert_packed_matches_naive(seq)


def test_empirical_period_with_many_near_periods():
    # 'ab'*k + 'x' and its kin: the prefix recurs at every multiple of the
    # unit, and only the last entry rules each recurrence out
    for unit in (["a", "b"], [1, -1, 1], [STAR, 1], [1, -1, STAR, "a", "b"]):
        for k in range(2, 40):
            for tail in (["x"], unit[:1], unit[:-1] + ["x"]):
                seq = unit * k + tail
                assert_packed_matches_naive(seq)


def test_empirical_period_stable_under_window_doubling():
    for block in CORPUS:
        c = block_classification(block)
        if isinstance(c, Aperiodic):
            continue
        n = 4 * c.period
        assert (empirical_period(kronecker_window(block, n))
                == empirical_period(kronecker_window(block, 2 * n))), block


# ---------------------------------------------------------------------------
# the packed window against the slice-based scans

def test_packed_window_every_pm1_window_up_to_12():
    for n in range(4, 13):
        for bits in itertools.product((1, -1), repeat=n):
            assert_packed_matches_naive(list(bits))


def test_packed_window_periodic_with_one_flip():
    # a flip late in a periodic window puts the witness at the end of its
    # class, after a long run of equal entries; the witnesses are compared
    # on the +-1 windows, the periods on both
    rng = random.Random(12)
    for values, _ in itertools.product(([1, -1], [1, -1, STAR]), range(200)):
        n = rng.randrange(8, 201)
        p = rng.randrange(1, n // 4 + 1)
        head = [rng.choice(values) for _ in range(p)]
        seq = (head * (n // p + 1))[:n]
        k = rng.randrange(max(0, n - 2 * p), n)
        seq[k] = 1 if seq[k] != 1 else -1
        assert_packed_matches_naive(seq)


# ---------------------------------------------------------------------------
# witnesses on a Kronecker window

def falsify(block, p, window):
    bits = kronecker_bits(block_cf(block), window)
    witness = oracle._witness(window_text(bits, window), p)
    assert witness == fold_witness(bits, window, p), (block, p, window)
    return witness


def test_falsify_125_candidate_12():
    witness = falsify((1, 2, 5), 12, 100)
    assert witness == (0, 12)
    seq = kronecker_window((1, 2, 5), 100)
    i, j = witness
    assert (j - i) % 12 == 0 and seq[i] != seq[j]


def test_falsify_123_true_period_consistent():
    assert falsify((1, 2, 3), 12, 120) is None


def test_falsify_123_rejects_half_period():
    witness = falsify((1, 2, 3), 6, 60)
    assert witness is not None
    i, j = witness
    seq = kronecker_window((1, 2, 3), 60)
    assert (j - i) % 6 == 0 and seq[i] != seq[j]


@pytest.mark.parametrize("block, window", [((1, 2, 5), 20_000),
                                           ((2, 5, 9, 9, 5, 3, 2, 3), 6_000)])
def test_witness_matches_fold_on_long_windows(block, window):
    # every candidate p <= n/2 of two long aperiodic windows
    bits = kronecker_bits(block_cf(block), window)
    text = window_text(bits, window)
    for p in range(1, window // 2 + 1):
        assert oracle._witness(text, p) == fold_witness(bits, window, p), p


def test_falsify_witnesses_are_valid_everywhere():
    for block in [(1, 2, 5), (1, 2, 2), (2, 1, 5)]:
        seq = kronecker_window(block, 200)
        for p in range(1, 40):
            w = falsify(block, p, 200)
            if w is None:
                assert seq[p:] == seq[:-p]
            else:
                i, j = w
                assert i < j < 200 and (j - i) % p == 0 and seq[i] != seq[j]


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


def test_unfalsified_candidate_is_a_short_window_or_a_mismatch():
    # (1,2,3) is periodic with period 12 (analysis period 6), given here a
    # false aperiodic verdict: a candidate no pair of the window falsifies
    # is a short window when the first cascade pair that covers it lies past
    # the window, and a mismatch when that pair lies inside it or no pair
    # covers it
    cf, a = block_cf((1, 2, 3)), block_analysis((1, 2, 3))
    past = Aperiodic(first_critical=0, cascade=((0, 1),))  # pairs (0, 24), (0, 72)
    with pytest.raises(WindowTooShort, match=r"period 12 .* pair \(0, 24\) needs a window of 25"):
        cross_check(cf, window=24, max_period=12, analysis=a, verdict=past)
    for window, verdict in ((100, past), (24, Aperiodic(0, ((0, 0),))), (24, Aperiodic(0, ()))):
        with pytest.raises(OracleMismatch, match=f"period 12 holds on a window of {window}"):
            cross_check(cf, window=window, max_period=12, analysis=a, verdict=verdict)


def test_periodic_claim_must_fit_twice_in_the_window():
    # (1,2,3) claims period 12: 23 terms cannot hold it twice, whatever
    # max_period asks, and 24 can
    cf = block_cf((1, 2, 3))
    with pytest.raises(WindowTooShort, match="claimed period 12 of .* needs a window of 24$"):
        cross_check(cf, window=23, max_period=1)
    report = cross_check(cf, window=24, max_period=1)
    assert report.verdict_agreement and report.empirical_period == 12


def test_default_window_holds_the_claim_twice():
    # a claim past 300 grows the default window past 600
    cf, a = block_cf((1, 2, 3)), block_analysis((1, 2, 3))
    report = cross_check(cf, max_period=1, analysis=a, verdict=PeriodicL(360))
    assert report.window_length == 720 and report.empirical_period == 12


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


def flip_entry(monkeypatch, index):
    # the lane pass gets one symbol wrong
    def flipped(cf, count):
        return kronecker_bits(cf, count) ^ (1 << index)
    monkeypatch.setattr(oracle, "kronecker_bits", flipped)


def test_cross_check_rechecks_witness_symbols_exactly(monkeypatch):
    # (1,2,2) on 400 terms: the first witness is (6, 294), and with entry 6
    # flipped the first witness still starts at 6
    assert cross_check(block_cf((1, 2, 2)), window=400).falsified_periods[0] \
        == (1, (6, 294))
    flip_entry(monkeypatch, 6)
    with pytest.raises(OracleMismatch, match="at 6 differs"):
        cross_check(block_cf((1, 2, 2)), window=400)


def test_periodic_claim_falsified_by_a_wrong_window_symbol(monkeypatch, capsys):
    # entry 100 of (1,2,3) flipped: the smallest period no longer divides
    # the claim 12, and the claim's first pair lies in class 100 mod 12 = 4
    flip_entry(monkeypatch, 100)
    with pytest.raises(OracleMismatch, match="period 12, but symbols at 4 and 100 differ"):
        cross_check(block_cf((1, 2, 3)), window=240)
    assert main(["verify", "1,2,3", "--window", "240"]) == EXIT_MISMATCH
    assert "symbols at 4 and 100 differ" in capsys.readouterr().err


def test_verify_exits_4_on_a_wrong_window_symbol(monkeypatch, capsys):
    flip_entry(monkeypatch, 6)
    assert main(["verify", "1,2,2", "--window", "400"]) == EXIT_MISMATCH
    assert "oracle mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["1,2,3", "2", "1"])
def test_periodic_verdict_rechecks_the_last_window_term(monkeypatch, capsys, block):
    # the whole window negated, as one slip of the lane pass's running sign
    # at term 0 would leave it, keeps every period of the window; the last
    # term, rechecked by random access, shows the slip
    def complement(cf, count):
        return kronecker_bits(cf, count) ^ ((1 << count) - 1)
    monkeypatch.setattr(oracle, "kronecker_bits", complement)
    cf = block_cf(tuple(map(int, block.split(","))))
    with pytest.raises(OracleMismatch, match="at 599 differs from the exact"):
        cross_check(cf, window=600)
    assert main(["verify", block, "--window", "600"]) == EXIT_MISMATCH
    assert "at 599 differs" in capsys.readouterr().err


@pytest.mark.parametrize("max_period", [0, -3])
def test_cross_check_rejects_max_period_below_one(max_period):
    with pytest.raises(ValueError):
        cross_check(block_cf((1, 2, 3)), window=240, max_period=max_period)
