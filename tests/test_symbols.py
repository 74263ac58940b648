import functools
import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronseq.symbols
from kronseq.cf import _column_step, _mat_pow_mod, matrix_at_mod2
from kronseq import (STAR, EvenArgument, EvenModulus, NotCoprime,
                     PrecisionExhausted, iter_convergent_pairs, jacobi,
                     jacobi_sequence, kronecker, kronecker_bits,
                     kronecker_sequence, mod4_period_length, normalize_period,
                     reciprocal_jacobi_sequence, reciprocity_sign)
from kronseq.symbols import (_START_PRECISION, _chunk, _kronecker_at,
                             _lane_flags, _masks, _read)

from conftest import (CORPUS, block_certified_decomposition,
                      block_certified_length, block_cf, convergent_pairs,
                      jacobi_window, kronecker_window, pinned_shift_cases,
                      reciprocal_window, record_lane_chunks)


def legendre_by_squares(a, p):
    """Brute-force Legendre symbol over the residues mod an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# ---------------------------------------------------------------------------
# jacobi

def test_jacobi_examples():
    assert jacobi(1, 1) == 1
    assert jacobi(2, 15) == 1
    assert jacobi(3, 7) == -1


def test_jacobi_matches_legendre_oracle():
    for p in SMALL_PRIMES:
        for a in range(p):
            assert jacobi(a, p) == legendre_by_squares(a, p), (a, p)


def test_jacobi_zero_iff_common_factor():
    assert jacobi(6, 9) == 0
    assert jacobi(10, 15) == 0
    assert jacobi(4, 9) == 1


def test_jacobi_negative_numerator():
    # (-1/n) is determined by n mod 4
    for n in range(1, 60, 2):
        assert jacobi(-1, n) == (1 if n % 4 == 1 else -1)
    assert jacobi(-3, 7) == jacobi(4, 7)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(EvenModulus):
        jacobi(3, 8)
    with pytest.raises(EvenModulus):
        jacobi(3, 0)


# ---------------------------------------------------------------------------
# kronecker

def test_kronecker_examples():
    assert kronecker(3, 2) == -1
    assert kronecker(3, 8) == -1
    assert kronecker(3, 56) == 1
    assert kronecker(5, 1) == 1


def test_kronecker_two_supplement():
    for s in (1, 7, 9, 15, 17):
        assert kronecker(s, 2) == 1
    for s in (3, 5, 11, 13):
        assert kronecker(s, 2) == -1


def test_kronecker_equals_jacobi_for_odd_t():
    for t in range(1, 40, 2):
        for s in range(1, 40):
            if math.gcd(s, t) == 1:
                assert kronecker(s, t) == jacobi(s, t)


def test_kronecker_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        kronecker(6, 8)


def test_kronecker_multiplicative_in_lower_argument():
    for s in range(1, 31):
        for t1 in range(1, 31):
            if math.gcd(s, t1) != 1:
                continue
            for t2 in range(t1, 31):
                if math.gcd(s, t2) != 1:
                    continue
                assert kronecker(s, t1 * t2) == kronecker(s, t1) * kronecker(s, t2)


# ---------------------------------------------------------------------------
# reciprocity

def test_reciprocity_sign_examples():
    assert reciprocity_sign(3, 3) == -1
    assert reciprocity_sign(1, 3) == 1
    assert reciprocity_sign(7, 11) == -1


def test_reciprocity_sign_rejects_even():
    with pytest.raises(EvenArgument):
        reciprocity_sign(2, 3)
    with pytest.raises(EvenArgument):
        reciprocity_sign(3, -3)


def odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def test_reciprocity_law_small_range():
    for s in range(1, 61):
        for t in range(1, 61):
            if math.gcd(s, t) != 1:
                continue
            eps = reciprocity_sign(odd_part(s), odd_part(t))
            assert kronecker(s, t) == eps * kronecker(t, s), (s, t)


# ---------------------------------------------------------------------------
# sequences

def test_jacobi_sequence_123():
    assert jacobi_sequence(normalize_period((1, 2, 3)), 3) == [1, STAR, -1]


def test_jacobi_sequence_singleton():
    assert jacobi_sequence(normalize_period((2,)), 1) == [1]


def test_reciprocal_sequence_123():
    assert reciprocal_jacobi_sequence(normalize_period((1, 2, 3)), 2) == [1, -1]


def test_reciprocal_sequence_star_at_even_numerator():
    assert reciprocal_jacobi_sequence(normalize_period((2,)), 1) == [STAR]


def test_kronecker_sequence_123():
    assert kronecker_sequence(normalize_period((1, 2, 3)), 2) == [1, -1]


def test_kronecker_sequence_123_has_period_12():
    seq = kronecker_window((1, 2, 3), 120)
    assert seq[12:] == seq[:-12]


def test_kronecker_sequence_125_flips_at_7_plus_24():
    seq = kronecker_window((1, 2, 5), 60)
    assert seq[31] == -seq[7]


def test_sequences_never_star_for_kronecker():
    for block in [(1, 2, 3), (2,), (1, 1, 2)]:
        assert all(v in (1, -1) for v in kronecker_window(block, 50))


def test_jacobi_and_reciprocal_periodic_with_certified_length():
    for block in CORPUS:
        L = block_certified_length(block)
        jac = jacobi_window(block, 10 * L)
        rec = reciprocal_window(block, 10 * L)
        assert jac[L:] == jac[:-L], block
        assert rec[L:] == rec[:-L], block


def test_sign_law_at_certified_length():
    # s_k = 3 mod 4 and v2(t_k) = m+f: the symbol at k+L repeats when
    # f <= e-2 and flips when f = e-1
    checked = 0
    for block in CORPUS:
        L = block_certified_length(block)
        m, e = block_certified_decomposition(block)
        seq = kronecker_window(block, 2 * L)
        for k, f in pinned_shift_cases(block):
            checked += 1
            if f <= e - 2:
                assert seq[k + L] == seq[k], (block, k)
            else:
                assert seq[k + L] == -seq[k], (block, k)
    assert checked > 10


def test_sequence_count_validation():
    for sequence in (kronecker_sequence, jacobi_sequence, reciprocal_jacobi_sequence):
        for count in (0, -3):
            with pytest.raises(ValueError):
                sequence(block_cf((1, 2)), count)


# ---------------------------------------------------------------------------
# residue engine against the exact symbols

def exact_sequences(cf, count):
    """(Kronecker, Jacobi, reciprocal Jacobi) lists from exact convergents.

    For odd t, kronecker(s, t) is jacobi(s, t) itself, so the Jacobi entry
    reuses it."""
    kro, jac, rec = [], [], []
    it = iter_convergent_pairs(cf)
    for _ in range(count):
        s, t = next(it)
        k = kronecker(s, t)
        kro.append(k)
        jac.append(k if t % 2 else STAR)
        rec.append(jacobi(t, s) if s % 2 else STAR)
    return kro, jac, rec


def public_sequences(cf, count):
    return (kronecker_sequence(cf, count), jacobi_sequence(cf, count),
            reciprocal_jacobi_sequence(cf, count))


MINIMAL_SMALL_BLOCKS = [
    b for l in range(1, 5) for b in itertools.product(range(1, 5), repeat=l)
    if normalize_period(b).quotients == b
]


def test_engine_matches_exact_on_all_small_blocks():
    # every minimal block with l <= 4 and quotients <= 4
    assert len(MINIMAL_SMALL_BLOCKS) == 316
    for block in MINIMAL_SMALL_BLOCKS:
        cf = normalize_period(block)
        assert public_sequences(cf, 400) == exact_sequences(cf, 400), block


@settings(deadline=None, max_examples=12)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=10),
       st.integers(1, 600))
def test_engine_matches_exact_on_random_blocks(block, count):
    cf = normalize_period(block)
    assert public_sequences(cf, count) == exact_sequences(cf, count)


def mask_sequences(masks, count):
    """(Kronecker, Jacobi, reciprocal Jacobi) lists read off the four masks
    of one lane pass."""
    minus, t_even, s_even, flip = masks
    return (_read(minus, 0, count), _read(minus, t_even, count),
            _read(minus ^ flip, s_even, count))


@pytest.mark.parametrize("block", [(1, 2, 5), (1, 2, 2), (2,), (1, 1, 2), (3, 1, 1, 2)])
def test_engine_escalates_from_low_precision(block):
    # at 8 bits v2(t_k) soon reaches the limit; the pass must raise in the
    # chunk that holds the first such k, go on from there at a higher
    # precision and still agree with the exact symbols, here beyond the
    # deep cascade index k=139 of (1,2,5)
    cf = normalize_period(block)
    k = pass_outcome(scalar_residue_pass, cf, 200, 8)
    assert lane_chunks(cf, 200, 8) == (k // _chunk(len(cf)), k)
    assert mask_sequences(_masks(cf, 200, 8), 200) == exact_sequences(cf, 200)


def test_kronecker_bits_packs_the_kronecker_sequence():
    for block in [(1, 2, 3), (1, 2, 5), (2,), (3, 1, 1, 2)]:
        cf = normalize_period(block)
        bits = kronecker_bits(cf, 300)
        assert [-1 if bits >> k & 1 else 1 for k in range(300)] \
            == kronecker_sequence(cf, 300), block
        assert bits < 1 << 300


# ---------------------------------------------------------------------------
# the random-access symbol against the lane pass and the exact symbols

def window_symbols(bits, count):
    return {k: -1 if bits >> k & 1 else 1 for k in range(count)}


def test_kronecker_at_matches_the_lane_pass_on_all_small_blocks():
    # every minimal block with l <= 4 and quotients <= 5, 600 terms, at both
    # bases L4 and 2*L4
    blocks = [normalize_period(b) for l in range(1, 5)
              for b in itertools.product(range(1, 6), repeat=l)]
    blocks = [cf for cf in blocks if not cf.reduced]
    assert len(blocks) == 745
    for cf in blocks:
        window = window_symbols(kronecker_bits(cf, 600), 600)
        L4 = mod4_period_length(cf)
        for base in (L4, 2 * L4):
            assert _kronecker_at(cf, base, range(600)) == window, (cf, base)


def test_row_and_column_signs_agree_on_all_small_blocks():
    # g = (s_{P-1}/s_{P-2}) equals f = (t_{P-2}/t_{P-1}) at P = L4 and
    # 2*L4 (proved in the _kronecker_at docstring), so one sign serves
    # indices with odd and with even t_k
    for block in MINIMAL_SMALL_BLOCKS:
        cf = normalize_period(block)
        L4 = mod4_period_length(cf)
        pairs = list(itertools.islice(iter_convergent_pairs(cf), 2 * L4))
        for P in (L4, 2 * L4):
            (a, c), (b, d) = pairs[P - 1], pairs[P - 2]
            assert kronecker(a, b) == kronecker(d, c), (block, P)


@pytest.mark.parametrize("block", [(2,), (1,), (4,), (1, 1, 4, 3), (1, 2, 3),
                                   (1, 2, 5), (1, 2, 2), (3 * 2**15 - 1, 1)])
def test_kronecker_at_matches_exact_symbols(block):
    # sampled indices K < 4,000 and the first few against kronecker on exact
    # convergents.  For (3 * 2^15 - 1, 1), t_2 = 3 * 2^15 and s_2 = 3 mod 4:
    # at the starting 16 bits the residue of t_2 is nonzero but lacks bit
    # v2 + 1, so u_2 mod 4 needs the next precision
    cf = normalize_period(block)
    indices = set(random.Random(17).sample(range(4000), 60)) | set(range(8))
    exact = {k: kronecker(s, t) for k, (s, t) in
             zip(range(4000), iter_convergent_pairs(cf)) if k in indices}
    L4 = mod4_period_length(cf)
    for base in (L4, 2 * L4):
        assert _kronecker_at(cf, base, indices) == exact, (block, base)


@pytest.mark.parametrize("block", [(1, 2, 5), (1, 2, 2), (2, 5, 9, 9, 5, 3, 2, 3)])
def test_column_power_matches_matrix_at_mod2(block):
    # D(P)^n (s, t)_k mod 2^B, the column _kronecker_at reads, is the first
    # column of the matrix at k + n*P, for n up to 2^70 and B on both sides
    # of the entries' size
    cf = normalize_period(block)
    P = mod4_period_length(cf)
    pairs = list(itertools.islice(iter_convergent_pairs(cf), P))
    (a, c), (b, d) = pairs[P - 1], pairs[P - 2]
    rng = random.Random(5)
    for n in [0, 1, 2, 3, 2**70 + 5, *rng.sample(range(1, 2**40), 8)]:
        for k in (0, P - 1, rng.randrange(P)):
            for B in (8, 32, 200):
                M = matrix_at_mod2(cf, k + n * P, B)
                mask = (1 << B) - 1
                power = _mat_pow_mod((a, b, c, d), n, mask)
                assert _column_step(power, *pairs[k], mask) == (M.s, M.t)


def test_kronecker_at_doubles_the_precision_of_a_deep_valuation(monkeypatch):
    # (2^40 - 1, 1): t_2 = 2^40 and s_2 = 2^80 - 1 = 3 mod 4, so u_2 mod 4
    # needs more than the starting precision, and so do the indices K = 2
    # and 5 mod L4 = 12 below 200 (v2(t_K) = 40 and 41)
    cf = normalize_period((2**40 - 1, 1))
    precisions = []
    mat_pow_mod = kronseq.symbols._mat_pow_mod

    def recorded(A, n, mask):
        precisions.append(mask.bit_length())
        return mat_pow_mod(A, n, mask)
    L4 = mod4_period_length(cf)
    assert L4 == 12
    exact = {k: kronecker(s, t) for k, (s, t) in
             zip(range(200), iter_convergent_pairs(cf))}
    # only the powers of _kronecker_at: the lane pass makes the same power
    # when it goes on from a later chunk
    with monkeypatch.context() as patched:
        patched.setattr(kronseq.symbols, "_mat_pow_mod", recorded)
        symbols = _kronecker_at(cf, L4, range(200))
    assert symbols == exact == window_symbols(kronecker_bits(cf, 200), 200)
    assert max(precisions) > _START_PRECISION


# ---------------------------------------------------------------------------
# the lane pass against the scalar pass it replaced

def scalar_residue_pass(cf, count, precision):
    # one term at a time, as the package computed the sequences before the
    # lane pass: the (Kronecker, Jacobi, reciprocal Jacobi) lists
    # Loop state before step k: s = s_{k-1}, s_prev = s_{k-2}, t = t_{k-1},
    # t_prev = t_{k-2} (all mod 2^precision), w = v2(t_{k-1}),
    # o = u_{k-1} mod 8 and c = c_{k-1}.
    mask = (1 << precision) - 1
    limit = precision - 3
    quotients = [a & mask for a in cf.quotients]
    l = len(quotients)
    s, s_prev, t, t_prev = quotients[0], 1, 1, 0
    w, o, c = 0, 1, 1
    kro, jac, rec = [1], [1], [STAR if not s & 1 else 1]
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
        kro.append(sym)
        jac.append(STAR if v else sym)
        # (t_k/s_k) = R(s_k, t_k) * (s_k/t_k)
        rec.append(STAR if not s & 1 else -sym if s & u & 2 else sym)
        t, t_prev = t_new, t
        w, o = v, u
    return kro, jac, rec


def pass_outcome(residue_pass, cf, count, precision):
    """The lists of a pass, or the index its PrecisionExhausted names."""
    try:
        return residue_pass(cf, count, precision)
    except PrecisionExhausted as exc:
        return int(re.search(r"t_(\d+)", str(exc)).group(1))


def lane_chunks(cf, count, precision, start=0):
    """The lane pass at this precision, from chunk ``start``: its chunks
    and None, or, when it raises PrecisionExhausted, the number of the
    chunk it raises at and the term its message names."""
    chunks = []
    try:
        for flags in _lane_flags(cf, count, precision, start):
            chunks.append(flags)
    except PrecisionExhausted as exc:
        return start + len(chunks), int(re.search(r"t_(\d+)", str(exc)).group(1))
    return chunks, None


def resolved_scalar_pass(cf, count, precision):
    """The scalar pass at the first doubling of ``precision`` that resolves
    every term, and that precision."""
    while isinstance(lists := pass_outcome(scalar_residue_pass, cf, count, precision), int):
        precision *= 2
    return lists, precision


@functools.lru_cache(maxsize=None)
def exact_window(quotients, count):
    return exact_sequences(normalize_period(quotients), count)


def exact_prefix(cf, count):
    """The exact sequences of the first count terms, or of the first 100
    when the quotients reach past 1,000: exact symbols on 2^40 quotients
    take seconds a block."""
    if max(cf.quotients) > 1000:
        count = min(count, 100)
    return exact_window(cf.quotients, count)


def prefix(lists, count):
    return tuple(seq[:count] for seq in lists)


def lane_pass_cases():
    # seeded blocks of lengths 1 to 9 with quotients up to 2^40, one block
    # longer than a chunk, and counts around one and two chunks, and of 1
    # to 3 terms: windows no longer than the two seed lanes below chunk 0
    rng = random.Random(13)
    blocks = [(1,), (2,), (1, 2, 5)]
    blocks += [tuple(rng.randint(1, q) for _ in range(rng.randint(1, 9)))
               for q in (9, 1000, 2 ** 40) for _ in range(2)]
    blocks.append(tuple(rng.randint(1, 9) for _ in range(kronseq.symbols._CHUNK_LANES + 3)))
    for block in blocks:
        cf = normalize_period(block)
        C = _chunk(len(cf))
        for count in (1, 2, 3, C - 1, C, C + 1, 2 * C + 1):
            yield cf, count


@pytest.mark.parametrize("precision", [8, 16, 32, 64])
def test_lane_pass_matches_scalar_pass(precision):
    # all three sequences of the one pass.  Where the scalar pass raises
    # PrecisionExhausted at term k, the lane pass raises in the chunk that
    # holds k, naming k, and the pass that goes on from that chunk equals
    # the scalar pass at a precision that resolves every term, and the
    # exact sequences
    raised = settled = 0
    for cf, count in lane_pass_cases():
        C = _chunk(len(cf))
        expected = pass_outcome(scalar_residue_pass, cf, count, precision)
        outcome = lane_chunks(cf, count, precision)
        if isinstance(expected, int):
            assert outcome == (expected // C, expected), (cf.quotients[:9], count)
            expected, _ = resolved_scalar_pass(cf, count, precision)
            raised += 1
        else:
            assert outcome[1] is None and len(outcome[0]) == -(-count // C)
            settled += 1
        got = mask_sequences(_masks(cf, count, precision), count)
        assert got == expected, (cf.quotients[:9], count)
        exact = exact_prefix(cf, count)
        assert prefix(got, len(exact[0])) == exact, (cf.quotients[:9], count)
        assert kronecker_bits(cf, count) == _masks(cf, count)[0]
    assert settled or precision == 8
    assert raised or precision >= 32


def escalations(built):
    """(precision, chunk) of each chunk at which the pass raised."""
    return [(B, j) for B, j, finished in built if not finished]


@pytest.mark.parametrize("block, count, raised", [
    ((3, 2, 8), 1500, [(16, 0)]),  # t_28: the first chunk
    ((2, 4, 5), 1500, [(16, 2)]),  # t_570: a middle chunk
    ((1, 2, 1), 1500, [(16, 7)]),  # t_1495: the short last chunk, 156 lanes
    # t_1 = 2^13, then t_131,071 (chunks of 256 lanes): twice in one pass
    ((1, 8192), 200_000, [(16, 0), (32, 511)]),
])
def test_lane_pass_resumes_at_the_failing_chunk(monkeypatch, block, count, raised):
    # the pass keeps the chunks it has made and builds each of the rest
    # once, from the chunk it raised at, at twice the precision; the masks
    # equal the scalar pass at the precision that resolves every term, and
    # the exact sequences on a prefix
    cf = normalize_period(block)
    chunks = -(-count // _chunk(len(cf)))
    built = record_lane_chunks(monkeypatch)
    got = _masks(cf, count)
    assert escalations(built) == raised
    finished = [(B, j) for B, j, done in built if done]
    assert [j for _, j in finished] == list(range(chunks))
    assert len(built) == chunks + len(raised)
    for B, j in finished:  # each chunk at the precision it resolved at
        assert B == _START_PRECISION << sum(j >= i for _, i in raised)
    expected, B = resolved_scalar_pass(cf, count, _START_PRECISION)
    assert B == _START_PRECISION << len(raised)
    assert mask_sequences(got, count) == expected
    assert prefix(expected, 400) == exact_window(block, min(count, 400))
    built.clear()
    assert kronecker_bits(cf, count) == got[0]
    assert escalations(built) == raised


@pytest.mark.parametrize("block", [
    (1, 2, 5), (2, 5, 9, 9, 5, 3, 2, 3),
    # l = 301 > _CHUNK_LANES: one block a chunk, and C odd
    tuple(random.Random(301).randint(1, 9) for _ in range(301)),
])
def test_lane_pass_from_any_chunk(block):
    # chunk j seeded by D(C)^j is chunk j of the pass from chunk 0, at a
    # precision that resolves every term, for counts that end short of,
    # at and past a chunk boundary
    cf = normalize_period(block)
    C = _chunk(len(cf))
    if len(cf) == 301:
        assert C == 301
    for count in (3 * C - 1, 3 * C, 3 * C + 1, 4 * C + 7):
        _, B = resolved_scalar_pass(cf, count, 16)
        chunks, failed = lane_chunks(cf, count, B)
        assert failed is None
        for start in range(1, len(chunks)):
            assert lane_chunks(cf, count, B, start) == (chunks[start:], None)


def test_lane_pass_chunk_size():
    limit = kronseq.symbols._CHUNK_LANES
    for l in (1, 2, 3, 6, 8, 1000, limit, limit + 1):
        C = _chunk(l)
        assert C % l == 0 and (C // l) & (C // l - 1) == 0, l
        assert limit // 2 < C <= limit or C == l > limit, l


def test_lane_pass_memory_is_bounded(monkeypatch):
    # 200,000 terms: a chunk of at most 256 lanes of 5 bytes (B = 16), or
    # of 9 bytes (B = 32) from t_2798 on, which 16 bits cannot resolve, is
    # at most 2.3 KB an int, and the pass keeps one flag byte per term,
    # about 0.2 MB, and a few copies of it, so the measured peak is about
    # 0.6 MiB.  Lanes over the whole window would be 1.8 MB an int at
    # B = 32, with a couple dozen of them alive at once: about 40 MiB.
    # 4 MiB separates the two with room for either to drift.
    bound = 4 << 20
    cf = normalize_period((2, 5, 9, 9, 5, 3, 2, 3))

    def peak():
        tracemalloc.start()
        try:
            kronecker_bits(cf, 200_000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < bound
    monkeypatch.setattr(kronseq.symbols, "_CHUNK_LANES", 1 << 20)  # one chunk
    assert peak() > bound
