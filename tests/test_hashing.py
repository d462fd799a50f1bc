import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadaldp import freq_oracle as fo
from hadaldp.hashing import MAX_RANGE, PairwiseHash, element_array
from hadaldp.randomizer import setup_stream

from exact_reference import multiply_shift

TOP = (1 << 64) - 1   # the largest 64-bit word


def _at(h, x):
    """h at one input, through the package's kernel."""
    return int(h.eval_batch(np.array([x], dtype=np.uint64))[0])


def test_known_values():
    x = (2 << 32) + 10    # x_hi = 2, x_lo = 10: a1 * 10 + a2 * 2 + b
    for b, m, want in ((0, 16, 0), (15 << 60, 16, 15), (1 << 63, 2, 1),
                       (1 << 63, 1, 0), ((1 << 63) - 41, 2, 0),
                       ((1 << 63) - 40, 2, 1)):
        assert multiply_shift(3, 5, b, m, x) == want
        assert _at(PairwiseHash(a1=3, a2=5, b=b, m=m), x) == want
    # the sum wraps mod 2^64: 2^63 * 2 + 2^63 = 2^63
    assert _at(PairwiseHash(a1=1 << 63, a2=0, b=1 << 63, m=2), 2) == 1


def test_against_bigint_reference():
    h = PairwiseHash(a1=3 << 60, a2=7, b=11, m=16)
    x = 10 ** 12
    assert _at(h, x) == multiply_shift(3 << 60, 7, 11, 16, x) == \
        (((3 << 60) * (x % (1 << 32)) + 7 * (x >> 32) + 11) % (1 << 64)) >> 60


@given(a1=st.integers(0, TOP), a2=st.integers(0, TOP), b=st.integers(0, TOP),
       m=st.sampled_from([1, 2, 16, 1024, 1 << 16, 1 << 31, MAX_RANGE]))
@example(a1=3, a2=5, b=7, m=16)
@example(a1=TOP, a2=TOP, b=TOP, m=1024)
@example(a1=0, a2=0, b=0, m=1)
@example(a1=TOP, a2=TOP, b=TOP, m=MAX_RANGE)
@settings(max_examples=50, deadline=None)
def test_batch_matches_scalar(a1, a2, b, m):
    h = PairwiseHash(a1=a1, a2=a2, b=b, m=m)
    xs = np.array([0, 1, 13, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 60,
                   TOP], dtype=np.uint64)
    got = h.eval_batch(xs)
    assert got.tolist() == [multiply_shift(a1, a2, b, m, x) for x in xs]


def test_batch_on_random_inputs():
    rng = np.random.default_rng(5)
    h, = fo.sample_family(1, 4096, seed=5)
    xs = rng.integers(0, TOP, size=20_000, dtype=np.uint64, endpoint=True)
    got = h.eval_batch(xs)
    probe = rng.integers(0, xs.size, size=200)
    for i in probe:
        assert got[i] == multiply_shift(h.a1, h.a2, h.b, h.m, xs[i])


def test_domain_guards():
    """Every 64-bit key is in the hash's domain; a negative, fractional
    or non-1-D batch is refused rather than cast."""
    h = PairwiseHash(a1=2, a2=3, b=0, m=4)
    assert h.eval_batch(np.array([0, TOP], dtype=np.uint64)).tolist() == \
        [multiply_shift(2, 3, 0, 4, x) for x in (0, TOP)]
    for bad in ([-1], np.array([1.5]), np.zeros((2, 2), dtype=np.uint64)):
        with pytest.raises(ValueError):
            h.eval_batch(bad)


def test_element_array_accepts_integers_only():
    got = element_array([0, 3, 2], 4)
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.tolist() == [0, 3, 2]
    assert element_array(np.array([1, 2], dtype=np.int8), 4).tolist() == [1, 2]
    assert element_array([], 4).dtype == np.uint64
    for bad in (np.array([1.5, 2.7]), np.array([1.0]), [1.5], [-1, 2],
                np.array([0, -2]), np.array([True, False]), [4],
                np.zeros((2, 2), dtype=np.uint64), np.uint64(1), [[1]]):
        with pytest.raises(ValueError):
            element_array(bad, 4)


def test_constructor_guards():
    for words in ((-1, 0, 0), (0, 1 << 64, 0), (0, 0, 1 << 64)):
        with pytest.raises(ValueError, match="must lie in"):
            PairwiseHash(*words, m=8)
    for m in (0, 3, 1000, (1 << 61) - 1):
        with pytest.raises(ValueError, match="not a power of two"):
            PairwiseHash(a1=1, a2=0, b=0, m=m)
    # strongly universal into [2^l] only for l <= 33; the cap is 2^32
    for m in (2 * MAX_RANGE, 1 << 61):
        with pytest.raises(ValueError, match="above 2"):
            PairwiseHash(a1=1, a2=0, b=0, m=m)
    assert PairwiseHash(a1=TOP, a2=TOP, b=TOP, m=MAX_RANGE).m == 1 << 32


def test_sample_determinism_and_serialization():
    """A family is one 3 x k draw of 64-bit words from its round's setup
    stream 1, rows a1, a2 and b; the same seed and round draw it again."""
    family = fo.sample_family(3, 64, seed=42, round_index=2)
    assert family == fo.sample_family(3, 64, seed=42, round_index=2)
    words = setup_stream(42, 2, 1).integers(0, 1 << 64, size=(3, 3),
                                            dtype=np.uint64)
    assert [(h.a1, h.a2, h.b) for h in family] == list(zip(*words.tolist()))
    assert {h.m for h in family} == {64}


def test_single_bucket_range():
    """m = 1 keeps no bit of the word: every key hashes to 0."""
    h = PairwiseHash(a1=TOP, a2=TOP, b=TOP, m=1)
    xs = np.array([0, 7, 2**40, TOP], dtype=np.uint64)
    assert h.eval_batch(xs).tolist() == [0] * xs.size


def chi2_sf(x, df):
    """Pr[X > x] for X chi-square with df degrees of freedom, from the
    finite sums of Abramowitz and Stegun 26.4.4 (odd df) and 26.4.5
    (even df)."""
    chi = math.sqrt(x)
    if df % 2:
        total = math.erfc(chi / math.sqrt(2))
        term = math.sqrt(2 / math.pi) * math.exp(-x / 2) * chi
        for r in range(1, (df + 1) // 2):
            total += term
            term *= x / (2 * r + 1)
        return total
    total, term = 0.0, math.exp(-x / 2)
    for r in range(df // 2):
        total += term
        term *= x / (2 * r + 2)
    return total


def test_chi2_sf_known_values():
    # df = 1 and 2 in closed form, and the 1e-4 critical value at df = 63
    assert chi2_sf(4.0, 1) == pytest.approx(math.erfc(2 / math.sqrt(2)))
    assert chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5))
    assert chi2_sf(113.50499285105357, 63) == pytest.approx(1e-4, rel=1e-9)


def test_chi_square_uniformity():
    """A random family member spreads 10^5 distinct inputs evenly over
    m = 64 buckets; reject only below significance 1e-4."""
    h, = fo.sample_family(1, 64, seed=2024)
    xs = np.arange(100_000, dtype=np.uint64)
    buckets = np.bincount(h.eval_batch(xs).astype(np.int64), minlength=64)
    expected = xs.size / 64
    statistic = float(((buckets - expected) ** 2).sum() / expected)
    pvalue = chi2_sf(statistic, 63)
    assert pvalue > 1e-4, f"chi-square rejected: {statistic=}, {pvalue=}"


def test_pairwise_collision_rate():
    """Over many family members, Pr[h(x) = h(y)] for fixed x != y stays
    near 1/m (pairwise independence), within 4 sigma; x is above 2^32
    and y below it."""
    m = 16
    x, y = 1234567890123, 987654321
    trials = 1_000_000
    rng = np.random.default_rng(77)
    a1, a2, b = rng.integers(0, TOP, size=(3, trials), dtype=np.uint64,
                             endpoint=True).tolist()
    hits = sum(multiply_shift(*w, m, x) == multiply_shift(*w, m, y)
               for w in zip(a1, a2, b))
    rate = hits / trials
    sigma = (1 / m * (1 - 1 / m) / trials) ** 0.5
    assert rate <= 1 / m + 4 * sigma, f"collision rate {rate}"


def _joint_law_misses(W, w, l):
    """Key pairs whose two values are not exactly uniform over [2^l]^2
    when (a1, a2, b) runs over every triple of W-bit words, for the
    family ((a1*x_lo + a2*x_hi + b) mod 2^W) >> (W - l) on keys of two
    w-bit limbs."""
    words = np.arange(1 << W, dtype=np.int64)
    a1, a2, b = np.meshgrid(words, words, words, indexing="ij")
    keys = range(1 << (2 * w))
    # row x: h(x) under every triple, as int16 (values below 2^(2l))
    h = np.stack([(a1 * (x % (1 << w)) + a2 * (x >> w) + b) % (1 << W)
                  >> (W - l) for x in keys]).reshape(len(keys), -1)
    h = h.astype(np.int16)
    high = h << l
    each = h.shape[1] >> (2 * l)   # triples per pair of values
    return sum(bool((np.bincount(high[x] | h[y], minlength=1 << (2 * l))
                     != each).any())
               for x, y in itertools.combinations(keys, 2))


def test_small_word_family_is_exactly_strongly_universal():
    """The family's small-word twin with W-bit words and w-bit limbs is
    strongly universal into [2^l] when W >= w + l - 1 (Thorup 2015),
    as the 64-bit family with 32-bit limbs is for l <= 33: at four
    shapes every key pair's joint law, over all 2^(3W) triples, is
    exactly uniform.  (W, w, l) = (6, 3, 5) breaks the condition and
    must miss on some pair, or the check could not tell."""
    for shape in ((6, 3, 4), (6, 3, 3), (5, 2, 4), (5, 2, 3)):
        assert _joint_law_misses(*shape) == 0, shape
    assert _joint_law_misses(6, 3, 5) > 0
