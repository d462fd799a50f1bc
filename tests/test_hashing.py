import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadaldp.hashing import P61, PairwiseHash, element_array, sample_hash

from exact_reference import pairwise_hash


def _at(h, x):
    """h at one input, through the limb kernel."""
    return int(h.eval_batch(np.array([x], dtype=np.uint64))[0])


def test_known_values():
    for b, want in ((0, 5), (3, 0)):
        assert pairwise_hash(1, b, 8, 13) == want
        assert _at(PairwiseHash(a=1, b=b, m=8), 13) == want


def test_against_bigint_reference():
    h = PairwiseHash(a=3, b=7, m=16)
    assert _at(h, 10**9) == pairwise_hash(3, 7, 16, 10**9) == \
        (3 * 10**9 + 7) % 16


@given(a=st.integers(1, P61 - 1), b=st.integers(0, P61 - 1),
       m=st.sampled_from([3, 16, 1024, 1 << 16]))
@example(a=3, b=7, m=16)
@example(a=P61 - 1, b=P61 - 1, m=1024)
@example(a=1, b=0, m=3)
@settings(max_examples=50, deadline=None)
def test_batch_matches_scalar(a, b, m):
    h = PairwiseHash(a=a, b=b, m=m)
    xs = np.array([0, 1, 13, 2**32, 2**60, P61 - 1], dtype=np.uint64)
    got = h.eval_batch(xs)
    assert got.tolist() == [pairwise_hash(a, b, m, x) for x in xs]


def test_batch_on_random_inputs():
    rng = np.random.default_rng(5)
    h = sample_hash(4096, rng)
    xs = rng.integers(0, P61, size=20_000, dtype=np.uint64)
    got = h.eval_batch(xs)
    probe = rng.integers(0, xs.size, size=200)
    for i in probe:
        assert got[i] == pairwise_hash(h.a, h.b, h.m, xs[i])


def test_domain_guards():
    h = PairwiseHash(a=2, b=0, m=4)
    with pytest.raises(ValueError):
        h.eval_batch(np.array([0, P61], dtype=np.uint64))


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
    with pytest.raises(ValueError):
        PairwiseHash(a=0, b=0, m=8)
    with pytest.raises(ValueError):
        PairwiseHash(a=1, b=P61, m=8)
    with pytest.raises(ValueError):
        PairwiseHash(a=P61, b=0, m=8)
    with pytest.raises(ValueError):
        PairwiseHash(a=1, b=0, m=0)


def test_sample_determinism_and_serialization():
    h1 = sample_hash(64, np.random.default_rng(42))
    h2 = sample_hash(64, np.random.default_rng(42))
    assert (h1.a, h1.b) == (h2.a, h2.b)


def test_single_bucket_range():
    h = sample_hash(1, np.random.default_rng(0))
    xs = np.array([0, 7, 2**40, P61 - 1], dtype=np.uint64)
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
    rng = np.random.default_rng(2024)
    h = sample_hash(64, rng)
    xs = np.arange(100_000, dtype=np.uint64)
    buckets = np.bincount(h.eval_batch(xs).astype(np.int64), minlength=64)
    expected = xs.size / 64
    statistic = float(((buckets - expected) ** 2).sum() / expected)
    pvalue = chi2_sf(statistic, 63)
    assert pvalue > 1e-4, f"chi-square rejected: {statistic=}, {pvalue=}"


def test_pairwise_collision_rate():
    """Over many family members, Pr[h(x) = h(y)] for fixed x != y stays
    near 1/m (pairwise independence), within 4 sigma."""
    m = 16
    x, y = 1234567890123, 987654321
    trials = 1_000_000
    rng = np.random.default_rng(77)
    a = rng.integers(1, P61, size=trials).tolist()
    b = rng.integers(0, P61, size=trials).tolist()
    p = P61
    hits = 0
    for ai, bi in zip(a, b):
        if ((ai * x + bi) % p) % m == ((ai * y + bi) % p) % m:
            hits += 1
    rate = hits / trials
    sigma = (1 / m * (1 - 1 / m) / trials) ** 0.5
    assert rate <= 1 / m + 4 * sigma, f"collision rate {rate}"
