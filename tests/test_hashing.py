import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hadaldp.hashing import P61, PairwiseHash, element_array, sample_hash


def ref_eval(a, b, m, x):
    # arbitrary-precision reference, no clever reductions anywhere
    return ((a * x + b) % ((1 << 61) - 1)) % m


def test_known_values():
    assert PairwiseHash(a=1, b=0, p=P61, m=8).eval(13) == 5
    assert PairwiseHash(a=1, b=3, p=P61, m=8).eval(13) == 0


def test_against_bigint_reference():
    h = PairwiseHash(a=3, b=7, p=P61, m=16)
    assert h.eval(10**9) == ref_eval(3, 7, 16, 10**9)


@given(a=st.integers(1, P61 - 1), b=st.integers(0, P61 - 1),
       m=st.sampled_from([1, 2, 8, 64, 4096, 1 << 20]),
       x=st.integers(0, P61 - 1))
@settings(max_examples=300, deadline=None)
def test_scalar_matches_reference(a, b, m, x):
    assert PairwiseHash(a=a, b=b, p=P61, m=m).eval(x) == ref_eval(a, b, m, x)


@given(a=st.integers(1, P61 - 1), b=st.integers(0, P61 - 1),
       m=st.sampled_from([3, 16, 1024, 1 << 16]))
@example(a=3, b=7, m=16)
@example(a=P61 - 1, b=P61 - 1, m=1024)
@example(a=1, b=0, m=3)
@settings(max_examples=50, deadline=None)
def test_batch_matches_scalar(a, b, m):
    h = PairwiseHash(a=a, b=b, p=P61, m=m)
    xs = np.array([0, 1, 13, 2**32, 2**60, P61 - 1], dtype=np.uint64)
    got = h.eval_batch(xs)
    assert got.tolist() == [h.eval(int(x)) for x in xs]


def test_batch_on_random_inputs():
    rng = np.random.default_rng(5)
    h = sample_hash(4096, rng)
    xs = rng.integers(0, P61, size=20_000, dtype=np.uint64)
    got = h.eval_batch(xs)
    probe = rng.integers(0, xs.size, size=200)
    for i in probe:
        assert got[i] == h.eval(int(xs[i]))


def test_domain_guards():
    h = PairwiseHash(a=2, b=0, p=P61, m=4)
    with pytest.raises(ValueError):
        h.eval(P61)
    with pytest.raises(ValueError):
        h.eval(-1)
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
        PairwiseHash(a=0, b=0, p=P61, m=8)
    with pytest.raises(ValueError):
        PairwiseHash(a=1, b=P61, p=P61, m=8)
    with pytest.raises(ValueError):
        PairwiseHash(a=1, b=0, p=P61 - 2, m=8)
    with pytest.raises(ValueError):
        PairwiseHash(a=1, b=0, p=P61, m=0)


def test_sample_determinism_and_serialization():
    h1 = sample_hash(64, np.random.default_rng(42))
    h2 = sample_hash(64, np.random.default_rng(42))
    assert (h1.a, h1.b) == (h2.a, h2.b)


def test_single_bucket_range():
    h = sample_hash(1, np.random.default_rng(0))
    for x in (0, 7, 2**40):
        assert h.eval(x) == 0


def test_chi_square_uniformity():
    """A random family member spreads 10^5 distinct inputs evenly over
    m = 64 buckets; reject only below significance 1e-4."""
    rng = np.random.default_rng(2024)
    h = sample_hash(64, rng)
    xs = np.arange(100_000, dtype=np.uint64)
    buckets = np.bincount(h.eval_batch(xs).astype(np.int64), minlength=64)
    result = stats.chisquare(buckets)
    assert result.pvalue > 1e-4, f"chi-square rejected: {result}"


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
