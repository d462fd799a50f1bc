import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaldp import partition as pt


@given(n=st.integers(0, 400), k=st.integers(1, 32), seed=st.integers(0, 10**6),
       scheme=st.sampled_from(pt.SCHEMES))
@settings(max_examples=200, deadline=None)
def test_cover_and_disjoint(n, k, seed, scheme):
    part = pt.take_partition(n, k, scheme, np.random.default_rng(seed))
    assert part.k == k
    assert part.assignment.shape == (n,)
    assert part.assignment.dtype == np.min_scalar_type(k - 1)
    assert int(part.sizes.sum()) == n
    members = part.members()
    seen = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    assert sorted(seen.tolist()) == list(range(n))
    for j, idx in enumerate(members):
        assert (part.assignment[idx] == j).all()
        assert len(idx) == part.sizes[j]


@given(n=st.integers(0, 400), k=st.integers(1, 32), seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_permutation_spread_at_most_one(n, k, seed):
    part = pt.permutation_partition(n, k, np.random.default_rng(seed))
    spread = int(part.sizes.max() - part.sizes.min())
    assert spread <= 1
    if n % k == 0:
        assert spread == 0


@pytest.mark.parametrize("k,n", [(1, 300), (255, 3000), (256, 3000),
                                 (257, 3000), (65_537, 600)])
def test_members_are_sorted_groups_across_key_widths(k, n):
    """The assignment, which members() sorts on, has the narrowest type
    that holds k - 1; each group must still be exactly the users of that
    subset, in increasing order, on both sides of the 8- and 16-bit
    boundaries."""
    width = {1: 1, 255: 1, 256: 1, 257: 2, 65_537: 4}[k]
    for scheme in pt.SCHEMES:
        part = pt.take_partition(n, k, scheme, np.random.default_rng(k))
        assert part.assignment.dtype.itemsize == width
        members = part.members()
        assert len(members) == k
        for j, idx in enumerate(members):
            assert np.array_equal(idx, np.flatnonzero(part.assignment == j))
            assert (np.diff(idx) > 0).all()


def test_permutation_remainder_rule():
    sizes = pt.permutation_partition(12, 3, np.random.default_rng(0)).sizes
    assert sizes.tolist() == [4, 4, 4]
    sizes = pt.permutation_partition(13, 3, np.random.default_rng(0)).sizes
    assert sizes.tolist() == [5, 4, 4]


def test_permutation_assignment_is_pinned():
    # the permutation [2, 4, 3, 6, 5, 0, 1] cut into blocks of 3, 2, 2
    part = pt.permutation_partition(7, 3, np.random.default_rng(0))
    assert part.assignment.tolist() == [2, 2, 0, 0, 0, 1, 1]


def test_k_one_puts_everyone_in_subset_zero():
    for scheme in pt.SCHEMES:
        part = pt.take_partition(57, 1, scheme, np.random.default_rng(3))
        assert (part.assignment == 0).all()


def test_independent_sizes_concentrate():
    # binomial concentration: all 16 sizes within n/k +- 5*sqrt(n/k),
    # checked over 20 seeds (expected violations ~ 0 at 5 sigma)
    n, k = 100_000, 16
    violations = 0
    for seed in range(20):
        sizes = pt.independent_partition(n, k, np.random.default_rng(seed)).sizes
        slack = 5 * np.sqrt(n / k)
        violations += int((np.abs(sizes - n / k) > slack).any())
    assert violations <= 1


def test_permutation_marginal_uniformity():
    # Pr[user 0 lands in block j] should equal sizes[j] / n
    n, k = 13, 3
    hits = np.zeros(k)
    trials = 2000
    for seed in range(trials):
        part = pt.permutation_partition(n, k, np.random.default_rng(seed))
        hits[part.assignment[0]] += 1
    probs = hits / trials
    expect = np.array([5, 4, 4]) / n
    sigma = np.sqrt(expect * (1 - expect) / trials)
    assert (np.abs(probs - expect) <= 4 * sigma + 1e-9).all()


def test_fixed_seed_reproduces():
    for scheme in pt.SCHEMES:
        a = pt.take_partition(500, 7, scheme, np.random.default_rng(11))
        b = pt.take_partition(500, 7, scheme, np.random.default_rng(11))
        assert np.array_equal(a.assignment, b.assignment)
    # drawn 2^16 users at a time, the independent scheme's subsets are the
    # values of one n-long int64 draw, at n both below and past a chunk
    for n in (500, 2 * (1 << 16) + 5):
        part = pt.independent_partition(n, 24, np.random.default_rng(12))
        want = np.random.default_rng(12).integers(0, 24, size=n, dtype=np.int64)
        assert np.array_equal(part.assignment, want)
        assert np.array_equal(part.sizes, np.bincount(want, minlength=24))
    # held narrow, the permutation scheme's draw is rng.permutation(n)'s
    for n in (0, 1, 500, 2 * (1 << 16) + 5):
        part = pt.permutation_partition(n, 24, np.random.default_rng(13))
        want = np.empty(n, dtype=part.assignment.dtype)
        want[np.random.default_rng(13).permutation(n)] = np.repeat(
            np.arange(24, dtype=want.dtype), part.sizes)
        assert np.array_equal(part.assignment, want)


def test_guards():
    with pytest.raises(ValueError):
        pt.independent_partition(10, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        pt.permutation_partition(-1, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        pt.take_partition(10, 2, "rotation", np.random.default_rng(0))
