import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaldp import partition as pt


@given(n=st.integers(0, 400), k=st.integers(1, 32), seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_cover_and_disjoint(n, k, seed):
    part = pt.take_partition(n, k, np.random.default_rng(seed))
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


@pytest.mark.parametrize("k,n", [(1, 300), (255, 3000), (256, 3000),
                                 (257, 3000), (65_537, 600)])
def test_members_are_sorted_groups_across_key_widths(k, n):
    """The assignment, which members() sorts on, has the narrowest type
    that holds k - 1; each group must still be exactly the users of that
    subset, in increasing order, on both sides of the 8- and 16-bit
    boundaries."""
    width = {1: 1, 255: 1, 256: 1, 257: 2, 65_537: 4}[k]
    part = pt.take_partition(n, k, np.random.default_rng(k))
    assert part.assignment.dtype.itemsize == width
    members = part.members()
    assert len(members) == k
    for j, idx in enumerate(members):
        assert np.array_equal(idx, np.flatnonzero(part.assignment == j))
        assert (np.diff(idx) > 0).all()


def test_k_one_puts_everyone_in_subset_zero():
    part = pt.take_partition(57, 1, np.random.default_rng(3))
    assert (part.assignment == 0).all()


def test_independent_sizes_concentrate():
    # binomial concentration: all 16 sizes within n/k +- 5*sqrt(n/k),
    # checked over 20 seeds (expected violations ~ 0 at 5 sigma)
    n, k = 100_000, 16
    violations = 0
    for seed in range(20):
        sizes = pt.take_partition(n, k, np.random.default_rng(seed)).sizes
        slack = 5 * np.sqrt(n / k)
        violations += int((np.abs(sizes - n / k) > slack).any())
    assert violations <= 1


def test_fixed_seed_reproduces():
    a = pt.take_partition(500, 7, np.random.default_rng(11))
    b = pt.take_partition(500, 7, np.random.default_rng(11))
    assert np.array_equal(a.assignment, b.assignment)
    # drawn 2^16 users at a time, the subsets are the values of one
    # n-long int64 draw, at n both below and past a chunk
    for n in (500, 2 * (1 << 16) + 5):
        part = pt.take_partition(n, 24, np.random.default_rng(12))
        want = np.random.default_rng(12).integers(0, 24, size=n, dtype=np.int64)
        assert np.array_equal(part.assignment, want)
        assert np.array_equal(part.sizes, np.bincount(want, minlength=24))


def test_guards():
    with pytest.raises(ValueError):
        pt.take_partition(10, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        pt.take_partition(-1, 2, np.random.default_rng(0))
