import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaldp.prefixes import (PrefixCode, children_of, encode_prefix,
                              encode_prefix_batch, make_code)


def test_make_code_examples():
    code = make_code(16, 256)
    assert (code.branching, code.levels) == (4, 4)
    code = make_code(100_000, 1 << 32)
    assert (code.branching, code.levels) == (256, 4)
    assert make_code(7, 2).levels == 1
    assert make_code(2, 1_000_000).branching == 2


def test_make_code_guards():
    with pytest.raises(ValueError):
        make_code(0, 16)
    with pytest.raises(ValueError):
        make_code(16, 0)


def test_code_validation():
    for bad in (dict(branching=3), dict(branching=1), dict(levels=0),
                dict(domain=0), dict(levels=2, domain=100)):
        kw = dict(branching=4, levels=4, domain=256)
        kw.update(bad)
        with pytest.raises(ValueError):
            PrefixCode(**kw)


@given(n=st.integers(1, 10**12), d=st.integers(2, 1 << 61))
@settings(max_examples=200)
def test_levels_are_minimal(n, d):
    code = make_code(n, d)
    b, L = code.branching, code.levels
    assert b ** L >= d
    assert b ** (L - 1) < d
    assert b * b <= n or b == 2


def test_encode_walks_down_the_digits():
    code = make_code(16, 256)  # B = 4, L = 4
    assert [encode_prefix(27, t, code) for t in range(5)] == [0, 0, 1, 6, 27]
    assert encode_prefix(255, 4, code) == 255
    assert encode_prefix(255, 1, code) == 3


def test_encode_guards():
    code = make_code(16, 256)
    with pytest.raises(ValueError):
        encode_prefix(256, 2, code)
    with pytest.raises(ValueError):
        encode_prefix(-1, 2, code)
    with pytest.raises(ValueError):
        encode_prefix(27, 5, code)
    for tau in (-1, 0, code.levels + 1):
        with pytest.raises(ValueError):
            encode_prefix_batch(np.array([0], dtype=np.uint64), tau, code)


def test_batch_matches_scalar():
    """The batch encoder covers the levels the walk asks about, 1..L."""
    code = make_code(100_000, 1 << 32)
    rng = np.random.default_rng(0)
    vs = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
    for tau in range(1, code.levels + 1):
        batch = encode_prefix_batch(vs, tau, code)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [encode_prefix(int(v), tau, code) for v in vs]


def test_root_level_of_a_64_bit_code():
    # 8 digits x 8 bits fills the whole word: the scalar root is 0, and
    # the batch encoder's widest shift, at level 1, is 56, not 64
    code = PrefixCode(branching=256, levels=8, domain=(1 << 61) - 1)
    vs = np.array([0, 1, (1 << 61) - 2], dtype=np.uint64)
    assert encode_prefix(int(vs[-1]), 0, code) == 0
    assert encode_prefix_batch(vs, 1, code).tolist() == \
        [int(v) >> 56 for v in vs]
    with pytest.raises(ValueError):
        encode_prefix_batch(vs, 0, code)


def test_children_enumeration():
    code = make_code(16, 256)
    kids = children_of(np.array([0, 1], dtype=np.uint64), code)
    assert kids.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    root_kids = children_of(np.array([0], dtype=np.uint64), code)
    assert root_kids.tolist() == [0, 1, 2, 3]


@given(st.lists(st.integers(0, 255), min_size=1, max_size=80),
       st.integers(0, 255))
@settings(max_examples=100)
def test_prefix_counts_never_grow_with_depth(pool, v):
    """Counting occurrences of v's prefix at successive levels is
    non-increasing: everything matching a longer prefix also matched the
    shorter one."""
    code = make_code(16, 256)
    vs = np.array(pool, dtype=np.uint64)
    counts = [len(pool)]   # level 0: the root holds everyone
    for tau in range(1, code.levels + 1):
        p = encode_prefix(v, tau, code)
        counts.append(int((encode_prefix_batch(vs, tau, code) == p).sum()))
    assert counts == sorted(counts, reverse=True)
