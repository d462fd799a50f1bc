import tracemalloc

import numpy as np
import pytest

from hadaldp import backend, hadamard
from hadaldp.hashing import P61


def test_numpy_is_the_only_build():
    assert backend.get_backend() == "numpy"
    backend.set_backend("numpy")
    with pytest.raises(ValueError):
        backend.set_backend("jit")


def test_signs_are_popcount_parity():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
    cols = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
    got = backend.hadamard_signs(rows, cols)
    want = [-1 if (r & c).bit_count() & 1 else 1
            for r, c in zip(rows.tolist(), cols.tolist())]
    assert got.dtype == np.int8 and got.tolist() == want


def test_accumulate_is_integer_valued_and_conserving():
    rng = np.random.default_rng(3)
    m = 256
    rows = rng.integers(0, m, size=10_000, dtype=np.uint64)
    reports = np.where(rng.random(10_000) < 0.75, 1, -1).astype(np.int8)
    buf = np.zeros(m, dtype=np.float64)
    backend.accumulate_reports(buf, rows, reports)
    want = np.zeros(m, dtype=np.int64)
    for r, x in zip(rows.tolist(), reports.tolist()):
        want[r] += x
    # one +-1 per user, summed exactly at its row
    assert buf.tolist() == want.tolist()
    assert buf.sum() == reports.sum()
    # the builds' int32 sums take the same int8 reports, exactly
    sums = np.zeros(m, dtype=np.int32)
    backend.accumulate_reports(sums, rows, reports)
    assert sums.dtype == np.int32 and sums.tolist() == want.tolist()


def test_mulmod_limbs_match_big_integer_arithmetic():
    rng = np.random.default_rng(4)
    a_vals = [1, 2, P61 - 1, int(rng.integers(1, P61))]
    xs = np.array([0, 1, P61 - 1, 1 << 60, (1 << 61) - 2] +
                  list(rng.integers(0, P61, size=500)), dtype=np.uint64)
    for a in a_vals:
        # b = 0 and a range of 2^61, above every residue, leave a*x mod p
        got = backend.hash_eval(xs, a, 0, 1 << 61)
        assert got.tolist() == [(a * int(x)) % P61 for x in xs]


HASH_XS = [0, 1, (1 << 32) - 1, (1 << 32) + 1, 1 << 60, (1 << 61) - 2]


def _exact_hash(x, a, b, m):
    return ((a * x + b) % P61) % m


@pytest.mark.parametrize("m", [1, 3, 1000, 4096])
@pytest.mark.parametrize("n", [(1 << 13) - 1, 1 << 13, (1 << 13) + 1,
                               3 * (1 << 13) + 5])
def test_hash_kernel_matches_big_integers_across_blocks(n, m):
    """Sizes around the 2^13-element block, in the three broadcast forms
    the package uses: per-element coefficients (a build), one function
    over many elements (a batch query), one element against a vector of
    functions (a scalar query over the k rows)."""
    rng = np.random.default_rng(n + m)
    xs = rng.integers(0, P61, size=n, dtype=np.uint64)
    xs[:len(HASH_XS)] = HASH_XS
    a = rng.integers(1, P61, size=n, dtype=np.uint64)
    b = rng.integers(0, P61, size=n, dtype=np.uint64)
    a[:3] = [1, P61 - 1, P61 - 1]
    b[:3] = [0, P61 - 1, 0]
    x_l, a_l, b_l = xs.tolist(), a.tolist(), b.tolist()

    got = backend.hash_eval(xs, a, b, m)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tolist() == [_exact_hash(*t, m) for t in zip(x_l, a_l, b_l)]
    for sa, sb in ((1, 0), (P61 - 1, P61 - 1), (a_l[5], b_l[5])):
        got = backend.hash_eval(xs, sa, sb, m)
        assert got.tolist() == [_exact_hash(x, sa, sb, m) for x in x_l]
    for x in HASH_XS:
        got = backend.hash_eval(np.uint64(x), a, b, m)
        assert got.tolist() == [_exact_hash(x, *t, m) for t in zip(a_l, b_l)]


def test_hash_kernel_shapes():
    assert backend.hash_eval(np.uint64(7), 3, 5, 16).shape == ()
    assert int(backend.hash_eval(np.uint64(7), 3, 5, 16)) == 26 % 16
    assert backend.hash_eval(np.empty(0, dtype=np.uint64), 3, 5, 16).shape == (0,)
    xs = np.arange(6, dtype=np.uint64).reshape(2, 3)
    got = backend.hash_eval(xs, np.array([1, 2, 3], dtype=np.uint64), 0, 1 << 61)
    assert got.tolist() == [[0, 2, 6], [3, 8, 15]]


def test_hash_kernel_memory_is_its_output_and_one_block_scratch():
    n = 1 << 20
    rng = np.random.default_rng(6)
    xs = rng.integers(0, P61, size=n, dtype=np.uint64)
    a = rng.integers(1, P61, size=n, dtype=np.uint64)
    b = rng.integers(0, P61, size=n, dtype=np.uint64)
    tracemalloc.start()
    try:
        out = backend.hash_eval(xs, a, b, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 << 20
    assert peak <= out.nbytes + (1 << 20)


def test_fwht_operand_validation():
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(3, dtype=np.float64))
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(8, dtype=np.float64)[::2])


def _reference_fwht(x):
    """The textbook loop: pass h = 1, 2, ..., m/2 over the whole array."""
    m = x.shape[-1]
    flat = x.reshape(-1, m)
    h = 1
    while h < m:
        v = flat.reshape(-1, 2, h)
        t = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] += v[:, 1, :]
        v[:, 1, :] = t
        h *= 2


FWHT_SHAPES = ([(r, m) for m in (1, 2, 2048, 4096, 8192)
                for r in (1, 31, 32, 33, 141)]
               + [(1 << 17,), (3, 1 << 17), (1 << 20,), (2, 3, 256),
                  (2, 3, 8192), (0, 8192),
                  # two slabs per row in the high passes; one partial panel
                  (24, 1 << 18), (7, 1 << 14)])


@pytest.mark.parametrize("shape", FWHT_SHAPES)
def test_fwht_is_bit_identical_to_the_pass_by_pass_loop(shape):
    # real-valued input, so every rounding of every add must match
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    want = x.copy()
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("shape", FWHT_SHAPES)
def test_int32_fwht_equals_the_float64_loop(shape):
    x = np.random.default_rng(sum(shape)).integers(-3, 4, size=shape,
                                                   dtype=np.int32)
    want = x.astype(np.float64)
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert x.dtype == np.int32 and np.array_equal(x, want)


def test_fwht_fills_its_panels_at_short_matrix_rows(monkeypatch):
    """At (24, 8192) each row is a 2 x 4096 matrix: the 48 blocks fill two
    panels of low passes and the 24 rows two panels of high passes."""
    calls = []
    column_passes = backend._column_passes

    def counted(p, half):
        calls.append(p.shape)
        column_passes(p, half)

    monkeypatch.setattr(backend, "_column_passes", counted)
    x = np.ones((24, 8192), dtype=np.int32)
    backend.fwht_inplace(x)
    assert (x[:, 0] == 8192).all() and not x[:, 1:].any()
    assert len(calls) <= 4, calls


def test_int32_fwht_is_exact_at_the_largest_sum():
    # |x| sums to 2^31 - 1, so every intermediate is +-(2^31 - 1)
    x = np.zeros(1 << 13, dtype=np.int32)
    x[0] = 2**31 - 1
    backend.fwht_inplace(x)
    assert (x == 2**31 - 1).all()
    x[:] = 0
    x[(1 << 13) - 1] = -(2**31 - 1)
    backend.fwht_inplace(x)
    assert np.array_equal(x, -(2**31 - 1) * np.array(
        [hadamard.entry(1 << 13, (1 << 13) - 1, j) for j in range(1 << 13)]))


@pytest.mark.parametrize("m", [1 << 13, 1 << 17, 1 << 20])
def test_fwht_two_level_involution_is_exact(m):
    x = np.random.default_rng(m).integers(-50, 51, size=m).astype(np.float64)
    assert np.array_equal(hadamard.fht(hadamard.fht(x)), m * x)


@pytest.mark.parametrize("m", [1 << 13, 1 << 20])
def test_fwht_of_a_basis_vector_is_a_matrix_row(m):
    rng = np.random.default_rng(5)
    i = m // 2 + 5   # bits set both below and above the 4096 block
    e = np.zeros(m)
    e[i] = 1.0
    got = hadamard.fht(e)
    for j in rng.integers(0, m, size=200).tolist():
        assert got[j] == hadamard.entry(m, i, j)


def test_fwht_memory_is_a_panel_not_a_half_array():
    x = np.ones(1 << 22)
    tracemalloc.start()
    try:
        backend.fwht_inplace(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x[0] == 1 << 22 and not x[1:].any()
    # a pass over the whole array would need a 16 MiB half-size temporary
    assert peak < 4 << 20


def test_int32_fwht_memory_is_a_panel_not_a_half_array():
    x = np.ones(1 << 22, dtype=np.int32)
    tracemalloc.start()
    try:
        backend.fwht_inplace(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x[0] == 1 << 22 and not x[1:].any()
    assert peak < 4 << 20

