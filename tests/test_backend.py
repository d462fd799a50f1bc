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


def test_mulmod_limbs_match_big_integer_arithmetic():
    rng = np.random.default_rng(4)
    a_vals = [1, 2, P61 - 1, int(rng.integers(1, P61))]
    xs = np.array([0, 1, P61 - 1, 1 << 60, (1 << 61) - 2] +
                  list(rng.integers(0, P61, size=500)), dtype=np.uint64)
    for a in a_vals:
        got = backend._mulmod_p61(np.uint64(a), xs)
        assert got.tolist() == [(a * int(x)) % P61 for x in xs]


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
                  (2, 3, 8192), (0, 8192)])


@pytest.mark.parametrize("shape", FWHT_SHAPES)
def test_fwht_is_bit_identical_to_the_pass_by_pass_loop(shape):
    # real-valued input, so every rounding of every add must match
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    want = x.copy()
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert np.array_equal(x, want)


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
