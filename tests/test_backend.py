import numpy as np
import pytest

from hadaldp import backend
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
