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
    want = [-1.0 if (r & c).bit_count() & 1 else 1.0
            for r, c in zip(rows.tolist(), cols.tolist())]
    assert got.tolist() == want


def test_accumulate_is_integer_valued_and_conserving():
    rng = np.random.default_rng(3)
    m = 256
    rows = rng.integers(0, m, size=10_000, dtype=np.uint64)
    cols = rng.integers(0, m, size=10_000, dtype=np.uint64)
    coins = rng.random(10_000)
    buf = np.zeros(m, dtype=np.float64)
    backend.accumulate_reports(buf, rows, cols, coins, 0.75)
    # one +-1 per user
    assert np.array_equal(buf, np.round(buf))
    assert abs(buf).sum() <= 10_000


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
