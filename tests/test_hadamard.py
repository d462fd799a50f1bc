import numpy as np
import pytest

from hadaldp import backend

import hadamard_reference as hadamard

H2 = np.array([[1, 1], [1, -1]])
H4 = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
])


def test_small_matrices_match_literals():
    assert np.array_equal(hadamard.hadamard_matrix(2), H2)
    assert np.array_equal(hadamard.hadamard_matrix(4), H4)


def test_entry_examples():
    assert hadamard.entry(4, 1, 1) == -1
    for j in range(8):
        assert hadamard.entry(8, 0, j) == 1
    # 011 & 101 = 001, odd parity
    assert hadamard.entry(8, 3, 5) == -1


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64, 128, 256])
def test_entry_matches_recursive_matrix(m):
    mat = hadamard.hadamard_matrix(m)
    idx = np.arange(m, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    via_entry = 1 - 2 * parity.astype(np.int64)
    assert np.array_equal(via_entry, mat)
    assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("m", [2, 4, 16, 64, 256])
def test_columns_orthogonal(m):
    mat = hadamard.hadamard_matrix(m).astype(np.int64)
    assert np.array_equal(mat @ mat, m * np.eye(m, dtype=np.int64))


def test_entry_rejects_bad_indices():
    with pytest.raises(ValueError):
        hadamard.entry(4, 4, 0)
    with pytest.raises(ValueError):
        hadamard.entry(4, 0, -1)
    with pytest.raises(ValueError):
        hadamard.entry(3, 0, 0)


def test_fht_basis_and_ones():
    assert np.array_equal(hadamard.fht(np.array([1.0, 0, 0, 0])),
                          np.array([1.0, 1, 1, 1]))
    assert np.array_equal(hadamard.fht(np.array([1.0, 1, 1, 1])),
                          np.array([4.0, 0, 0, 0]))


def test_naive_multiply_h2():
    a, b = 3.0, 7.0
    assert np.array_equal(hadamard.naive_multiply(2, np.array([a, b])),
                          np.array([a + b, a - b]))


@pytest.mark.parametrize("m", [1, 2, 8, 64, 512])
def test_fht_equals_naive_multiply(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        x = rng.integers(-1000, 1000, size=m).astype(np.float64)
        assert np.array_equal(hadamard.fht(x), hadamard.naive_multiply(m, x))


@pytest.mark.parametrize("m", [1, 4, 32, 1024])
def test_involution(m):
    rng = np.random.default_rng(m + 1)
    x = rng.integers(-50, 50, size=m).astype(np.float64)
    assert np.array_equal(hadamard.fht(hadamard.fht(x)), m * x)


def test_linearity_exact_on_integers():
    rng = np.random.default_rng(0)
    m = 128
    x = rng.integers(-100, 100, size=m).astype(np.float64)
    y = rng.integers(-100, 100, size=m).astype(np.float64)
    a, b = 5.0, -3.0
    assert np.array_equal(hadamard.fht(a * x + b * y),
                          a * hadamard.fht(x) + b * hadamard.fht(y))


def test_fht_inplace_works_on_matrix_rows():
    rng = np.random.default_rng(1)
    block = rng.integers(-9, 9, size=(5, 64)).astype(np.float64)
    expect = np.stack([hadamard.naive_multiply(64, row) for row in block])
    backend.fwht_inplace(block)
    assert np.array_equal(block, expect)


def test_fht_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hadamard.fht(np.zeros(3))
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(6, dtype=np.float64))
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(8, dtype=np.int64))


def test_is_power_of_two():
    assert hadamard.is_power_of_two(1)
    assert hadamard.is_power_of_two(4096)
    assert not hadamard.is_power_of_two(0)
    assert not hadamard.is_power_of_two(48)
