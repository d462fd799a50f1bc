"""Walsh-Hadamard matrices of order 2^t and the fast transform.

The order-m matrix is defined recursively: H_1 = [1] and

    H_m = [[H_{m/2},  H_{m/2}],
           [H_{m/2}, -H_{m/2}]].

Equivalently, indexing rows and columns from 0, the (row, col) entry is
(-1)^popcount(row AND col): the parity of the AND of the binary index
vectors.  Both views are implemented here and tested against each other.

The fast transform, `backend.fwht_inplace`, runs the butterfly passes in
place along the last axis in O(m log m), cache-blocked so that its only
auxiliary space is a panel and half-panel per worker, at most two
workers: a panel of 1 MiB of the input's dtype, or of the input's size
if that is smaller, and half that again as scratch; `fht` applies it to
a float64 copy.  It runs on float64 or int32.  No intermediate exceeds
the sum of the input's absolute values, so on integer-valued float64
input it is exact while that sum stays below 2^53, and fht() of integer
vectors is exact: H(H(x)) == m*x holds with == rather than allclose.
The builds transform their int32 report sums in place, exact because
fewer than 2^31 users put that sum below 2^31.
"""

import numpy as np

from hadaldp import backend


def is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or not is_power_of_two(int(dim)):
        raise ValueError(f"dim must be a positive power of two, got {dim!r}")
    return int(dim)


def entry(dim, row, col):
    """Single matrix entry, +1 or -1, via the AND-parity formula."""
    dim = _check_dim(dim)
    row = int(row)
    col = int(col)
    if not (0 <= row < dim and 0 <= col < dim):
        raise ValueError(f"indices ({row}, {col}) out of range for dim {dim}")
    return -1 if (row & col).bit_count() & 1 else 1


def hadamard_matrix(dim):
    """Materialize H_dim by recursive doubling (int8). Test-scale only."""
    dim = _check_dim(dim)
    if dim > 8192:
        raise ValueError("refusing to materialize a matrix beyond 8192x8192")
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < dim:
        h = np.block([[h, h], [h, -h]])
    return h


def naive_multiply(dim, x):
    """O(m^2) transform straight from the entry formula; reference path.

    Deliberately independent of the butterfly code: the sign matrix comes
    from popcount parity on an index grid, not from fht().
    """
    dim = _check_dim(dim)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"expected a length-{dim} vector, got shape {x.shape}")
    idx = np.arange(dim, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]).astype(np.int64) & 1
    signs = (1 - 2 * parity).astype(np.float64)
    return signs @ x


def fht(x):
    """Fast transform of a copy of x; accepts anything float64-coercible."""
    out = np.array(x, dtype=np.float64, copy=True, order="C")
    backend.fwht_inplace(out)
    return out
