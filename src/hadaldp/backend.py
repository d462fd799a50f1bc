"""Vectorized numpy kernels for the inner loops that dominate runtime.

The loops are the Walsh-Hadamard butterfly passes, the Hadamard sign
lookup, the server's scatter-add of reports, and pairwise-hash evaluation
mod 2^61 - 1.  Each kernel is deterministic: accumulators hold
integer-valued float64 sums of +-1 (exact below 2^53), the butterflies pair
the same indices in the same order on every call, and the hash does exact
32-bit-limb arithmetic in uint64.

Callers reach the kernels as attributes of this module (`backend.<name>`),
so a profiler can wrap them in place.
"""

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_P61 = np.uint64((1 << 61) - 1)  # Mersenne prime 2^61 - 1, doubles as the low-61-bit mask
_U8 = np.uint64(8)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)


def get_backend():
    """Name of the kernel build; there is one, "numpy"."""
    return "numpy"


def set_backend(name):
    """Accept only "numpy", the one kernel build."""
    if name != "numpy":
        raise ValueError(f"unknown backend {name!r}; the only one is 'numpy'")


def fwht_inplace(x):
    """One in-place Walsh-Hadamard pass over the last axis (rows for 2-D)."""
    if x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError("in-place transform needs a C-contiguous float64 array")
    m = x.shape[-1]
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length {m} is not a power of two")
    flat = x.reshape(-1, m)
    h = 1
    while h < m:
        v = flat.reshape(-1, 2, h)
        t = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] += v[:, 1, :]
        v[:, 1, :] = t
        del t   # else the next pass's half-size temporary joins this one
        h *= 2


def hadamard_signs(rows, cols):
    """Vector of int8 +-1: sign is -1 iff popcount(row & col) is odd."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    cols = np.ascontiguousarray(cols, dtype=np.uint64)
    parity = (np.bitwise_count(rows & cols) & 1).astype(np.int8)
    return 1 - 2 * parity


def _mulmod_p61(a, x):
    # 64x64 multiply via 32-bit limbs, reduced with 2^61 == 1 (mod p).
    a_hi = a >> _U32
    a_lo = a & _MASK32
    x_hi = x >> _U32
    x_lo = x & _MASK32
    t0 = a_lo * x_lo                # < 2^64, exact in uint64
    t1 = a_hi * x_lo + a_lo * x_hi  # < 2^62
    t2 = a_hi * x_hi                # < 2^58
    s = (_U8 * t2
         + (t1 >> _U29) + ((t1 & _MASK29) << _U32)
         + (t0 >> _U61) + (t0 & _P61))
    s = (s >> _U61) + (s & _P61)
    s = (s >> _U61) + (s & _P61)
    return np.where(s >= _P61, s - _P61, s)


def hash_eval(xs, a, b, m):
    """Vectorized ((a*x + b) mod (2^61 - 1)) mod m on uint64 inputs."""
    x = np.ascontiguousarray(xs, dtype=np.uint64)
    s = _mulmod_p61(np.uint64(a), x) + np.uint64(b)
    s = (s >> _U61) + (s & _P61)
    s = np.where(s >= _P61, s - _P61, s)
    return s % np.uint64(m)


def accumulate_reports(buf, rows, reports):
    """Server side: add user i's +-1 report into buf[rows[i]].

    An unbuffered scatter-add, so no temporary the size of buf.  buf stays
    integer-valued, so the sum does not depend on user order.
    """
    np.add.at(buf, rows, np.asarray(reports, dtype=np.float64))
