"""Vectorized numpy kernels for the inner loops that dominate runtime.

The loops are the Walsh-Hadamard butterfly passes, the Hadamard sign
lookup, the server's scatter-add of reports, and pairwise-hash evaluation
mod 2^61 - 1.  Each kernel is deterministic and exact: the hash does
32-bit-limb arithmetic in uint64, and the server's sums are int32.

Both builds, the hashed oracle's and the domain table's, add their reports
through the one `accumulate_reports`, once per chunk of users, into a
flat buffer of int32 sums of +-1.  The hash runs in blocks of 2^13
elements through one preallocated scratch of five block-sized rows, every
limb step in place, so a call allocates its output and 320 KiB, whatever
its size; its coefficients broadcast, per user in a build and per row in
a query.

A build allocates its zeroed float64 output and keeps the int32 sums in
the low half of those bytes (`int32_sums`).  A Hadamard transform of
integers whose absolute values add up to at most n has every intermediate
bounded by n, so with n < 2^31 users the int32 transform is exact, as
the float64 one is below 2^53; it moves half the bytes.  `widen_sums`
then writes float64(sum) * factor over the same allocation, so the
estimates equal, bit for bit, those of a float64 sum, transform and
scaling, and the build never holds more than its float64 output.

The transform is cache-blocked in the manner of the FFHT library (Andoni,
Indyk, Laarhoven, Razenshteyn and Schmidt, NeurIPS 2015).  A length-m row
is an R x C matrix with C = min(m, 4096), and H_m = H_R (x) H_C: the
passes of stride below C run inside each length-C block, the rest across
blocks.  One slab-panel routine runs both groups: it copies slabs of
the array, transposed so that the pass axis comes first, into a panel
buffer of max(C, R) x 32 elements (1 MiB of float64 up to m = 2^24),
taking as many rows of the array as fill the panel, runs the passes
there and copies the panel back.  Every panel of a group but its last
is full whatever the number and length of the rows, and the transform
sweeps memory twice instead of log2(m) times.  Every element meets the
same partners, in the same pass order, through the same a + b and
a - b as in the textbook pass-by-pass loop, so the output is
bit-identical to that loop on any float64 or int32 input.

Callers reach the kernels as attributes of this module (`backend.<name>`),
so a profiler can wrap them in place.
"""

import math

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_P61 = np.uint64((1 << 61) - 1)  # Mersenne prime 2^61 - 1, doubles as the low-61-bit mask
_U1 = np.uint64(1)
_U3 = np.uint64(3)
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


_PANEL = 32    # a panel holds max(C, R) x 32 elements
_BLOCK = 4096  # C: elements per block of a row
_FWHT_DTYPES = (np.dtype(np.float64), np.dtype(np.int32))


def fwht_inplace(x):
    """In-place Walsh-Hadamard transform of the last axis (rows for 2-D).

    View each row as an R x C matrix, C = min(m, 4096).  The low passes
    (stride h < C) pair elements within a row of that matrix, the high
    passes (h >= C) pair matrix rows C*h' apart.  `_panel_passes` runs
    both groups: the low passes along the middle axis of the view
    (blocks, C, 1), the high ones along that of (rows, R, C).  A pair
    (i, i + h) always becomes (x_i + x_{i+h}, x_i - x_{i+h}), and low
    passes precede high ones for every element, so the result equals
    that of running the passes h = 1, 2, ..., m/2 over the whole array,
    bit for bit.  The panel and one half-panel scratch, both of x's
    dtype, are the only allocations.  x is float64, or int32 whose
    absolute values along a row add up to less than 2^31 (then no
    intermediate overflows).
    """
    if x.dtype not in _FWHT_DTYPES or not x.flags.c_contiguous:
        raise ValueError("in-place transform needs a C-contiguous float64 "
                         "or int32 array")
    m = x.shape[-1]
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length {m} is not a power of two")
    c = min(m, _BLOCK)
    r = m // c
    panel = np.empty(max(c, r) * _PANEL, dtype=x.dtype)
    half = np.empty(panel.size // 2, dtype=x.dtype)
    _panel_passes(x.reshape(-1, c, 1), panel, half)
    if r > 1:
        _panel_passes(x.reshape(-1, r, c), panel, half)


def _panel_passes(v, panel, half):
    """Every butterfly pass along axis 1 of the 3-D view v = (outer, P, inner).

    Slabs of g x P x w elements, w = min(inner, panel.size // P) and
    g = panel.size // (P * w), are copied, transposed to P x g x w, into
    the panel, so every panel but a last partial one is full whatever
    the shape.  The passes run there, and the panel is copied back.
    """
    outer, p_len, inner = v.shape
    w = min(inner, panel.size // p_len)
    g = panel.size // (p_len * w)
    for i in range(0, outer, g):
        for j in range(0, inner, w):
            slab = v[i:i + g, :, j:j + w]
            p = panel[:slab.size].reshape(p_len, slab.shape[0], slab.shape[2])
            np.copyto(p, slab.transpose(1, 0, 2))
            _column_passes(p.reshape(p_len, -1), half)
            slab[...] = p.transpose(1, 0, 2)


def _column_passes(p, half):
    """Every butterfly pass down the columns of the contiguous 2-D panel p.

    Pass h' pairs panel rows h' apart, which in the flat buffer are the
    runs of h = h' * width elements; `half` holds each pass's differences.
    """
    v = p.reshape(-1)
    h = p.shape[1]
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        a = pairs[:, 0]
        b = pairs[:, 1]
        t = half[:v.size // 2].reshape(a.shape)
        np.subtract(a, b, out=t)
        a += b
        b[...] = t
        h *= 2


def hadamard_signs(rows, cols):
    """Vector of int8 +-1: sign is -1 iff popcount(row & col) is odd."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    cols = np.ascontiguousarray(cols, dtype=np.uint64)
    parity = (np.bitwise_count(rows & cols) & 1).astype(np.int8)
    return 1 - 2 * parity


_HASH_BLOCK = 1 << 13  # elements per block of the hash kernel


def hash_eval(xs, a, b, m):
    """((a*x + b) mod (2^61 - 1)) mod m, elementwise on uint64 inputs.

    xs, a and b broadcast against each other: per-user coefficients in a
    build, a scalar element against the k rows' coefficients in a query.
    Inputs must lie below 2^61 - 1.  The limb arithmetic runs in place on
    blocks of 2^13 elements, through one preallocated scratch, into the
    output; no step allocates a temporary the size of the input.
    """
    ops = [np.asarray(v, dtype=np.uint64) for v in (xs, a, b)]
    shape = np.broadcast(*ops).shape
    if len(shape) > 1:
        ops = [np.broadcast_to(v, shape).reshape(-1) for v in ops]
    out = np.empty(math.prod(shape), dtype=np.uint64)
    n = out.size
    scratch = np.empty((5, min(n, _HASH_BLOCK)), dtype=np.uint64)
    m = np.uint64(m)
    # an operand of size 1 broadcasts inside each block's ufuncs
    for lo in range(0, n, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, n)
        _hash_block(*(v if v.size == 1 else v[lo:hi] for v in ops),
                    m, out[lo:hi], scratch[:, :hi - lo])
    return out.reshape(shape)


def _hash_block(x, a, b, m, s, scratch):
    """One block of hash_eval, written into s.

    The 64 x 64-bit product goes through 32-bit limbs,
    a*x = t2*2^64 + t1*2^32 + t0, and every term is folded with
    2^61 == 1 (mod p): t2*2^64 == 8*t2, t1*2^32 == (t1 >> 29) +
    ((t1 & (2^29 - 1)) << 32) and t0 == (t0 >> 61) + (t0 & p).  With b
    added the sum stays below 2^64; one fold brings it below 2p, and one
    conditional subtraction of p, done with shifts and masks, below p.
    """
    a_hi, a_lo, x_hi, x_lo, t = scratch
    np.right_shift(a, _U32, out=a_hi)
    np.bitwise_and(a, _MASK32, out=a_lo)
    np.right_shift(x, _U32, out=x_hi)
    np.bitwise_and(x, _MASK32, out=x_lo)
    np.multiply(a_hi, x_lo, out=t)
    np.multiply(a_lo, x_hi, out=s)
    t += s                              # t1 < 2^62
    np.multiply(a_hi, x_hi, out=a_hi)   # t2 < 2^58
    np.multiply(a_lo, x_lo, out=a_lo)   # t0 < 2^64
    np.left_shift(a_hi, _U3, out=s)
    np.right_shift(t, _U29, out=x_hi)
    s += x_hi
    np.bitwise_and(t, _MASK29, out=t)
    np.left_shift(t, _U32, out=t)
    s += t
    np.right_shift(a_lo, _U61, out=x_hi)
    s += x_hi
    np.bitwise_and(a_lo, _P61, out=a_lo)
    s += a_lo
    s += b                              # < 2^63 + 2^34
    np.right_shift(s, _U61, out=t)
    np.bitwise_and(s, _P61, out=s)
    s += t                              # <= 2^61 + 3 < 2p
    # (s + 1) >> 61 is 1 exactly when s >= p, and then (s + 1) & p = s - p
    np.add(s, _U1, out=t)
    np.right_shift(t, _U61, out=t)
    s += t
    np.bitwise_and(s, _P61, out=s)
    if m & (m - _U1):
        np.remainder(s, m, out=s)
    else:
        np.bitwise_and(s, m - _U1, out=s)


def accumulate_reports(buf, rows, reports):
    """Server side: add user i's +-1 report into buf[rows[i]].

    An unbuffered scatter-add, so no temporary the size of buf.  The
    reports are cast to buf's dtype first: numpy's scatter-add of int8
    into int32 takes a slow mixed-dtype path, about 14x slower.  buf
    stays integer-valued, so the sum does not depend on user order.
    """
    np.add.at(buf, rows, np.asarray(reports, dtype=buf.dtype))


def int32_sums(shape):
    """Zeroed int32 sums of the given shape, stored in the low half of the
    bytes of a zeroed float64 array of that shape, which `widen_sums`
    turns them into."""
    out = np.zeros(shape, dtype=np.float64)
    return out.reshape(-1).view(np.int32)[:out.size].reshape(out.shape)


def widen_sums(sums, factor):
    """float64(sums) * factor, written over the float64 array that
    `int32_sums` stored sums in, which is returned.

    Element i's int32 is read from bytes [4i, 4i + 4) and its float64
    written to [8i, 8i + 8).  The blocks [ceil(s/2), s) go top down,
    s = size, ceil(size/2), ..., 2: a block's destination starts at byte
    8*ceil(s/2) >= 4s, above its own source and every source still to be
    read.  Element 0, whose float64 covers its int32, goes last through
    numpy's overlap-safe ufunc.  Each value is the float64 product that
    scaling a float64 copy of the sums gives, bit for bit.
    """
    out = sums.base
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and sums.dtype == np.int32 and out.size == sums.size
            and out.flags.c_contiguous and sums.flags.c_contiguous
            and out.ctypes.data == sums.ctypes.data):
        raise ValueError("sums must be the int32 view that int32_sums made")
    src = sums.reshape(-1)
    dst = out.reshape(-1)
    s = src.size
    while s > 1:
        lo = (s + 1) // 2
        np.multiply(src[lo:s], factor, out=dst[lo:s])
        s = lo
    np.multiply(src[:s], factor, out=dst[:s])
    return out.reshape(sums.shape)
