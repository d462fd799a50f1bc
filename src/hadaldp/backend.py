"""Vectorized numpy kernels for the inner loops that dominate runtime.

The loops are the Walsh-Hadamard butterfly passes, the Hadamard sign
lookup, the server's scatter-add of reports, and pairwise-hash evaluation
mod 2^61 - 1.  Each kernel is deterministic and exact: the hash does
32-bit-limb arithmetic in uint64, and the server's sums are int32.

Both builds, the hashed oracle's and the domain table's, add their reports
through the one `accumulate_reports`, once per chunk of users, into a
flat buffer of int32 sums of +-1.

The hash has one formula, in one kernel, `hash_block`, which takes its
element and coefficient operands already split into 32-bit limbs and
runs every limb step in place in a five-row scratch.  `hash_eval` is its
blocked entry for arrays: it runs the kernel on blocks of 2^13 elements
through one preallocated scratch, so a call allocates its output and
320 KiB, whatever its size; its coefficients broadcast, per user in a
build.  An operand of size 1 is a numpy scalar whose limbs are split
once per call, so its multiplies run array x scalar and no row of the
scratch is filled with copies of it.  The oracle's reads enter at the
block with limbs they already hold and skip that set-up, once per read:
a scalar query's element, or a batch query's block of elements as a
column, against the k rows' coefficients.  When the high limb of every
element of a call is zero, three of the kernel's limb terms are zero,
and it skips them; every element and prefix of the benchmark workloads
is below 2^32 (d <= 2^32), so they all take that path.  For a
power-of-two range m the last two reductions, mod p and mod m, are one
mask.

The server state of both builds is the transform of those int32 sums.
A Hadamard transform of integers whose absolute values add up to at most
n has every intermediate bounded by n, so with n < 2^31 users the int32
transform is exact, as the float64 one is below 2^53, and it moves half
the bytes.  No kernel applies the debias factor: each state keeps its
cells as int32 and scales the cells a query reads, float64(cell) *
factor, which is bit for bit what a float64 sum, transform and scaling
would give.

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
sweeps memory twice instead of log2(m) times.  The slabs of a group are
disjoint, so a group of eight or more is split in contiguous halves,
the first run by the caller and the second by a helper thread when
`second_worker` gives one, each with its own panel and half-panel.
Every element meets the same partners, in the same pass order, through
the same a + b and a - b as in the textbook pass-by-pass loop, so the
output is bit-identical to that loop on any float64 or int32 input,
whether or not the group is split.

The package starts threads in one place, `second_worker`, and decides
whether to in one function, `_worker_count`: the CPUs the process may
run on (its affinity, so `taskset -c 0` keeps a run on one), capped at
two.  A caller names the work it would split; it gets a one-thread
executor only when it wants one and two CPUs are free, and otherwise
None, and then runs everything itself.  The executor starts its thread
at the first submit and joins it when the block exits, an exception
included, so a call starts at most one thread and leaves none behind.
Two callers use it, each above its own threshold: `fwht_inplace` runs
half of every group on the helper once the first group has
2 * _MIN_RUN slabs, and `hrr.ingest`, in a build of more than one
chunk, draws each next chunk's rows and coins there while the caller
works on the current one.  On a 2-CPU VM, pinning the benchmark to one
CPU took the oracle build, whose one-panel transform is not split and
so has only the draw-ahead, from 3.3e7 to 2.7e7 users/s, and the 2^24
table's build, which has both, from 5.2e6 to 3.3e6.

Callers reach the kernels as attributes of this module (`backend.<name>`),
so a profiler can wrap them in place.
"""

import contextlib
import math
import os
from concurrent import futures

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_P61_INT = (1 << 61) - 1  # Mersenne prime 2^61 - 1, doubles as the low-61-bit mask
_P61 = np.uint64(_P61_INT)
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
_MIN_RUN = 4   # fewest slabs a worker of a split group runs
_FWHT_DTYPES = (np.dtype(np.float64), np.dtype(np.int32))


def fwht_inplace(x):
    """In-place Walsh-Hadamard transform of the last axis (rows for 2-D).

    View each row as an R x C matrix, C = min(m, 4096).  The low passes
    (stride h < C) pair elements within a row of that matrix, the high
    passes (h >= C) pair matrix rows C*h' apart.  Each group is a list of
    disjoint slabs, `_slabs` of the view (blocks, C, 1) for the low
    passes and of (rows, R, C) for the high ones, and `_slab_passes` runs
    every pass of the group on each slab.  A pair (i, i + h) always
    becomes (x_i + x_{i+h}, x_i - x_{i+h}), and low passes precede high
    ones for every element, so the result equals that of running the
    passes h = 1, 2, ..., m/2 over the whole array, bit for bit.

    When the low group has at least 2 * _MIN_RUN slabs and
    `second_worker` gives a helper, each group is split in contiguous
    halves: the caller runs the first while the helper runs the second.
    The groups run one after the other.  The helper calls only
    `_slab_passes`, which calls only `_column_passes` and numpy, whose
    copies and arithmetic release the GIL.  A panel and half-panel of x's
    dtype per worker are the only allocations.  x is float64, or int32
    whose absolute values along a row add up to less than 2^31 (then no
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
    size = max(c, r) * _PANEL
    groups = [_slabs(x.reshape(-1, c, 1), size)]
    if r > 1:
        groups.append(_slabs(x.reshape(-1, r, c), size))
    mine = np.empty(size, x.dtype), np.empty(size // 2, x.dtype)
    with second_worker(len(groups[0]) >= 2 * _MIN_RUN) as helper:
        if helper is None:
            for slabs in groups:
                _slab_passes(slabs, *mine)
            return
        theirs = np.empty(size, x.dtype), np.empty(size // 2, x.dtype)
        for slabs in groups:
            half = len(slabs) // 2
            pending = helper.submit(_slab_passes, slabs[half:], *theirs)
            _slab_passes(slabs[:half], *mine)
            pending.result()


def second_worker(wanted):
    """A context whose block gets a one-thread executor when `wanted` and
    `_worker_count()` is 2, else None; the one place the package starts
    a thread.

    The thread starts at the executor's first submit and is joined when
    the block exits, also by an exception; an exception in the helper
    re-raises from its future's result().
    """
    if wanted and _worker_count() == 2:
        return futures.ThreadPoolExecutor(1)
    return contextlib.nullcontext()


def _worker_count():
    """The CPUs this process may run on, capped at two: the one policy
    of `second_worker`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _slabs(v, size):
    """The slabs of the 3-D view v = (outer, P, inner), in order.

    A slab is g x P x w elements, w = min(inner, size // P) and
    g = size // (P * w), so it fills a panel of `size` elements, but for
    a last partial one, whatever the shape.  The slabs are disjoint and
    each holds whole columns along axis 1, the pass axis.
    """
    outer, p_len, inner = v.shape
    w = min(inner, size // p_len)
    g = size // (p_len * w)
    return [v[i:i + g, :, j:j + w]
            for i in range(0, outer, g) for j in range(0, inner, w)]


def _slab_passes(slabs, panel, half):
    """Every butterfly pass along axis 1 of each slab, in turn.

    A slab is copied, transposed to P x g x w, into the panel, the
    passes run there, and the panel is copied back.
    """
    for slab in slabs:
        p_len = slab.shape[1]
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
    build, one function's (a, b) against many elements in
    `PairwiseHash.eval_batch`.  Inputs must lie below 2^61 - 1.  This is
    the blocked entry of the kernel: it splits the operands' 32-bit limbs
    into one preallocated scratch and runs `hash_block` once per block of
    2^13 elements, into the output; no step allocates a temporary the size
    of the input.  An operand of size 1 is taken as a numpy scalar, its
    limbs split once per call, so its multiplies run array x scalar in
    every block.
    """
    ops = [np.asarray(v, dtype=np.uint64) for v in (xs, a, b)]
    shape = np.broadcast(*ops).shape
    if len(shape) > 1:
        ops = [v if v.size == 1 else np.broadcast_to(v, shape).reshape(-1)
               for v in ops]
    x, a, b = (v.reshape(-1)[0] if v.size == 1 else v for v in ops)
    x_limbs, a_limbs = (split_limbs(v) if v.ndim == 0 else None
                        for v in (x, a))
    out = np.empty(math.prod(shape), dtype=np.uint64)
    n = out.size
    scratch = np.empty((5, min(n, _HASH_BLOCK)), dtype=np.uint64)
    m = int(m)
    for lo in range(0, n, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, n)
        rows = scratch[:, :hi - lo]
        hash_block(x_limbs or split_limbs(x[lo:hi], rows[2], rows[3]),
                   a_limbs or split_limbs(a[lo:hi], rows[0], rows[1]),
                   b if b.ndim == 0 else b[lo:hi], m, out[lo:hi], rows)
    return out.reshape(shape)


def split_limbs(v, hi=None, lo=None):
    """v's 32-bit limbs (v >> 32, v & (2^32 - 1)), written into the arrays
    hi and lo if given."""
    return np.right_shift(v, _U32, out=hi), np.bitwise_and(v, _MASK32, out=lo)


def hash_block(x, a, b, m, s, rows):
    """The hash kernel on one block, written into s.

    x and a come as their 32-bit limbs (hi, lo), each a pair of arrays
    that broadcast to s's shape or of scalars (numpy or Python ints); b
    is such an array or a scalar, and m a Python int.  `hash_eval` calls
    this once per block; an oracle read calls it once, with one
    element's limbs, or the D x 1 columns of a block's, against the k
    rows' coefficients, into k or D x k cells.  The 64 x 64-bit product
    goes through the limbs, a*x = t2*2^64 + t1*2^32 + t0, and every term is folded with
    2^61 == 1 (mod p): t2*2^64 == 8*t2,
    t1*2^32 == (t1 >> 29) + ((t1 & (2^29 - 1)) << 32) and
    t0 == (t0 >> 61) + (t0 & p).  With b added the sum stays below 2^64;
    one fold brings it below 2p, and one conditional subtraction of p,
    done with shifts and masks, below p.

    When x's high limb is zero (an element below 2^32, or a block whose
    elements all are) a_lo*x_hi and t2 = a_hi*x_hi are zero, so those
    two products, their adds and the shift of t2 are skipped; every
    element and prefix of the benchmark workloads (d <= 2^32) takes
    that path.  For a
    power-of-two m the final reductions mod p and mod m are one mask,
    (m - 1) & p: m - 1 up to m = 2^61, and p above it, where s < p < m
    already.

    Rows 0 and 1 hold a's limbs if a is a block, then t2 and t0; rows 2
    and 3 x's limbs if x is a block, then row 2 the fold's terms; row 4
    is t1.  Only rows 0, 1, 2 and 4 are written.
    """
    (x_hi, x_lo), (a_hi, a_lo) = x, a
    t2, t0, u, _, t = rows
    np.multiply(a_hi, x_lo, out=t)
    if np.count_nonzero(x_hi) if isinstance(x_hi, np.ndarray) else x_hi:
        np.multiply(a_lo, x_hi, out=s)
        t += s                          # t1 < 2^62
        np.multiply(a_hi, x_hi, out=t2)     # t2 < 2^58
        np.left_shift(t2, _U3, out=s)
        np.right_shift(t, _U29, out=u)
        s += u
    else:                               # t1 = a_hi*x_lo, t2 = 0
        np.right_shift(t, _U29, out=s)
    np.multiply(a_lo, x_lo, out=t0)     # t0 < 2^64
    np.bitwise_and(t, _MASK29, out=t)
    np.left_shift(t, _U32, out=t)
    s += t
    np.right_shift(t0, _U61, out=u)
    s += u
    np.bitwise_and(t0, _P61, out=t0)
    s += t0
    s += b                              # < 2^63 + 2^34
    np.right_shift(s, _U61, out=t)
    np.bitwise_and(s, _P61, out=s)
    s += t                              # <= 2^61 + 3 < 2p
    # (s + 1) >> 61 is 1 exactly when s >= p, and then (s + 1) & p = s - p
    np.add(s, _U1, out=t)
    np.right_shift(t, _U61, out=t)
    s += t
    if m & (m - 1):
        np.bitwise_and(s, _P61, out=s)
        np.remainder(s, m, out=s)
    else:
        np.bitwise_and(s, (m - 1) & _P61_INT, out=s)
    return s


def accumulate_reports(buf, rows, reports):
    """Server side: add user i's +-1 report into buf[rows[i]].

    An unbuffered scatter-add, so no temporary the size of buf.  The
    reports are cast to buf's dtype first: numpy's scatter-add of int8
    into int32 takes a slow mixed-dtype path, about 14x slower.  buf
    stays integer-valued, so the sum does not depend on user order.
    """
    np.add.at(buf, rows, np.asarray(reports, dtype=buf.dtype))

