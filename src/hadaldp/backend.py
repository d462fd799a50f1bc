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
blocked entry for a build: elements and per-user coefficients as 1-D
uint64 arrays of one length, run through the kernel in blocks of 2^13
elements with one preallocated scratch, so a call allocates its output
and 320 KiB, whatever its size.  The oracle's reads enter at the block
with limbs they already hold, once per read: a scalar query's element,
or a batch query's block of elements as a column, against the k rows'
coefficients.  When the high limb of every element of a call is zero,
three of the kernel's limb terms are zero, and it skips them; every
element and prefix of the benchmark workloads is below 2^32
(d <= 2^32), so they all take that path.  Every range m is a power of
two, so the last two reductions, mod p and mod m, are one mask.

The server state of both builds is the transform of those int32 sums.
A Hadamard transform of integers whose absolute values add up to at most
n has every intermediate bounded by n, so with n < 2^31 users the int32
transform is exact, as the float64 one is below 2^53, and it moves half
the bytes.  No kernel applies the debias factor: each state keeps its
cells as int32 and scales the cells a query reads, float64(cell) *
factor, which is bit for bit what a float64 sum, transform and scaling
would give.

The transform is cache-blocked in the manner of the FFHT library (Andoni,
Indyk, Laarhoven, Razenshteyn and Schmidt, NeurIPS 2015).  The log2(m)
bits of a row index are split into digits of at most six bits, as even
as possible (2^24 is 6+6+6+6, 2^20 is 5+5+5+5, 2^11 is 6+5), and the
passes of one digit are one group.  A digit of w bits starting at bit s
views the array as (outer, 2^w, 2^s), and its passes pair elements
down axis 1.  One slab-panel routine runs every group: it copies slabs
of that view, transposed so that the pass axis comes first, into a
panel of 1 MiB of the array's dtype (never more than the array), taking
as many rows of the array as fill it, runs the passes there and copies
the panel back.  Every panel of a group but its last is full whatever
the number and length of the rows, and the transform sweeps memory
ceil(log2(m) / 6) times, four at m = 2^24, where the pass-by-pass loop
sweeps it log2(m) times.

A panel has at most 64 rows, so an int32 one is 64 x 4096 and its passes
run on contiguous runs of at least 4096 elements.  That is the point of
the digits: numpy 2.4 buffers a two-operand ufunc on 2-D operands whose
contiguous runs are at most a third of its 8192-element buffer, and a
radix-2 pass over an int32 panel of 2^17 elements took 75-141 us at
runs of 32 to 2048 elements but 30-34 us at runs of 4096 or more (2-CPU
Xeon VM, numpy 2.4.6).  A float64 panel is 64 x 2048, so its first step
runs at 2048.  Inside a panel two passes are one radix-4 step, which
writes (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d) and (a-b)-(c-d), the very
sums of the two radix-2 passes in the same order, and needs no copy
back; a group of an odd number of passes ends in one radix-2 pass.

The slabs of a group are disjoint, so once the first group has eight or
more, the caller and a helper thread, when `second_worker` gives one,
share every group: each takes the group's next slab from one iterator
until none is left, and runs it in its own panel and half-panel.  A
worker that is slowed, say by another process on its CPU, then runs
fewer slabs, and the other does not wait for it at the group's end
for more than the slab it holds.  Every element meets the same
partners, in the same pass order, through the same a + b and a - b as
in the textbook pass-by-pass loop, so the output is bit-identical to
that loop on any float64 or int32 input, whoever runs which slab.

The package starts threads in one place, `second_worker`, and decides
whether to in one function, `_worker_count`: the CPUs the process may
run on (its affinity, so `taskset -c 0` keeps a run on one), capped at
two.  A caller names the work it would split; it gets a one-thread
executor only when it wants one and two CPUs are free, and otherwise
None, and then runs everything itself.  The executor starts its thread
at the first submit and joins it when the block exits, an exception
included, so a call starts at most one thread and leaves none behind.
One caller uses it: `fwht_inplace`, which shares every group with the
helper once the first group has 2 * _MIN_RUN slabs.  On a 2-CPU Xeon VM
(numpy 2.4.6), 30 alternated transforms of a 2^24 int32 table took
178 ms [174, 201] at the median [quartiles] on one worker and 114 ms
[105, 133] on two.  The builds draw their rows and coins inline: a
helper drawing a chunk ahead made the oracle build slower, a median of
37.1 ms on two workers against 35.4 ms on one over 40 alternated
builds, and held more memory.

Callers reach the kernels as attributes of this module (`backend.<name>`),
so a profiler can wrap them in place.
"""

import contextlib
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


_PANEL_BYTES = 1 << 20  # a worker's panel: 1 MiB of the array's dtype
_DIGIT = 6              # most passes in one group: bits of a digit
_MIN_RUN = 4            # slabs per worker in the first group to share it
_FWHT_DTYPES = (np.dtype(np.float64), np.dtype(np.int32))


def fwht_inplace(x):
    """In-place Walsh-Hadamard transform of the last axis (rows for 2-D).

    The log2(m) bits of a row index are split, low to high, into
    ceil(log2(m) / 6) digits of as even a width as possible (24 bits are
    6+6+6+6, 20 are 5+5+5+5, 11 are 6+5).  The passes of digit k, whose
    bits are s .. s+w-1, pair elements within each column of the view
    (outer, 2^w, 2^s); that view's `_slabs` are one group, and
    `_slab_passes` runs every pass of the group on each slab.  A pair
    (i, i + h) always becomes (x_i + x_{i+h}, x_i - x_{i+h}), and the
    digits run low to high, so every element goes through the passes
    h = 1, 2, ..., m/2 in the textbook order, and the result equals that
    of running them over the whole array, bit for bit.

    When the first group has at least 2 * _MIN_RUN slabs and
    `second_worker` gives a helper, the caller and the helper share each
    group: both run `_slab_passes` on one iterator over the group's
    slabs, so each takes the next slab when it is done with its last
    (`next` of a list iterator is atomic under the GIL).  The groups run
    one after the other.  The helper calls only
    `_slab_passes`, which calls only `_column_passes` and numpy, whose
    copies and arithmetic release the GIL.  A panel of 1 MiB of x's
    dtype, or of x's size if that is smaller, and a half-panel per worker
    are the only allocations.  x is float64, or int32 whose absolute
    values along a row add up to less than 2^31 (then no intermediate
    overflows).
    """
    if x.dtype not in _FWHT_DTYPES or not x.flags.c_contiguous:
        raise ValueError("in-place transform needs a C-contiguous float64 "
                         "or int32 array")
    m = x.shape[-1]
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length {m} is not a power of two")
    bits = m.bit_length() - 1
    if bits == 0 or x.size == 0:
        return
    n_digits = -(-bits // _DIGIT)
    size = min(x.size, _PANEL_BYTES // x.itemsize)
    groups = []
    inner = 1
    for k in range(n_digits):
        width = bits // n_digits + (k < bits % n_digits)
        groups.append(_slabs(x.reshape(-1, 1 << width, inner), size))
        inner <<= width
    mine = np.empty(size, x.dtype), np.empty(size // 2, x.dtype)
    with second_worker(len(groups[0]) >= 2 * _MIN_RUN) as helper:
        if helper is None:
            for slabs in groups:
                _slab_passes(slabs, *mine)
            return
        theirs = np.empty(size, x.dtype), np.empty(size // 2, x.dtype)
        for slabs in groups:
            shared = iter(slabs)
            pending = helper.submit(_slab_passes, shared, *theirs)
            _slab_passes(shared, *mine)
            pending.result()


def second_worker(wanted):
    """A context whose block gets a one-thread executor when `wanted` and
    `_worker_count()` is 2, else None; the one place the package starts
    a thread, and `fwht_inplace` its one caller.

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
    each holds whole columns along axis 1, the pass axis.  With P at
    most 2^6, a panel of 2^18 int32 elements (1 MiB) holds at least
    4096 of those columns, so `_column_passes` runs on runs of 4096 or
    more.
    """
    outer, p_len, inner = v.shape
    w = min(inner, size // p_len)
    g = size // (p_len * w)
    return [v[i:i + g, :, j:j + w]
            for i in range(0, outer, g) for j in range(0, inner, w)]


def _slab_passes(slabs, panel, half):
    """Every butterfly pass along axis 1 of each slab of the iterable
    slabs, in turn.

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
    runs of h = h' * width elements.  Two passes at a time are one radix-4
    step on the quarters a, b, c, d of each block of 4h: it writes
    (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d) and (a-b)-(c-d), the same
    sums in the same order as the passes h and 2h, with (a-b) and (c-d)
    in the two quarters of `half`, so no step copies back.  A group with
    an odd number of passes ends in one radix-2 pass.
    """
    v = p.reshape(-1)
    h = p.shape[1]
    while 4 * h <= v.size:
        a, b, c, d = v.reshape(-1, 4, h).swapaxes(0, 1)
        t, u = half[:v.size // 2].reshape(2, *a.shape)
        np.subtract(a, b, out=t)    # t = a-b
        a += b                      # a = a+b
        np.subtract(c, d, out=u)    # u = c-d
        np.add(c, d, out=b)         # b = c+d
        np.subtract(a, b, out=c)    # c = (a+b)-(c+d)
        a += b                      # a = (a+b)+(c+d)
        np.add(t, u, out=b)         # b = (a-b)+(c-d)
        np.subtract(t, u, out=d)    # d = (a-b)-(c-d)
        h *= 4
    if h < v.size:                  # one pass left: h = v.size / 2
        a, b = v.reshape(2, h)
        t = half[:h]
        np.subtract(a, b, out=t)
        a += b
        b[...] = t


def hadamard_signs(rows, cols):
    """Vector of int8 +-1: sign is -1 iff popcount(row & col) is odd."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    cols = np.ascontiguousarray(cols, dtype=np.uint64)
    parity = (np.bitwise_count(rows & cols) & 1).astype(np.int8)
    return 1 - 2 * parity


_HASH_BLOCK = 1 << 13  # elements per block of the hash kernel


def hash_eval(xs, a, b, m):
    """((a*x + b) mod (2^61 - 1)) mod m for each x of xs and its own a and
    b: the build's per-user hash.

    xs, a and b are 1-D uint64 arrays of one length, every value below
    2^61 - 1, and m is a power of two.  This is the blocked entry of the
    kernel: it splits the operands' 32-bit limbs into one preallocated
    scratch and runs `hash_block` once per block of 2^13 elements, into
    the output; no step allocates a temporary the size of the input.
    """
    out = np.empty(xs.size, dtype=np.uint64)
    scratch = np.empty((5, min(xs.size, _HASH_BLOCK)), dtype=np.uint64)
    for lo in range(0, xs.size, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, xs.size)
        rows = scratch[:, :hi - lo]
        hash_block(split_limbs(xs[lo:hi], rows[2], rows[3]),
                   split_limbs(a[lo:hi], rows[0], rows[1]),
                   b[lo:hi], m, out[lo:hi], rows)
    return out


def split_limbs(v, hi=None, lo=None):
    """v's 32-bit limbs (v >> 32, v & (2^32 - 1)), written into the arrays
    hi and lo if given."""
    return np.right_shift(v, _U32, out=hi), np.bitwise_and(v, _MASK32, out=lo)


def hash_block(x, a, b, m, s, rows):
    """The hash kernel on one block, written into s.

    x and a come as their 32-bit limbs (hi, lo), each a pair of arrays
    that broadcast to s's shape or of Python ints; b is such an array,
    and m a power of two as a Python int.  `hash_eval` calls this once
    per block; an oracle read calls it once, with one element's limbs,
    or the D x 1 columns of a block's, against the k rows' coefficients,
    into k or D x k cells.  The 64 x 64-bit product
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
    that path.  The final reductions mod p and mod m are one mask,
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

