"""Pairwise-independent hashing by vector multiply-shift.

h(x) = ((a1*x_lo + a2*x_hi + b) mod 2^64) >> (64 - l) into the range
m = 2^l, where x_lo and x_hi are the 32-bit limbs of a 64-bit key x and
a1, a2 and b are uniform 64-bit words (Dietzfelbinger, STACS 1996;
Thorup, "High Speed Hashing for Integers and Strings", 2015).  With
w = 32-bit limbs in W = 64-bit words the family is strongly universal
into [2^l] for l <= W - w + 1 = 33: any two distinct keys land on a
pair of values that is exactly uniform over [m]^2.  `PairwiseHash`
refuses any range m but a power of two from 1 up to `MAX_RANGE` = 2^32,
inside that bound, so no build can be handed another: the Hadamard
transform that every server state goes through needs a power of two.
Every hash is evaluated by `backend`: a build's through
`backend.hash_eval`, once per chunk of users with each user's subset's
words, and every oracle read through `backend.hash_broadcast`, once
per element or block of elements against the k members' words.  The
tests hold both to an exact Python-int reference everywhere.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import backend

MAX_RANGE = 1 << 32  # the largest hash range m


def element_index(v, d):
    """v as a Python int in [0, d), for a scalar query.

    Accepts Python and numpy integers; anything else (a float such as 1.5
    included) raises ValueError rather than being truncated.
    """
    try:
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"element {v!r} is not an integer") from None
    if not 0 <= v < d:
        raise ValueError(f"element {v} outside [0, {d})")
    return v


def element_array(elements, d):
    """elements as a contiguous uint64 array in [0, d), for a build or batch.

    Accepts 1-D integer arrays and lists of ints; any other shape (a 0-d
    scalar included), a float or bool dtype, a negative value or one at or
    above d raises ValueError rather than being truncated, wrapped or
    broadcast.  An empty 1-D input of any dtype is an empty array.
    """
    vs = np.asarray(elements)
    if vs.ndim != 1:
        raise ValueError(f"elements must be a 1-D array, got shape {vs.shape}")
    if vs.size == 0:
        return np.empty(0, dtype=np.uint64)
    if vs.dtype.kind not in "iu":
        raise ValueError(f"elements must be integers, got dtype {vs.dtype}")
    if int(vs.min()) < 0 or int(vs.max()) >= d:
        raise ValueError(f"elements must lie in [0, {d})")
    return np.ascontiguousarray(vs, dtype=np.uint64)


@dataclass(frozen=True)
class PairwiseHash:
    """One member of the family: its three 64-bit words and its range m."""

    a1: int
    a2: int
    b: int
    m: int

    def __post_init__(self):
        if not all(0 <= w < 1 << 64 for w in (self.a1, self.a2, self.b)):
            raise ValueError(f"words must lie in [0, 2^64), got {self}")
        if self.m < 1 or self.m & (self.m - 1):
            raise ValueError(f"hash range {self.m} is not a power of two")
        if self.m > MAX_RANGE:
            raise ValueError(f"hash range {self.m} is above 2^32")

    # no caller in the package: perfbench/tracer.py wraps it, and the
    # tests use it to hash a batch with one function
    def eval_batch(self, xs):
        """Vectorized evaluation of a 1-D array of 64-bit keys."""
        return backend.hash_broadcast(
            element_array(xs, 1 << 64), np.uint64(self.a1),
            np.uint64(self.a2), np.uint64(self.b), self.m)
