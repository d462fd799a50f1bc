"""Pairwise-independent hashing h(x) = ((a*x + b) mod p) mod m, p = 2^61 - 1.

The Mersenne prime keeps the modular reduction branch-free (fold the high
bits back in, 2^61 == 1 mod p) and leaves room for domains up to 2^61.
Every hash is evaluated by the 32-bit-limb uint64 kernel
`backend.hash_block`: the oracle build through its blocked entry
`backend.hash_eval`, once per chunk of users with each user's subset's
(a, b); every oracle read once per element or block of elements, their
limbs against the k rows' (a, b) vectors, broadcast.  The tests hold the
kernel to an exact Python-int reference everywhere.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import backend

P61 = (1 << 61) - 1


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
    """One member of the affine family, fixed modulus p = 2^61 - 1."""

    a: int
    b: int
    m: int

    def __post_init__(self):
        if not 1 <= self.a < P61:
            raise ValueError(f"a must lie in [1, p), got {self.a}")
        if not 0 <= self.b < P61:
            raise ValueError(f"b must lie in [0, p), got {self.b}")
        if self.m < 1:
            raise ValueError(f"range m must be positive, got {self.m}")

    # no caller in the package: perfbench/tracer.py wraps it, and the
    # tests use it to hash a batch with one function
    def eval_batch(self, xs):
        """Vectorized evaluation of a uint64 array via the limb kernel."""
        xs = np.ascontiguousarray(xs, dtype=np.uint64)
        if xs.size and int(xs.max()) >= P61:
            raise ValueError("batch contains inputs outside [0, 2^61 - 1)")
        return backend.hash_eval(xs, self.a, self.b, self.m)


def sample_hash(m, rng):
    """Draw one function: a uniform in [1, p), b uniform in [0, p)."""
    a = int(rng.integers(1, P61))
    b = int(rng.integers(0, P61))
    return PairwiseHash(a=a, b=b, m=int(m))
