"""Exact brute-force references the tests hold the package to.

Two counting routes and one hash, none of them on a path the package
runs:

- `exact_frequency` counts in one streaming pass with a dict, a route
  independent of the package's sort-based `datasets.exact_counts`.  The
  tests check both routes against each other, and judge estimates
  against them.
- `exact_heavy_hitters` is the set of elements whose exact count clears
  a threshold.
- `multiply_shift` evaluates the hash family,
  h(x) = ((a1*x_lo + a2*x_hi + b) mod 2^64) >> (64 - log2 m), through
  Python's arbitrary-precision ints, taking the top bits as
  word * m // 2^64 rather than by a shift, so it is exact by
  construction; the kernels every build and read hashes through
  (`backend.hash_eval`, `backend.hash_broadcast`) are tested against
  it.
"""

import numpy as np

from hadaldp.datasets import Dataset, exact_counts


def _elements(data):
    if isinstance(data, Dataset):
        return data.elements
    return np.ascontiguousarray(data, dtype=np.uint64)


def exact_frequency(data):
    """Exact counts as {element: count}, one streaming pass with a dict."""
    counts = {}
    for v in _elements(data).tolist():
        counts[v] = counts.get(v, 0) + 1
    return counts


def exact_heavy_hitters(data, threshold):
    """Set of elements with exact count >= threshold."""
    values, counts = exact_counts(data)
    return {int(v) for v in values[counts >= threshold]}


def multiply_shift(a1, a2, b, m, x):
    """((a1*x_lo + a2*x_hi + b) mod 2^64) >> (64 - log2 m), in Python
    ints: x_lo and x_hi are x's 32-bit limbs, and m a power of two up to
    2^64 (m = 1 gives 0)."""
    x_hi, x_lo = divmod(int(x), 1 << 32)
    word = (a1 * x_lo + a2 * x_hi + b) % (1 << 64)
    return word * m // (1 << 64)
