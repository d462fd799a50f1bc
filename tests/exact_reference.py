"""Exact brute-force references the tests hold the package to.

Two counting routes and one hash, none of them on a path the package
runs:

- `exact_frequency` counts in one streaming pass with a dict, a route
  independent of the package's sort-based `datasets.exact_counts`.  The
  tests check both routes against each other, and judge estimates
  against them.
- `exact_heavy_hitters` is the set of elements whose exact count clears
  a threshold.
- `pairwise_hash` evaluates h(x) = ((a*x + b) mod p) mod m, p = 2^61 - 1,
  through Python's arbitrary-precision ints with no clever reduction
  anywhere, so it is exact by construction; the limb kernel
  (`backend.hash_block`, `backend.hash_eval`) that every build and read
  hashes through is tested against it.
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


def pairwise_hash(a, b, m, x):
    """((a*x + b) mod (2^61 - 1)) mod m, in Python ints."""
    return ((a * int(x) + b) % ((1 << 61) - 1)) % m
