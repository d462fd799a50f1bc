"""User partitioning for the repetition-based oracles.

Each user joins a uniformly random subset of [0, k), i.i.d.; subset sizes
fluctuate around n/k.

A partition holds `assignment`, a subset per user in the narrowest type
that holds k - 1, and k.  The builds read only `assignment`; the subset
sizes are counted from it when asked for, so taking a partition costs
its draw and nothing else.  The draw makes no n-long int64 array.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Partition:
    # assignment[u] = subset of user u, in the narrowest type that holds k - 1
    assignment: np.ndarray
    k: int

    # read by members() and the tests; no build reads it
    @property
    def sizes(self):
        """int64, len k: sizes[j] = |subset j|, counted on each read."""
        return np.bincount(self.assignment, minlength=self.k).astype(
            np.int64, copy=False)

    # no caller in the package, whose builds read `assignment`:
    # perfbench/tracer.py wraps it, and the tests group users with it
    def members(self):
        """Index arrays of each subset, users in increasing order."""
        # a stable argsort is a radix sort on 8- and 16-bit keys
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        return [order[bounds[j]:bounds[j + 1]] for j in range(self.k)]


_CHUNK = 1 << 16  # users per draw of `take_partition`


def take_partition(n, k, rng):
    """Subsets uniform in [0, k): the values of one n-long int64 draw from
    rng, drawn _CHUNK at a time and stored narrow, so that no n-long
    int64 array is made."""
    if n < 0:
        raise ValueError(f"user count must be non-negative, got {n}")
    if k < 1:
        raise ValueError(f"need at least one subset, got k={k}")
    assignment = np.empty(n, dtype=np.min_scalar_type(k - 1))
    for lo in range(0, n, _CHUNK):
        assignment[lo:lo + _CHUNK] = rng.integers(
            0, k, size=min(_CHUNK, n - lo), dtype=np.int64)
    return Partition(assignment=assignment, k=k)
