"""User partitioning for the repetition-based oracles.

Two schemes, chosen by name everywhere a partition is taken:

- "independent": each user joins a uniformly random subset, i.i.d.  Subset
  sizes fluctuate around n/k.
- "permutation": a uniformly random permutation is cut into k contiguous
  blocks.  Sizes are fixed: when k does not divide n, the first (n mod k)
  blocks take the extra user (ceil(n/k)), the rest get floor(n/k).
"""

from dataclasses import dataclass

import numpy as np

SCHEMES = ("independent", "permutation")


@dataclass(frozen=True)
class Partition:
    assignment: np.ndarray  # int64, assignment[u] = subset of user u
    sizes: np.ndarray       # int64, len k, sizes[j] = |subset j|
    scheme: str

    @property
    def k(self):
        return int(self.sizes.shape[0])

    def members(self):
        """Index arrays of each subset, users in increasing order."""
        # the narrowest key type that holds k - 1: a stable argsort is a
        # radix sort on 8- and 16-bit keys, with the same output
        keys = self.assignment.astype(np.min_scalar_type(self.k - 1))
        order = np.argsort(keys, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        return [order[bounds[j]:bounds[j + 1]] for j in range(self.k)]


def _check(n, k):
    if n < 0:
        raise ValueError(f"user count must be non-negative, got {n}")
    if k < 1:
        raise ValueError(f"need at least one subset, got k={k}")


def independent_partition(n, k, rng):
    _check(n, k)
    assignment = rng.integers(0, k, size=n, dtype=np.int64)
    sizes = np.bincount(assignment, minlength=k).astype(np.int64)
    return Partition(assignment=assignment, sizes=sizes, scheme="independent")


def permutation_partition(n, k, rng):
    _check(n, k)
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    # the permutation's first sizes[0] users form subset 0, and so on
    assignment = np.empty(n, dtype=np.int64)
    assignment[rng.permutation(n)] = np.repeat(np.arange(k, dtype=np.int64), sizes)
    return Partition(assignment=assignment, sizes=sizes, scheme="permutation")


def take_partition(n, k, scheme, rng):
    if scheme == "independent":
        return independent_partition(n, k, rng)
    if scheme == "permutation":
        return permutation_partition(n, k, rng)
    raise ValueError(f"unknown partition scheme {scheme!r}; have {SCHEMES}")
