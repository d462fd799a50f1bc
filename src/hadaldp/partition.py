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
    # assignment[u] = subset of user u, in the narrowest type that holds k - 1
    assignment: np.ndarray
    sizes: np.ndarray       # int64, len k, sizes[j] = |subset j|
    scheme: str

    @property
    def k(self):
        return int(self.sizes.shape[0])

    def members(self):
        """Index arrays of each subset, users in increasing order."""
        # a stable argsort is a radix sort on 8- and 16-bit keys
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        return [order[bounds[j]:bounds[j + 1]] for j in range(self.k)]


_CHUNK = 1 << 16  # users per draw of `independent_partition`


def _check(n, k):
    """Validate (n, k); return the assignment's dtype, the narrowest that
    holds k - 1."""
    if n < 0:
        raise ValueError(f"user count must be non-negative, got {n}")
    if k < 1:
        raise ValueError(f"need at least one subset, got k={k}")
    return np.min_scalar_type(k - 1)


def independent_partition(n, k, rng):
    """Subsets uniform in [0, k): the values of one n-long int64 draw from
    rng, drawn _CHUNK at a time and stored narrow, so that no n-long
    int64 array (nor, for the sizes, an n-long intp copy) is made."""
    assignment = np.empty(n, dtype=_check(n, k))
    sizes = np.zeros(k, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        part = rng.integers(0, k, size=min(_CHUNK, n - lo), dtype=np.int64)
        assignment[lo:lo + part.size] = part
        sizes += np.bincount(part, minlength=k)
    return Partition(assignment=assignment, sizes=sizes, scheme="independent")


def permutation_partition(n, k, rng):
    narrow = _check(n, k)
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    # the permutation's first sizes[0] users form subset 0, and so on
    assignment = np.empty(n, dtype=narrow)
    assignment[rng.permutation(n)] = np.repeat(np.arange(k, dtype=narrow), sizes)
    return Partition(assignment=assignment, sizes=sizes, scheme="permutation")


def take_partition(n, k, scheme, rng):
    if scheme == "independent":
        return independent_partition(n, k, rng)
    if scheme == "permutation":
        return permutation_partition(n, k, rng)
    raise ValueError(f"unknown partition scheme {scheme!r}; have {SCHEMES}")
