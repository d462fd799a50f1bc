"""Base-B prefix codes over integer domains.

An element v in [0, d) is read as L digits base B (B a power of two), most
significant first.  The level-tau prefix is the integer formed by the first
tau digits; the empty prefix (the tree root) is level 0 and encodes to 0.
Because B is a power of two, prefix extraction is a right shift.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PrefixCode:
    branching: int   # B, power of two, >= 2
    levels: int      # L, number of digits
    domain: int      # d, elements live in [0, d)

    def __post_init__(self):
        b = self.branching
        if b < 2 or (b & (b - 1)) != 0:
            raise ValueError(f"branching factor must be a power of two >= 2, got {b}")
        if self.levels < 1:
            raise ValueError(f"need at least one level, got {self.levels}")
        if self.domain < 1:
            raise ValueError(f"domain must be positive, got {self.domain}")
        if b ** self.levels < self.domain:
            raise ValueError(
                f"B^L = {b}^{self.levels} cannot address a domain of {self.domain}")

    @property
    def digit_bits(self):
        return self.branching.bit_length() - 1


def make_code(n, d):
    """Code used by the heavy-hitter search for n users over [0, d).

    B is the largest power of two at most sqrt(n) (and at least 2), which
    keeps each level's fan-out near the sqrt(n) the analysis wants.  L is
    the smallest digit count with B^L >= d.
    """
    if n < 1:
        raise ValueError(f"need at least one user, got n={n}")
    if d < 1:
        raise ValueError(f"domain must be positive, got d={d}")
    b = 1 << max(1, int(math.isqrt(n)).bit_length() - 1)
    levels = 1
    while b ** levels < d:
        levels += 1
    return PrefixCode(branching=b, levels=levels, domain=d)


def encode_prefix(v, tau, code):
    """Integer made of the first tau base-B digits of v (0 = the root)."""
    v = int(v)
    if not 0 <= v < code.domain:
        raise ValueError(f"element {v} outside [0, {code.domain})")
    if not 0 <= tau <= code.levels:
        raise ValueError(f"level {tau} outside [0, {code.levels}]")
    return v >> ((code.levels - tau) * code.digit_bits)


def encode_prefix_batch(vs, tau, code):
    """Shift a whole uint64 array down to its level-tau prefixes, for a
    level tau in 1..L, the levels the tree walk asks about.  The shift
    is then at most 64 - digit_bits, never the undefined uint64 >> 64."""
    import numpy as np

    if not 1 <= tau <= code.levels:
        raise ValueError(f"level {tau} outside [1, {code.levels}]")
    vs = np.ascontiguousarray(vs, dtype=np.uint64)
    shift = np.uint64((code.levels - tau) * code.digit_bits)
    return vs >> shift


def children_of(prefixes, code):
    """All level-(tau+1) children of the given level-tau prefixes."""
    import numpy as np

    prefixes = np.ascontiguousarray(prefixes, dtype=np.uint64)
    b = np.uint64(code.branching)
    digits = np.arange(code.branching, dtype=np.uint64)
    return (prefixes[:, None] * b + digits[None, :]).ravel()
