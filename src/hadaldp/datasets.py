"""Synthetic datasets, exact counting oracles, and the on-disk format.

Elements are uint64 in [0, d).  The file layout is a small fixed header
(magic, version, d, n) followed by n little-endian uint64 values, so a
dataset can be memory-mapped or streamed without parsing anything.

Two independent exact-counting routes are kept on purpose: a single-pass
dict accumulation and a sort-based run-length count.  They must agree on
everything; the tests lean on that redundancy, and the estimators get
judged against them.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import codec

MAGIC = b"LDPD"
VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")  # magic, version, reserved, d, n

ZIPF_MAX_RANKS = 10_000_000


@dataclass
class Dataset:
    elements: np.ndarray   # uint64, one entry per user
    d: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return int(self.elements.size)


def _as_elements(data):
    if isinstance(data, Dataset):
        return data.elements
    return np.ascontiguousarray(data, dtype=np.uint64)


def gen_zipf(n, d, s, rng):
    """n draws from a truncated zipf(s) law, scattered over [0, d).

    Ranks are capped at min(d, 10^7) so the inverse-CDF table stays small;
    beyond that the tail mass is negligible anyway.  Rank r is sent to
    (a*r + b) mod d with gcd(a, d) = 1, a random bijection, so the heavy
    elements are not just the small integers.
    """
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    if s <= 0:
        raise ValueError(f"zipf exponent must be positive, got {s}")
    r_max = min(int(d), ZIPF_MAX_RANKS)
    weights = np.arange(1, r_max + 1, dtype=np.float64) ** (-float(s))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(n), side="right")

    while True:
        a = int(rng.integers(1, d)) if d > 1 else 1
        if math.gcd(a, d) == 1:
            break
    b = int(rng.integers(0, d))
    # a*rank overflows uint64 for large d, so map the distinct ranks
    # through Python ints and gather
    uniq, inv = np.unique(ranks, return_inverse=True)
    mapped = np.fromiter(((a * int(r) + b) % d for r in uniq),
                         dtype=np.uint64, count=uniq.size)
    elements = mapped[inv]
    meta = {"generator": "zipf", "n": int(n), "d": int(d), "s": float(s),
            "rank_cap": r_max, "map_a": a, "map_b": b}
    return Dataset(elements=elements, d=int(d), meta=meta)


def gen_planted(n, d, heavy, rng):
    """Uniform background plus planted elements at exact counts.

    `heavy` is a list of (element, count) pairs; elements must be distinct
    and the counts must fit inside n.  Positions are shuffled so nothing
    about a user's index leaks what they hold.
    """
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    heavy = [(int(e), int(c)) for e, c in heavy]
    if len({e for e, _ in heavy}) != len(heavy):
        raise ValueError("planted elements must be distinct")
    for e, c in heavy:
        if not 0 <= e < d:
            raise ValueError(f"planted element {e} outside [0, {d})")
        if c < 0:
            raise ValueError(f"planted count must be non-negative, got {c}")
    total = sum(c for _, c in heavy)
    if total > n:
        raise ValueError(f"planted counts sum to {total} > n = {n}")

    background = rng.integers(0, d, size=n - total, dtype=np.uint64)
    planted = [np.full(c, e, dtype=np.uint64) for e, c in heavy]
    elements = np.concatenate(planted + [background]) if n else \
        np.empty(0, dtype=np.uint64)
    rng.shuffle(elements)
    meta = {"generator": "planted", "n": int(n), "d": int(d),
            "heavy": [[e, c] for e, c in heavy]}
    return Dataset(elements=elements, d=int(d), meta=meta)


def exact_frequency(data):
    """Exact counts as {element: count}, one streaming pass with a dict.

    The brute-force reference the tests check estimates and `exact_counts`
    against; the package itself counts with `exact_counts`.
    """
    counts = {}
    for v in _as_elements(data).tolist():
        counts[v] = counts.get(v, 0) + 1
    return counts


def exact_counts(data):
    """Exact counts the other way: sort and run-length.  Returns
    (values, counts) as parallel arrays, values ascending."""
    values, counts = np.unique(_as_elements(data), return_counts=True)
    return values, counts.astype(np.int64)


def exact_heavy_hitters(data, threshold):
    """Set of elements with exact count >= threshold."""
    values, counts = exact_counts(data)
    return {int(v) for v in values[counts >= threshold]}


def save_dataset(ds, path):
    with open(path, "wb") as fh:
        fh.write(codec.encode(_HEADER, MAGIC, VERSION, (0, ds.d, ds.n),
                              [("<u8", ds.elements)]))


def load_dataset(path):
    """Read a save_dataset file; raises ValueError on any malformed file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (_, d, _), (elements,) = codec.decode(blob, _HEADER, MAGIC, VERSION,
                                          lambda f: [("<u8", f[2])])
    if d < 1:
        raise ValueError("domain size must be positive, got 0")
    if elements.size and int(elements.max()) >= d:
        raise ValueError("file contains elements outside [0, d)")
    return Dataset(elements=elements, d=int(d), meta={"source": str(path)})
