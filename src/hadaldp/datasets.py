"""Synthetic datasets, exact counts, and the on-disk format.

Elements are uint64 in [0, d).  The file layout is a small fixed header
(magic, version, d, n) followed by n little-endian uint64 values, so a
dataset can be memory-mapped or streamed without parsing anything.

`exact_counts` is the package's exact count, by sort and run-length; the
experiments judge their estimates against it.  The tests keep an
independent single-pass dict count (`tests/exact_reference.py`) and hold
the two to each other.

`gen_zipf` draws n uniforms, then the map's a and b, from the generator
it is given, and inverts one float64 CDF table of min(d, 10^7) ranks: the
table is built in blocks that each continue the running sum, so it holds
the same bits as one cumsum and its 8*r_max bytes are the peak memory
beside O(n).  The uniforms are searched in sorted order, which gives each
the rank an unsorted search would and the distinct ranks without a
second sort.
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
_ZIPF_BLOCK = 1 << 14  # ranks per block of the zipf table


@dataclass
class Dataset:
    elements: np.ndarray   # uint64, one entry per user
    d: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return int(self.elements.size)


def _zipf_cdf(r_max, s):
    """The running sums of k^-s for k = 1..r_max, normalised to end at 1: one
    float64 array, built a block of _ZIPF_BLOCK entries at a time.  Each
    block gets its powers, the previous blocks' total added into its first
    entry, and an in-place cumsum.  Every entry is fl(previous + k^-s)
    either way, so the table equals one cumsum of the whole power array bit
    for bit, without that second r_max-long array."""
    cdf = np.empty(r_max, dtype=np.float64)
    total = 0.0
    for lo in range(0, r_max, _ZIPF_BLOCK):
        block = cdf[lo:lo + _ZIPF_BLOCK]
        block[:] = np.arange(lo + 1, lo + 1 + block.size,
                             dtype=np.float64) ** (-s)
        block[0] += total
        np.cumsum(block, out=block)
        total = block[-1]
    cdf /= cdf[-1]
    return cdf


def gen_zipf(n, d, s, rng):
    """n draws from a truncated zipf(s) law, scattered over [0, d).

    Ranks are capped at r_max = min(d, 10^7) so the inverse-CDF table stays
    small; beyond that the tail mass is negligible anyway.  Rank r is sent
    to (a*r + b) mod d with gcd(a, d) = 1, a random bijection, so the heavy
    elements are not just the small integers.  s must be finite and
    positive.

    The draws come in a fixed order: n uniforms, then a (redrawn until it
    is coprime to d), then b.  The inverse CDF is one float64 table of
    running sums of k^-s, built in blocks (`_zipf_cdf`) to the same bits as
    one cumsum; the peak memory is that 8*r_max-byte table plus O(n).  The
    uniforms are looked up in ascending order, which keeps the binary
    search's window moving forward; a uniform's rank does not depend on
    its position, so the ranks are those of an unsorted search.  Sorted
    ranks give the distinct ones as the entries that differ from their
    left neighbour, ascending, and each user's index into them as a
    running count, with no second sort.
    """
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    if not 0 < s < math.inf:
        raise ValueError(f"zipf exponent must be finite and positive, got {s}")
    s = float(s)
    r_max = min(int(d), ZIPF_MAX_RANKS)
    cdf = _zipf_cdf(r_max, s)
    u = rng.random(n)

    while True:
        a = int(rng.integers(1, d)) if d > 1 else 1
        if math.gcd(a, d) == 1:
            break
    b = int(rng.integers(0, d))
    order = np.argsort(u)
    ranks = np.searchsorted(cdf, u[order], side="right")
    del cdf, u  # the table is most of the peak; free it before the rest
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
    uniq = ranks[first]
    # a*rank overflows uint64 for large d, so map the distinct ranks
    # through Python ints and gather
    mapped = np.fromiter(((a * r + b) % d for r in uniq.tolist()),
                         dtype=np.uint64, count=uniq.size)
    elements = np.empty(n, dtype=np.uint64)
    elements[order] = mapped[np.cumsum(first) - 1]
    meta = {"generator": "zipf", "n": int(n), "d": int(d), "s": s,
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


def exact_counts(data):
    """Exact counts of a Dataset's or an array's elements, by sort and
    run-length.  Returns (values, counts) as parallel arrays, values
    ascending."""
    if isinstance(data, Dataset):
        data = data.elements
    values, counts = np.unique(np.ascontiguousarray(data, dtype=np.uint64),
                               return_counts=True)
    return values, counts.astype(np.int64)


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
