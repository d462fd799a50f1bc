"""Baseline frequency oracle over the whole domain (no hashing, no repetition).

The server pads the domain to m = 2^ceil(log2 d), hands each user a uniform
public row index, and accumulates the +-1 reports into a length-m vector at
the user's row.  One Walsh-Hadamard transform turns the accumulator into all
m frequency estimates at once; scaling by debias_factor(eps) makes them
unbiased.  Memory and finalization time are Theta(m), which is what the
hashed oracle later removes.

`ingest` is the report path of every build: it streams the users in
chunks of CHUNK = 2^15, drawing each chunk's rows and coins as the next
slice of the round's streams, randomizing them in one call and adding
them with one scatter-add.  `build` calls it with the element as the
column; `freq_oracle.construct` with each user's hashed element and a
row offset per subset.  It runs in the caller's thread and draws each
chunk inline, after its hash.  Beside its output and its input, a build
holds about 42 bytes per user of one chunk (`ingest` lists them).

The server state is the accumulator's transform, kept as int32.  With
fewer than 2^31 users, which `ingest` enforces, the sums and every
intermediate of their int32 transform are exact.  Finalization is the
transform alone; a read applies the debias factor, computed once per
state, to the cells it returns: float64(cell) * factor, bit for bit the
value a float64 transform and scaling would hold.  That keeps query()
and query_many() (transform route) and query_direct() (direct dot
product against the accumulator, usable before finalization) exactly
equal.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from . import backend, codec
from .hashing import element_array, element_index
from .randomizer import (PrivacyBudget, debias_factor, draw_coins, draw_rows,
                         randomize, round_streams)

MAGIC = b"HRRS"
VERSION = 2
MAX_DIM = 1 << 28  # an int32 2^28 table is 1 GiB; larger domains are refused
_HEADER = struct.Struct("<4sHHQdQ")  # magic, version, reserved, m, eps, n_users
CHUNK = 1 << 15  # users per step of `ingest`
MAX_USERS = (1 << 31) - 1  # int32 sums: no sum or transform value exceeds n


@dataclass
class HrrState:
    m: int
    budget: PrivacyBudget
    n_users: int
    buffer: np.ndarray       # int32 +-1 sums; their transform once finalized
    finalized: bool = False
    # what a read multiplies a transformed cell by
    factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.factor = debias_factor(self.budget.eps)

    def finalize(self):
        if self.finalized:
            raise RuntimeError("state already finalized")
        backend.fwht_inplace(self.buffer)
        self.finalized = True
        return self


def dim_for(d):
    """Padded transform size 2^ceil(log2 d), guarded against runaway memory."""
    if d < 1:
        raise ValueError(f"domain size must be positive, got {d}")
    m = 1 << (int(d) - 1).bit_length()
    if m > MAX_DIM:
        raise ValueError(
            f"domain {d} needs a transform of size {m}, above the cap {MAX_DIM}; "
            "use the hashed oracle")
    return m


def build(elements, d, budget, seed, *, round_index=0, finalize=True):
    """Randomize every user's element and accumulate the reports, in one pass.

    The pass is `ingest` without a hash family: one group, each element
    its own column.  The transcript depends only on (seed, round_index,
    user position), not on the chunk size.
    """
    m = dim_for(d)
    elements = element_array(elements, d)
    buf = np.zeros(m, np.int32)
    ingest(buf, elements, m, budget.keep_prob, seed, round_index)
    state = HrrState(m=m, budget=budget, n_users=int(elements.size), buffer=buf)
    return state.finalize() if finalize else state


def ingest(buf, elements, m, keep_prob, seed, round_index, family=None):
    """Add every user's +-1 report into the flat buffer buf, CHUNK users at
    a time; the one report path of every build.

    User u's row is draw u of the round's row stream (uniform in [0, m)),
    their coin draw u of the coin stream; a chunk draws consecutive slices
    of both, so the transcript does not depend on CHUNK.  Without `family`
    user u reports on column x_u and adds at buf[row_u].  With
    family = (groups, a, b), buf is a k x m matrix flattened, and user u
    of group g = groups[u] reports on column ((a[g] x_u + b[g]) mod p) mod m
    and adds at buf[g*m + row_u].  Per chunk that is one hash, one
    randomize and one scatter-add, each over chunk-sized arrays.  More
    than MAX_USERS users could overflow the int32 sums, so they raise
    ValueError before anything is drawn.

    A step is CHUNK = 2^15 users, hashed, then drawn, then randomized and
    added, all in the caller's thread.  Its `at` index and hashed
    columns, its rows and coins, and `randomize`'s temporaries come to
    about 42 bytes per step user, so a build holds about 1.4 MB beside
    buf, its elements and the subsets.  Steps of 2^16 held twice that
    and built no faster; steps of 2^14 were slower.
    """
    n = elements.size
    if n > MAX_USERS:
        raise ValueError(f"{n} users exceed the int32 sums' bound of "
                         f"2^31 - 1 = {MAX_USERS} users per build")
    rows_rng, coins_rng = round_streams(seed, round_index)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        cols = elements[lo:hi]
        if family is not None:
            groups, a, b = family
            # each user's subset g, widened once: a gather indexes
            # faster by intp, and g * m below overflows a narrow g
            at = groups[lo:hi].astype(np.intp)
            cols = backend.hash_eval(cols, a.take(at), b.take(at), m)
        rows = draw_rows(rows_rng, hi - lo, m)
        coins = draw_coins(coins_rng, hi - lo)
        if family is None:
            at = rows
        else:
            # g * m + row, in place; rows < m, so its int64 view holds
            # the same values
            at *= m
            at += rows.view(np.int64)
        backend.accumulate_reports(buf, at, randomize(rows, cols, coins,
                                                      keep_prob))
        # freed before the next chunk's hash
        del cols, at, rows, coins


def query(state, v):
    """O(1) estimate lookup; requires a finalized state."""
    if not state.finalized:
        raise RuntimeError("finalize() the state before query()")
    return float(state.buffer[element_index(v, state.m)]) * state.factor


def query_many(state, vs):
    """query() for every element of vs, as one float64 array: one gather
    and one scaling; requires a finalized state."""
    if not state.finalized:
        raise RuntimeError("finalize() the state before query_many()")
    return state.buffer[element_array(vs, state.m)] * state.factor


def query_direct(state, v):
    """Transform-free estimate from the raw accumulator (pre-finalize only).

    Walks the accumulator's nonzero entries and dots them against column v
    of the matrix, so it costs O(min(m, n)) per query.  Exactly equals what
    query() returns after finalization.
    """
    if state.finalized:
        raise RuntimeError("query_direct() reads the raw accumulator; "
                           "this state is already finalized")
    v = element_index(v, state.m)
    nz = np.nonzero(state.buffer)[0].astype(np.uint64)
    if nz.size == 0:
        return 0.0
    signs = backend.hadamard_signs(nz, np.full(nz.size, v, dtype=np.uint64))
    return float(np.dot(state.buffer[nz.astype(np.int64)], signs)
                 * state.factor)


def to_bytes(state):
    """Serialize a finalized state, format v2: the header, then the m
    transformed cells as little-endian int32."""
    if not state.finalized:
        raise ValueError("serialize only finalized states")
    return codec.encode(_HEADER, MAGIC, VERSION,
                        (0, state.m, state.budget.eps, state.n_users),
                        [("<i4", state.buffer)])


def from_bytes(blob):
    """Inverse of to_bytes; raises ValueError on any malformed blob."""
    (_, m, eps, n_users), (buf,) = codec.decode(
        blob, _HEADER, MAGIC, VERSION, lambda f: [("<i4", f[1])])
    if m < 1 or m & (m - 1):
        raise ValueError(f"transform size {m} is not a power of two")
    return HrrState(m=m, budget=PrivacyBudget(eps), n_users=n_users,
                    buffer=buf, finalized=True)
