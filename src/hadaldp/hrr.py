"""Baseline frequency oracle over the whole domain (no hashing, no repetition).

The server pads the domain to m = 2^ceil(log2 d), hands each user a uniform
public row index, and accumulates the +-1 reports into a length-m vector at
the user's row.  One Walsh-Hadamard transform turns the accumulator into all
m frequency estimates at once; scaling by debias_factor(eps) makes them
unbiased.  Memory and finalization time are Theta(m), which is what the
hashed oracle later removes.

`ingest` is the report path of every build: it streams the users in
chunks of CHUNK, drawing each chunk's rows and coins as the next slice of
the round's streams, randomizing them in one call and adding them with
one scatter-add.  `build` calls it with the element as the column;
`freq_oracle.construct` with each user's hashed element and a row offset
per subset.

The accumulator holds the raw +-1 sums as int32, in the low half of the
bytes of the float64 estimate vector (`backend.int32_sums`).  With fewer
than 2^31 users, which `ingest` enforces, the sums and every intermediate
of their int32 transform are exact.  Finalization transforms the sums,
then widens them in place to float64 while applying the debias factor,
once (`backend.widen_sums`).  That keeps query() (transform route) and
query_direct() (direct dot product against the accumulator, usable before
finalization) exactly equal, bit for bit.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import backend
from .hashing import element_array, element_index
from .randomizer import (PrivacyBudget, debias_factor, draw_coins, draw_rows,
                         randomize, round_streams)

MAGIC = b"HRRS"
VERSION = 1
MAX_DIM = 1 << 28  # a 2^28 float64 table is 2 GiB; larger domains are refused
_HEADER = struct.Struct("<4sHHQdQ")  # magic, version, reserved, m, eps, n_users
CHUNK = 1 << 16  # users per step of `ingest`
MAX_USERS = (1 << 31) - 1  # int32 sums: no sum or transform value exceeds n


@dataclass
class HrrState:
    m: int
    budget: PrivacyBudget
    n_users: int
    buffer: np.ndarray       # int32 +-1 sums until finalize(), float64 after
    finalized: bool = False

    def finalize(self):
        if self.finalized:
            raise RuntimeError("state already finalized")
        backend.fwht_inplace(self.buffer)
        self.buffer = backend.widen_sums(self.buffer,
                                         debias_factor(self.budget.eps))
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
    buf = backend.int32_sums(m)
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
    """
    n = elements.size
    if n > MAX_USERS:
        raise ValueError(f"{n} users exceed the int32 sums' bound of "
                         f"2^31 - 1 = {MAX_USERS} users per build")
    rows_rng, coins_rng = round_streams(seed, round_index)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        rows = draw_rows(rows_rng, hi - lo, m)
        coins = draw_coins(coins_rng, hi - lo)
        x = elements[lo:hi]
        if family is None:
            cols, at = x, rows
        else:
            groups, a, b = family
            g = groups[lo:hi]
            cols = backend.hash_eval(x, a[g], b[g], m)
            at = g * m + rows.view(np.int64)   # rows < m: the same values
        backend.accumulate_reports(buf, at, randomize(rows, cols, coins,
                                                      keep_prob))


def query(state, v):
    """O(1) estimate lookup; requires a finalized state."""
    if not state.finalized:
        raise RuntimeError("finalize() the state before query()")
    return float(state.buffer[element_index(v, state.m)])


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
                 * debias_factor(state.budget.eps))


def to_bytes(state):
    """Serialize a finalized state: fixed header + m little-endian float64."""
    if not state.finalized:
        raise ValueError("serialize only finalized states")
    header = _HEADER.pack(MAGIC, VERSION, 0, state.m, state.budget.eps,
                          state.n_users)
    return header + state.buffer.astype("<f8", copy=False).tobytes()


def from_bytes(blob):
    """Inverse of to_bytes; raises ValueError on any malformed blob."""
    if len(blob) < _HEADER.size:
        raise ValueError(f"blob is {len(blob)} bytes, shorter than the "
                         f"{_HEADER.size}-byte header")
    magic, version, _, m, eps, n_users = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    if m < 1 or m & (m - 1):
        raise ValueError(f"transform size {m} is not a power of two")
    expected = _HEADER.size + 8 * m
    if len(blob) != expected:
        raise ValueError(f"blob is {len(blob)} bytes, expected {expected}")
    buf = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    return HrrState(m=m, budget=PrivacyBudget(eps), n_users=n_users,
                    buffer=buf, finalized=True)
