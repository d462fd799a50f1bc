"""Baseline frequency oracle over the whole domain (no hashing, no repetition).

The server pads the domain to m = 2^ceil(log2 d), hands each user a uniform
public row index, and accumulates the +-1 reports into a length-m vector at
the user's row.  One Walsh-Hadamard transform turns the accumulator into all
m frequency estimates at once; scaling by debias_factor(eps) makes them
unbiased.  Memory and finalization time are Theta(m), which is what the
hashed oracle later removes.

The accumulator holds raw integer +-1 sums; the debias factor is applied
once during finalization.  That keeps query() (transform route) and
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
DEFAULT_MAX_DIM = 1 << 28
_HEADER = struct.Struct("<4sHHQdQ")  # magic, version, reserved, m, eps, n_users


@dataclass
class HrrState:
    m: int
    budget: PrivacyBudget
    n_users: int
    buffer: np.ndarray       # raw +-1 sums until finalize(), estimates after
    finalized: bool = False

    def finalize(self):
        if self.finalized:
            raise RuntimeError("state already finalized")
        backend.fwht_inplace(self.buffer)
        self.buffer *= debias_factor(self.budget.eps)
        self.finalized = True
        return self


def dim_for(d, max_dim=DEFAULT_MAX_DIM):
    """Padded transform size 2^ceil(log2 d), guarded against runaway memory."""
    if d < 1:
        raise ValueError(f"domain size must be positive, got {d}")
    m = 1 << (int(d) - 1).bit_length()
    if m > max_dim:
        raise ValueError(
            f"domain {d} needs a transform of size {m}, above the cap {max_dim}; "
            "raise max_dim explicitly or use the hashed oracle")
    return m


def build(elements, d, budget, seed, *, round_index=0,
          max_dim=DEFAULT_MAX_DIM, finalize=True):
    """Randomize every user's element and accumulate the reports, in one pass.

    The transcript depends only on (seed, round_index, user position).
    """
    m = dim_for(d, max_dim)
    elements = element_array(elements, d)
    n = int(elements.size)
    rows_rng, coins_rng = round_streams(seed, round_index)
    rows = draw_rows(rows_rng, n, m)
    reports = randomize(rows, elements, draw_coins(coins_rng, n),
                        budget.keep_prob)
    buf = np.zeros(m, dtype=np.float64)
    backend.accumulate_reports(buf, rows, reports)
    # the transform needs only buf; drop the per-user arrays before it
    del rows, reports
    state = HrrState(m=m, budget=budget, n_users=n, buffer=buf)
    return state.finalize() if finalize else state


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
