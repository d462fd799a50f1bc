"""Hashed, partitioned frequency oracle: median of k repetitions.

Users are split into k subsets.  Subset j shares one pairwise-independent
hash h_j mapping the domain into [m], and runs the Hadamard randomizer on
the hashed value, so the server keeps a k x m matrix instead of a
length-2^ceil(log2 d) vector.  One row-wise transform finalizes all k
repetitions.  A query re-hashes the element per row, scales each row's
cell by k (each subset only saw ~1/k of the users), and takes the median
across rows, which shrugs off the few rows where the hash collided with
something heavy or the subset drew unlucky noise.

Sizing comes from the accuracy analysis: k grows with log(1/beta') and m
with eps * sqrt(n).  Two named constant profiles are shipped:

- "theory": c_k = 8, c_m = 8 * e^2 * sqrt(8) ~= 167.2, the values the
  proofs need.
- "practical": c_k = 8, c_m = 4.  Heuristic; much smaller server state,
  no formal guarantee behind the constant.

The build does not sort users into their subsets.  It streams them
through `hrr.ingest`, the report path of every build, in chunks of
consecutive users: per chunk one limb-kernel call `backend.hash_eval`
with each user's coefficients (a_g, b_g) gathered by their subset g, one
`randomize` and one scatter-add at g*m + row into the flattened matrix.
A scalar query is one `backend.hash_eval` call, broadcast over the
coefficient vectors (a_j), (b_j) the state keeps, plus one gather from
the matrix; `PairwiseHash.eval` stays the exact reference the tests
compare both with.

The median of an even-length list is the lower-middle order statistic
(1-based index ceil(k/2)), so a query always returns one of the actual
per-row estimates rather than an average of two.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import backend, codec
from .hashing import (P61, PairwiseHash, element_array, element_index,
                      sample_hash)
from .hrr import ingest
from .partition import SCHEMES, take_partition
from .randomizer import PrivacyBudget, debias_factor, setup_stream
# module attributes that perfbench/tracer.py wraps; the builds draw through
# hrr's names
from .randomizer import draw_coins, draw_rows  # noqa: F401

THEORY_CM = 8.0 * math.e ** 2 * math.sqrt(8.0)

PROFILES = {
    "theory": {"c_k": 8.0, "c_m": THEORY_CM},
    "practical": {"c_k": 8.0, "c_m": 4.0},
}

MAGIC = b"HDFO"
VERSION = 3
_HEADER = struct.Struct("<4sHBBIQQddddQ")
# magic, version, scheme, reserved, k, m, d, eps, beta_prime, c_k, c_m, n_users

MAX_DOMAIN = (1 << 61) - 1  # hash inputs must stay below the hash prime


@dataclass(frozen=True)
class OracleParams:
    eps: float
    beta_prime: float
    c_k: float = 8.0
    c_m: float = THEORY_CM
    scheme: str = "independent"

    def __post_init__(self):
        PrivacyBudget(self.eps)  # range check, (0, 1]
        if not 0.0 < self.beta_prime < 1.0:
            raise ValueError(f"beta_prime must lie in (0, 1), got {self.beta_prime}")
        if not 1 <= self.c_k < math.inf:
            raise ValueError(f"c_k must be finite and at least 1, got {self.c_k}")
        if not 0 < self.c_m < math.inf:
            raise ValueError(f"c_m must be finite and positive, got {self.c_m}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; have {SCHEMES}")


def repetitions_for(params):
    """k = ceil(c_k * ln(1/beta')), at least 1.

    The 1e-9 slack absorbs float noise in ln(1/beta') so that, e.g.,
    beta' = e^-2 with c_k = 8 lands on 16, not 17.
    """
    raw = params.c_k * math.log(1.0 / params.beta_prime)
    return max(1, math.ceil(raw - 1e-9))


def hash_range_for(params, n):
    """Smallest power of two >= c_m * eps * sqrt(n), and >= 2."""
    if n < 0:
        raise ValueError(f"user count must be non-negative, got {n}")
    target = params.c_m * params.eps * math.sqrt(n)
    m = 2
    while m < target:
        m <<= 1
    return m


def theoretical_error_bound(params, n, c=1.0):
    """c * (1/eps) * sqrt(n * ln(1/beta')): the shape the analysis promises.

    For reporting and tests only; nothing in the protocol consumes it.
    """
    return c * (1.0 / params.eps) * math.sqrt(n * math.log(1.0 / params.beta_prime))


@dataclass
class OracleState:
    params: OracleParams
    k: int
    m: int
    d: int
    n_users: int
    hashes: list
    matrix: np.ndarray                 # k x m, finalized estimates
    # the hashes' coefficients as uint64 vectors: the build gathers them by
    # each user's subset, and a scalar query is one limb-kernel call
    # broadcast over the k rows
    a: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.a = np.array([h.a for h in self.hashes], dtype=np.uint64)
        self.b = np.array([h.b for h in self.hashes], dtype=np.uint64)

    @property
    def median_index(self):
        # lower-middle order statistic, 0-based
        return (self.k - 1) // 2


def construct(elements, d, params, seed, *, hashes=None, round_index=0):
    """Build the k x m matrix from one pass over the users.

    The partition assigns each user a subset g; `hrr.ingest` then adds,
    chunk by chunk, user u's report on column h_g(x_u) at row_u of matrix
    row g, into int32 sums.  One row-wise int32 transform and the debias
    factor, applied as the sums widen in place to float64, finish it.  When
    `hashes` is given (the heavy-hitter protocol shares one family
    across all its oracles) they fix both k and m; otherwise k and m are
    derived from params and n, and the family is sampled here.
    """
    if not 1 <= d <= MAX_DOMAIN:
        raise ValueError(f"domain size must lie in [1, 2^61 - 1], got {d}")
    elements = element_array(elements, d)
    n = int(elements.size)
    if n == 0:
        raise ValueError("cannot build an oracle from zero users")
    budget = PrivacyBudget(params.eps)

    if hashes is not None:
        if not hashes:
            raise ValueError("need at least one hash")
        k = len(hashes)
        m = hashes[0].m
        if any(h.m != m for h in hashes):
            raise ValueError("all shared hashes must have the same range m")
    else:
        k = repetitions_for(params)
        m = hash_range_for(params, n)
        hash_rng = setup_stream(seed, round_index, 1)
        hashes = [sample_hash(m, hash_rng) for _ in range(k)]

    part = take_partition(n, k, params.scheme, setup_stream(seed, round_index, 0))
    sums = backend.int32_sums((k, m))
    state = OracleState(params=params, k=k, m=m, d=int(d), n_users=n,
                        hashes=hashes, matrix=sums)
    ingest(sums.reshape(-1), elements, m, budget.keep_prob, seed,
           round_index, family=(part.assignment, state.a, state.b))
    backend.fwht_inplace(sums)
    state.matrix = backend.widen_sums(sums, debias_factor(params.eps))
    return state


def row_estimates(state, v):
    """The k per-row estimates k * matrix[j, h_j(v)] a query medians over."""
    v = element_index(v, state.d)
    cols = backend.hash_eval(np.uint64(v), state.a, state.b, state.m)
    return state.k * state.matrix[np.arange(state.k), cols]


def query(state, v):
    """Median of the k scaled per-row estimates for element v."""
    vals = row_estimates(state, v)
    mid = state.median_index
    return float(np.partition(vals, mid)[mid])


def query_many(state, vs):
    """Vectorized query; returns one estimate per element of vs."""
    vs = element_array(vs, state.d)
    if vs.size == 0:
        return np.empty(0, dtype=np.float64)
    vals = np.empty((state.k, vs.size), dtype=np.float64)
    for j, h in enumerate(state.hashes):
        cols = h.eval_batch(vs).astype(np.int64)
        vals[j] = state.matrix[j, cols]
    vals *= state.k
    mid = state.median_index
    return np.partition(vals, mid, axis=0)[mid]


_SCHEME_CODE = {name: i for i, name in enumerate(SCHEMES)}


def to_bytes(state):
    """Format v3: the header, then the k hash coefficients a_j and the k
    b_j as uint64, then the k x m matrix as float64, all little-endian."""
    p = state.params
    head = (_SCHEME_CODE[p.scheme], 0, state.k, state.m, state.d, p.eps,
            p.beta_prime, p.c_k, p.c_m, state.n_users)
    return codec.encode(_HEADER, MAGIC, VERSION, head,
                        [("<u8", state.a), ("<u8", state.b),
                         ("<f8", state.matrix)])


def from_bytes(blob):
    """Inverse of to_bytes; raises ValueError on any malformed blob,
    coefficients outside the hash family's ranges included."""
    fields, (a, b, matrix) = codec.decode(
        blob, _HEADER, MAGIC, VERSION,
        lambda f: [("<u8", f[2]), ("<u8", f[2]), ("<f8", f[2] * f[3])])
    scheme_code, _, k, m, d, eps, beta_prime, c_k, c_m, n_users = fields
    if scheme_code >= len(SCHEMES):
        raise ValueError(f"unknown scheme code {scheme_code}")
    if k < 1:
        raise ValueError("need at least one repetition, got k = 0")
    if m < 1 or m & (m - 1):
        raise ValueError(f"hash range {m} is not a power of two")
    if not 1 <= d <= MAX_DOMAIN:
        raise ValueError(f"domain size must lie in [1, 2^61 - 1], got {d}")
    params = OracleParams(eps=eps, beta_prime=beta_prime, c_k=c_k, c_m=c_m,
                          scheme=SCHEMES[scheme_code])
    hashes = [PairwiseHash(a_j, b_j, P61, m)
              for a_j, b_j in zip(a.tolist(), b.tolist())]
    return OracleState(params=params, k=k, m=m, d=d, n_users=n_users,
                       hashes=hashes, matrix=matrix.reshape(k, m))
