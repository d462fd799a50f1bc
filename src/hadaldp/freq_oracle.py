"""Hashed, partitioned frequency oracle: median of k repetitions.

Users are split into k subsets.  Subset j shares one pairwise-independent
hash h_j mapping the domain into [m], and runs the Hadamard randomizer on
the hashed value, so the server keeps a k x m matrix instead of a
length-2^ceil(log2 d) vector.  One row-wise transform finalizes all k
repetitions; the matrix holds the transformed int32 sums.  A query
re-hashes the element per row, scales each row's cell by the debias
factor and then by k (each subset only saw ~1/k of the users), and takes
the median across rows, which shrugs off the few rows where the hash
collided with something heavy or the subset drew unlucky noise.
The factor is computed once per state, and k * (float64(cell) * factor)
is bit for bit what a matrix of float64 debiased cells would give.

Sizing comes from the accuracy analysis: k grows with log(1/beta') and m
with eps * sqrt(n).  Two named constant profiles are shipped:

- "practical": c_k = 8, c_m = 4, the default of every parameter set
  (`DEFAULT_CK`, `DEFAULT_CM`).  Heuristic; much smaller server state,
  no formal guarantee behind the constant.
- "theory": c_k = 8, c_m = 8 * e^2 * sqrt(8) ~= 167.2 (`THEORY_CM`), the
  values the proofs need; pass them explicitly to get them.

Every build's hash family, an oracle's own or the one a heavy-hitter run
shares, is drawn by `sample_family` from its round's setup stream 1.
The build does not sort users into their subsets.  It streams them
through `hrr.ingest`, the report path of every build, in chunks of
consecutive users: per chunk one limb-kernel call `backend.hash_eval`
with each user's coefficients (a_g, b_g) gathered by their subset g, one
`randomize` and one scatter-add at g*m + row into the flattened matrix.
Every query hashes through `backend.hash_eval`: a scalar query once,
broadcast over the coefficient vectors (a_j), (b_j) the state keeps,
plus one gather from the matrix; a batch query once per row and chunk
of 2^14 elements, so it holds its output and one chunk x k scratch,
however many elements it is asked about.  `PairwiseHash.eval` stays
the exact reference the tests compare the hash kernel with.

The median of an even-length list is the lower-middle order statistic
(1-based index ceil(k/2)), so a query always returns one of the actual
per-row estimates rather than an average of two.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import backend, codec
from .hashing import (PairwiseHash, element_array, element_index,
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
DEFAULT_CK = PROFILES["practical"]["c_k"]
DEFAULT_CM = PROFILES["practical"]["c_m"]

MAGIC = b"HDFO"
VERSION = 4
_HEADER = struct.Struct("<4sHBBIQQddddQ")
# magic, version, scheme, reserved, k, m, d, eps, beta_prime, c_k, c_m, n_users

MAX_DOMAIN = (1 << 61) - 1  # hash inputs must stay below the hash prime
_QUERY_CHUNK = 1 << 14      # elements per chunk of query_many


@dataclass(frozen=True)
class OracleParams:
    """Oracle sizing; c_k and c_m default to the "practical" profile."""

    eps: float
    beta_prime: float
    c_k: float = DEFAULT_CK
    c_m: float = DEFAULT_CM
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
    matrix: np.ndarray                 # k x m int32, transformed sums
    # the hashes' coefficients as uint64 vectors: the build gathers them by
    # each user's subset, a scalar query broadcasts them over the k rows,
    # and a batch query takes one row's pair per limb-kernel call
    a: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)
    # what a read multiplies a cell by, before the scaling by k
    factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.a = np.array([h.a for h in self.hashes], dtype=np.uint64)
        self.b = np.array([h.b for h in self.hashes], dtype=np.uint64)
        self.factor = debias_factor(self.params.eps)

    @property
    def median_index(self):
        # lower-middle order statistic, 0-based
        return (self.k - 1) // 2


def sample_family(k, m, seed, round_index=0):
    """The k hash functions into [m] of round round_index, drawn in turn
    from its setup stream 1, the stream that holds the family of every
    build: an oracle's own, or the one a heavy-hitter run shares."""
    rng = setup_stream(seed, round_index, 1)
    return [sample_hash(m, rng) for _ in range(k)]


def construct(elements, d, params, seed, *, hashes=None, round_index=0):
    """Build the k x m matrix from one pass over the users.

    The partition assigns each user a subset g; `hrr.ingest` then adds,
    chunk by chunk, user u's report on column h_g(x_u) at row_u of matrix
    row g, into int32 sums.  One row-wise int32 transform finishes it;
    the debias factor is applied where an estimate is read.  When
    `hashes` is given (the heavy-hitter protocol shares one family
    across all its oracles) they fix both k and m; otherwise k and m are
    derived from params and n, and `sample_family` draws the family.
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
        hashes = sample_family(k, m, seed, round_index)

    part = take_partition(n, k, params.scheme, setup_stream(seed, round_index, 0))
    state = OracleState(params=params, k=k, m=m, d=int(d), n_users=n,
                        hashes=hashes, matrix=np.zeros((k, m), np.int32))
    ingest(state.matrix.reshape(-1), elements, m, budget.keep_prob, seed,
           round_index, family=(part.assignment, state.a, state.b))
    backend.fwht_inplace(state.matrix)
    return state


def row_estimates(state, v):
    """The k per-row estimates k * (matrix[j, h_j(v)] * factor) a query
    medians over."""
    v = element_index(v, state.d)
    cols = backend.hash_eval(np.uint64(v), state.a, state.b, state.m)
    return state.k * (state.matrix[np.arange(state.k), cols] * state.factor)


def query(state, v):
    """Median of the k scaled per-row estimates for element v."""
    vals = row_estimates(state, v)
    mid = state.median_index
    return float(np.partition(vals, mid)[mid])


def query_many(state, vs):
    """Vectorized query; returns one estimate per element of vs.

    Elements are answered in chunks of 2^14 through one chunk x k float64
    scratch: per row j one `backend.hash_eval` of the chunk and a gather
    from matrix row j into scratch column j, then the scale by the debias
    factor and by k, in that order, and an in-place partition along each
    scratch row, whose median column goes into the output.  A call so
    holds its output, that scratch (3 MiB at k = 24) and a row's
    chunk-sized temporaries, whatever the number of elements, and what it
    returns owns its data.
    """
    vs = element_array(vs, state.d)
    out = np.empty(vs.size, dtype=np.float64)
    scratch = np.empty((min(vs.size, _QUERY_CHUNK), state.k))
    mid = state.median_index
    for lo in range(0, vs.size, _QUERY_CHUNK):
        chunk = vs[lo:lo + _QUERY_CHUNK]
        vals = scratch[:chunk.size]
        for j in range(state.k):
            vals[:, j] = state.matrix[j].take(
                backend.hash_eval(chunk, state.a[j], state.b[j], state.m))
        vals *= state.factor
        vals *= state.k
        vals.partition(mid, axis=1)
        out[lo:lo + chunk.size] = vals[:, mid]
    return out


_SCHEME_CODE = {name: i for i, name in enumerate(SCHEMES)}


def to_bytes(state):
    """Format v4: the header, then the k hash coefficients a_j and the k
    b_j as uint64, then the k x m matrix as int32, all little-endian."""
    p = state.params
    head = (_SCHEME_CODE[p.scheme], 0, state.k, state.m, state.d, p.eps,
            p.beta_prime, p.c_k, p.c_m, state.n_users)
    return codec.encode(_HEADER, MAGIC, VERSION, head,
                        [("<u8", state.a), ("<u8", state.b),
                         ("<i4", state.matrix)])


def from_bytes(blob):
    """Inverse of to_bytes; raises ValueError on any malformed blob,
    coefficients outside the hash family's ranges included."""
    fields, (a, b, matrix) = codec.decode(
        blob, _HEADER, MAGIC, VERSION,
        lambda f: [("<u8", f[2]), ("<u8", f[2]), ("<i4", f[2] * f[3])])
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
    hashes = [PairwiseHash(a_j, b_j, m)
              for a_j, b_j in zip(a.tolist(), b.tolist())]
    return OracleState(params=params, k=k, m=m, d=d, n_users=n_users,
                       hashes=hashes, matrix=matrix.reshape(k, m))
