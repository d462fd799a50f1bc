"""Hashed, partitioned frequency oracle: median of k repetitions.

Each user joins one of k subsets, uniformly and independently
(`partition.take_partition`).  Subset j shares one pairwise-independent
hash h_j mapping the domain into [m], and runs the Hadamard randomizer on
the hashed value, so the server keeps a k x m matrix instead of a
length-2^ceil(log2 d) vector.  One row-wise transform finalizes all k
repetitions; the matrix holds the transformed int32 sums.  A query
re-hashes the element per row and reads one cell per row.  Its estimate
is the median across rows of the cell scaled by the debias factor and
then by k (each subset only saw ~1/k of the users), which shrugs off the
few rows where the hash collided with something heavy or the subset
drew unlucky noise.  The factor is computed once per state, and
k * (float64(cell) * factor) is bit for bit what a matrix of float64
debiased cells would give.  That map never decreases a cell (factor > 0,
k >= 1, and rounding to nearest is monotone), so the median of the
scaled cells is the scaled median cell: both queries median the int32
cells and scale only their answer.

Sizing comes from the accuracy analysis: k grows with log(1/beta') and m
with eps * sqrt(n).  Two named constant profiles are shipped:

- "practical": c_k = 8, c_m = 4, the default of every parameter set
  (`DEFAULT_CK`, `DEFAULT_CM`).  Heuristic; much smaller server state,
  no formal guarantee behind the constant.
- "theory": c_k = 8, c_m = 8 * e^2 * sqrt(8) ~= 167.2 (`THEORY_CM`), the
  values the proofs need; pass them explicitly to get them.

Every build's hash family, an oracle's own or the one a heavy-hitter run
shares, is drawn by `sample_family` from its round's setup stream 1: k
members of the vector multiply-shift family (see `hashing`), each three
uniform 64-bit words a1, a2 and b, which the state keeps as read-only
uint64 vectors beside the flat row offsets j * m.  The build does not
sort users into their subsets.  It streams them through `hrr.ingest`,
the report path of every build, in chunks of consecutive users: per
chunk one `backend.hash_eval` call, which gathers each user's words by
their subset g, one `randomize` and one scatter-add at g*m + row into
the flattened matrix.  Every read, a scalar query's or a batch query's,
goes through one step, `_cells`: one broadcast `backend.hash_broadcast`
of elements against the k rows' words, and one `take` from the
flattened matrix at offsets + columns.  A scalar query hands it one
element and gets its k cells.  A batch query takes its elements in
chunks of 2^14, reduces a chunk to its distinct elements, and hands
them over as columns in blocks of 2^14 // k elements (at least one), so
that a call hashes at most max(k, 2^14) cells; it medians each block's
int32 cells and debiases once per answer, at the end.  So it holds its
output, one block's few D x k arrays and a chunk's temporaries, however
many elements it is asked about.

The blob is format v6: the header, the k a1, the k a2 and the k b, then
the matrix.  A blob of any other version raises ValueError.

The median of an even-length list is the lower-middle order statistic
(1-based index ceil(k/2)), so a query always returns one of the actual
per-row estimates rather than an average of two.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import backend, codec
from .hashing import MAX_RANGE, PairwiseHash, element_array, element_index
from .hrr import ingest
from .partition import take_partition
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
VERSION = 6
_HEADER = struct.Struct("<4sHIQQddddQ")
# magic, version, k, m, d, eps, beta_prime, c_k, c_m, n_users

MAX_DOMAIN = (1 << 61) - 1  # every build's largest domain size
_QUERY_CHUNK = 1 << 14      # query_many: elements per chunk, cells per block


@dataclass(frozen=True)
class OracleParams:
    """Oracle sizing; c_k and c_m default to the "practical" profile."""

    eps: float
    beta_prime: float
    c_k: float = DEFAULT_CK
    c_m: float = DEFAULT_CM

    def __post_init__(self):
        PrivacyBudget(self.eps)  # range check, (0, 1]
        if not 0.0 < self.beta_prime < 1.0:
            raise ValueError(f"beta_prime must lie in (0, 1), got {self.beta_prime}")
        if not 1 <= self.c_k < math.inf:
            raise ValueError(f"c_k must be finite and at least 1, got {self.c_k}")
        if not 0 < self.c_m < math.inf:
            raise ValueError(f"c_m must be finite and positive, got {self.c_m}")


def check_domain(d):
    """Every build's domain bound: 1 <= d <= MAX_DOMAIN."""
    if not 1 <= d <= MAX_DOMAIN:
        raise ValueError(f"domain size must lie in [1, 2^61 - 1], got {d}")


def repetitions_for(params):
    """k = ceil(c_k * ln(1/beta')), at least 1.

    The 1e-9 slack absorbs float noise in ln(1/beta') so that, e.g.,
    beta' = e^-2 with c_k = 8 lands on 16, not 17.
    """
    raw = params.c_k * math.log(1.0 / params.beta_prime)
    return max(1, math.ceil(raw - 1e-9))


def hash_range_for(params, n):
    """Smallest power of two >= c_m * eps * sqrt(n), and >= 2; a range
    above the hash family's 2^32 raises ValueError."""
    if n < 0:
        raise ValueError(f"user count must be non-negative, got {n}")
    target = params.c_m * params.eps * math.sqrt(n)
    if target > MAX_RANGE:
        raise ValueError(f"hash range c_m * eps * sqrt(n) = {target:.4g} "
                         f"is above the hash family's 2^32")
    return max(2, 1 << (math.ceil(target) - 1).bit_length())


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
    # the hashes' words as read-only uint64 vectors: the build gathers
    # them by each user's subset, and every read hashes against all k,
    # then adds each row's offset j * m into the flat matrix
    a1: np.ndarray = field(init=False, repr=False, compare=False)
    a2: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    # what a read multiplies a cell by, before the scaling by k
    factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = np.array([(h.a1, h.a2, h.b) for h in self.hashes],
                         dtype=np.uint64).T.copy()
        self.offsets = np.arange(self.k, dtype=np.intp) * self.m
        for v in (words, self.offsets):
            v.flags.writeable = False
        self.a1, self.a2, self.b = words
        self.factor = debias_factor(self.params.eps)

    @property
    def median_index(self):
        # lower-middle order statistic, 0-based
        return (self.k - 1) // 2


def sample_family(k, m, seed, round_index=0):
    """The k hash functions into [m] of round round_index: one 3 x k draw
    of uniform 64-bit words from its setup stream 1, the stream that
    holds the family of every build (an oracle's own, or the one a
    heavy-hitter run shares), whose rows are the k a1, a2 and b."""
    words = setup_stream(seed, round_index, 1).integers(
        0, 1 << 64, size=(3, k), dtype=np.uint64)
    return [PairwiseHash(*w, m) for w in zip(*words.tolist())]


def family_for(params, n, seed, round_index=0):
    """k = repetitions_for(params) hashes into m = hash_range_for(params, n)."""
    return sample_family(repetitions_for(params), hash_range_for(params, n),
                         seed, round_index)


def construct(elements, d, params, seed, *, hashes=None, round_index=0):
    """Build the k x m matrix from one pass over the users.

    The partition assigns each user a subset g; `hrr.ingest` then adds,
    chunk by chunk, user u's report on column h_g(x_u) at row_u of matrix
    row g, into int32 sums.  One row-wise int32 transform finishes it;
    the debias factor is applied where an estimate is read.  When
    `hashes` is given (the heavy-hitter protocol shares one family
    across all its oracles) they fix both k and m; otherwise
    `family_for` sizes and draws the family from params and n.  Zero
    users make an ordinary build: no report is added, so the matrix is
    all zero (k x 2 when the family is sized from n = 0) and every
    estimate is 0.0, as in `hrr.build`.
    """
    check_domain(d)
    elements = element_array(elements, d)
    n = int(elements.size)
    budget = PrivacyBudget(params.eps)

    if hashes is None:
        hashes = family_for(params, n, seed, round_index)
    if not hashes or any(h.m != hashes[0].m for h in hashes):
        raise ValueError("need one or more hashes, all with the same range m")
    k, m = len(hashes), hashes[0].m

    part = take_partition(n, k, setup_stream(seed, round_index, 0))
    state = OracleState(params=params, k=k, m=m, d=int(d), n_users=n,
                        hashes=hashes, matrix=np.zeros((k, m), np.int32))
    ingest(state.matrix.reshape(-1), elements, m, budget.keep_prob, seed,
           round_index, family=(part.assignment, state.a1, state.a2,
                                state.b))
    backend.fwht_inplace(state.matrix)
    return state


def _cells(state, v):
    """The int32 cells matrix[j, h_j(v)] of elements v, in a fresh array.

    v is one element as a Python int, which gets its k cells, or a block
    of D elements as a D x 1 uint64 column, which gets D x k.  One
    `backend.hash_broadcast` call hashes v against the k rows' words,
    broadcast, into a fresh array, so concurrent reads of one state
    share nothing they write; one `take` at offsets + columns gathers
    the cells from the flat matrix.
    """
    cols = backend.hash_broadcast(v, state.a1, state.a2, state.b,
                                  state.m).view(np.intp)
    cols += state.offsets
    return state.matrix.reshape(-1).take(cols)


def row_estimates(state, v):
    """The k per-row estimates k * (matrix[j, h_j(v)] * factor)."""
    return state.k * (_cells(state, element_index(v, state.d)) * state.factor)


def query(state, v):
    """The median of element v's k per-row estimates.

    The int32 cells are partitioned in place and only the median cell is
    scaled, float64(cell) * factor * k, which is bit for bit the median
    of `row_estimates` (see the module docstring).
    """
    cells = _cells(state, element_index(v, state.d))
    mid = state.median_index
    cells.partition(mid)
    return float(cells[mid]) * state.factor * state.k


def query_many(state, vs):
    """Vectorized query; returns one estimate per element of vs.

    Elements are answered in chunks of 2^14.  Each chunk is reduced to
    its distinct elements, which `_cells` hashes and gathers in
    blocks of 2^14 // k elements (at least one); an in-place partition
    along each block's rows picks the median cell, which is copied back
    out to every position of its element.  The output is scaled once at
    the end, by the debias factor and then by k, as `row_estimates`
    scales each cell: x -> k * (float64(x) * factor) never decreases, so
    the median of the scaled cells is the scaled median cell, bit for
    bit.  A call so holds its output, one block's scratch and a chunk's
    temporaries, whatever the number of elements, and what it returns
    owns its data.
    """
    vs = element_array(vs, state.d)
    out = np.empty(vs.size, dtype=np.float64)
    block = max(1, _QUERY_CHUNK // state.k)
    mid = state.median_index
    for start in range(0, vs.size, _QUERY_CHUNK):
        chunk = vs[start:start + _QUERY_CHUNK]
        distinct, where = np.unique(chunk, return_inverse=True)
        medians = np.empty(distinct.size, dtype=np.int32)
        for i in range(0, distinct.size, block):
            cells = _cells(state, distinct[i:i + block, None])
            cells.partition(mid, axis=1)
            medians[i:i + block] = cells[:, mid]
        out[start:start + chunk.size] = medians[where]
    out *= state.factor
    out *= state.k
    return out


def to_bytes(state):
    """Format v6: the header, then the hashes' k words a1_j, the k a2_j
    and the k b_j as uint64, then the k x m matrix as int32, all
    little-endian."""
    p = state.params
    head = (state.k, state.m, state.d, p.eps, p.beta_prime, p.c_k, p.c_m,
            state.n_users)
    return codec.encode(_HEADER, MAGIC, VERSION, head,
                        [("<u8", state.a1), ("<u8", state.a2),
                         ("<u8", state.b), ("<i4", state.matrix)])


def from_bytes(blob):
    """Inverse of to_bytes; raises ValueError on any malformed blob, a
    hash range above 2^32 included."""
    fields, (words, matrix) = codec.decode(
        blob, _HEADER, MAGIC, VERSION,
        lambda f: [("<u8", 3 * f[0]), ("<i4", f[0] * f[1])])
    k, m, d, eps, beta_prime, c_k, c_m, n_users = fields
    if k < 1:
        raise ValueError("need at least one repetition, got k = 0")
    check_domain(d)
    params = OracleParams(eps=eps, beta_prime=beta_prime, c_k=c_k, c_m=c_m)
    hashes = [PairwiseHash(*w, m) for w in zip(*words.reshape(3, k).tolist())]
    return OracleState(params=params, k=k, m=m, d=d, n_users=n_users,
                       hashes=hashes, matrix=matrix.reshape(k, m))
