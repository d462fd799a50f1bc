"""The client randomizer, the privacy budget and per-round randomness.

Every client sends a single +-1: the sign of one Hadamard entry H[row, col],
kept with probability e^eps/(e^eps + 1) and flipped otherwise.  Which column
the entry comes from is the only thing the three protocol variants disagree
about: the raw element (direct oracle), a hashed element (hashed oracle), or
a hashed prefix of the element (heavy-hitter levels).  `randomize` makes a
chunk of users' reports in one vectorized call, and `hrr.ingest`, the
report path of every build, hands its output straight to the server's
accumulator.

With b the +-1 keep/flip coin, E[b] = (e^eps - 1)/(e^eps + 1), so the server
multiplies accumulated reports by debias_factor(eps) = (e^eps + 1)/(e^eps - 1)
to make estimates unbiased.  Each user consumes exactly one coin from the
round's stream; replay with the same seed reproduces the transcript byte for
byte.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend


def keep_probability(eps):
    """Bernoulli parameter e^eps / (e^eps + 1) of sending the true sign.

    Pure law helper, no budget validation: it answers "what would the
    randomizer do at this eps" even for eps outside the protocol range.
    """
    e = math.exp(eps)
    return e / (e + 1.0)


def debias_factor(eps):
    """Server-side correction (e^eps + 1)/(e^eps - 1), the reciprocal of E[b]."""
    e = math.exp(eps)
    return (e + 1.0) / (e - 1.0)


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-report budget; the analysis (and this package) require 0 < eps <= 1.

    eps must also be large enough that e^eps - 1 is nonzero in float64
    (about 1.1e-16 and up), or debias_factor would divide by zero.
    """

    eps: float
    keep_prob: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if math.exp(self.eps) - 1.0 == 0.0:
            raise ValueError(f"eps = {self.eps} is too small: e^eps - 1 is 0 "
                             "in float64, so estimates cannot be debiased")
        object.__setattr__(self, "keep_prob", keep_probability(self.eps))


def randomize(rows, cols, coins, keep_prob):
    """Every user's report, one int8 +-1 each: the sign of H[row, col],
    flipped when the user's coin is at or above keep_prob.

    This is the whole client side of every protocol; they differ only in
    the column they pass.  User u's report depends on rows[u], cols[u]
    and coins[u] alone.
    """
    signs = backend.hadamard_signs(rows, cols)
    kept = np.asarray(coins, dtype=np.float64) < keep_prob
    return np.where(kept, signs, -signs)


# --- per-round randomness --------------------------------------------------

def _stream(master_seed, round_index, *labels):
    ss = np.random.SeedSequence([int(master_seed), int(round_index), *labels])
    return np.random.Generator(np.random.Philox(ss))


def round_streams(master_seed, round_index):
    """Two Philox streams for one protocol round: public row draws and coins.

    User u's row is draw u of the first stream and their coin is draw u of
    the second, so the transcript is a pure function of (master seed, round
    index, user index) no matter how the build is chunked or sharded.
    """
    return (_stream(master_seed, round_index, 0),
            _stream(master_seed, round_index, 1))


def setup_stream(master_seed, round_index, label):
    """Auxiliary stream for a round's one-off draws (partition, hash sampling)."""
    return _stream(master_seed, round_index, 2, int(label))


def draw_rows(rng, count, m):
    return rng.integers(0, m, size=count, dtype=np.uint64)


def draw_coins(rng, count):
    return rng.random(count)
