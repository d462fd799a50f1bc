"""Heavy hitters over huge domains via a prefix-tree of hashed oracles.

The domain is read as L base-B digits (B ~ sqrt(n)).  Users are split into
L groups; group tau answers for the level-tau prefix of its element, at
budget eps/2, through the hashed median-of-k oracle with ONE hash family
shared by every level.  The server walks the tree: it keeps a frontier of
candidate prefixes and, once per level, builds that level's oracle, asks
it about every child of the frontier at once (estimates scaled by L, since
only n/L users answered), keeps the children whose estimate clears
2*lambda and drops the oracle.  Surviving leaves get re-estimated by a final
refinement oracle built from ALL users (again at eps/2, unscaled), so each
user reports exactly twice and the whole protocol spends eps (a walk with
no leaf builds no refinement).  Every oracle is `freq_oracle`'s, built from
`HeavyParams.oracle_params` and the family `fo.family_for` draws; level
tau's users are those whose partition `assignment` is tau - 1.

If every estimate the walk sees is within lambda of the truth, the output
provably contains every element of frequency >= 3*lambda, contains nothing
below lambda, and every frontier stays within n/lambda candidates.  When
lambda is set below the noise these properties collapse and the frontier
can grow geometrically; the run warns at 2n/lambda per the contract and
only stops early if the caller opts into `max_frontier`.
"""

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import freq_oracle as fo
from .hashing import element_array
from .partition import take_partition
from .prefixes import (children_of, encode_prefix, encode_prefix_batch,
                       make_code)
from .randomizer import PrivacyBudget, debias_factor, setup_stream

logger = logging.getLogger(__name__)


class FrontierOverflow(RuntimeError):
    """Raised when an opt-in max_frontier guard is exceeded mid-search."""


@dataclass(frozen=True)
class HeavyParams:
    """Protocol constants; c_k and c_m default to the oracle's ("practical")."""

    eps: float
    beta: float
    c_k: float = fo.DEFAULT_CK
    c_m: float = fo.DEFAULT_CM
    c_lambda: float = 1.0

    def __post_init__(self):
        PrivacyBudget(self.eps)  # range check, (0, 1]
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0 < self.c_lambda < math.inf:
            raise ValueError(
                f"c_lambda must be finite and positive, got {self.c_lambda}")
        # c_k and c_m go to the constituent oracles, which check them
        self.oracle_params(self.beta)

    def oracle_params(self, beta_prime):
        """The parameters of every constituent oracle: budget eps/2."""
        return fo.OracleParams(eps=self.eps / 2.0, beta_prime=beta_prime,
                               c_k=self.c_k, c_m=self.c_m)


def lambda_threshold(params, n, d):
    """(c_lambda/eps) * sqrt(n * log2(d) * ln(n/beta) / ln(n))."""
    if n < 2:
        return math.inf
    bits = max(1.0, math.log2(d))
    return (params.c_lambda / params.eps) * math.sqrt(
        n * bits * math.log(n / params.beta) / math.log(n))


def level_noise_sigma(params, n, d):
    """Predicted noise sigma of a level estimate: sqrt(pi/2) * c * sqrt(n*L).

    c = debias_factor(eps/2) and L is the tree depth for (n, d).  Each of
    the k rows of a level oracle sums about n/(L*k) reports of magnitude c,
    scaled by L*k; the median of k such rows shrinks the spread by
    sqrt(pi/(2k)).  The walk keeps a child iff its estimate clears 2*lambda,
    so 2*lambda/sigma says how many sigmas of noise that bar stands above.
    """
    levels = make_code(n, d).levels
    return (math.sqrt(math.pi / 2.0) * debias_factor(params.eps / 2.0)
            * math.sqrt(n * levels))


def level_cell_bar(params, n, d):
    """The least median cell t whose level estimate clears 2*lambda; inf
    when lambda is.

    A level oracle answers float64(median cell) * c * k, with c =
    debias_factor(eps/2) and k its rows, and the walk scales that by L,
    so a level estimate is a whole number of steps L * c * k, and the
    walk keeps exactly the candidates whose median cell is t or more.
    t is found with the walk's own float expression, L * (float(t) * c
    * k), against its own bar, 2.0 * lambda.
    """
    lam = lambda_threshold(params, n, d)
    if not math.isfinite(lam):
        return math.inf
    levels = make_code(n, d).levels
    factor = debias_factor(params.eps / 2.0)
    k = fo.repetitions_for(params.oracle_params(params.beta / (n * levels)))
    bar = 2.0 * lam
    t = math.ceil(bar / (levels * factor * k))
    while levels * (float(t) * factor * k) < bar:
        t += 1
    while levels * (float(t - 1) * factor * k) >= bar:
        t -= 1
    return t


def level_noise_survival(params, n, d):
    """P(median cell >= cell_bar) for a level-oracle prefix no user holds:
    the chance that pure noise keeps a candidate; 0.0 when the bar is inf.

    Each of a level's round(n/L) users lands in a given row with
    probability 1/k and adds a fair +-1 there; `_median_survival` has
    the law of a cell and of the median of k of them.
    """
    t = level_cell_bar(params, n, d)
    if not math.isfinite(t):
        return 0.0
    levels = make_code(n, d).levels
    k = fo.repetitions_for(params.oracle_params(params.beta / (n * levels)))
    return _median_survival(round(n / levels), k, t)


def _median_survival(users, k, t):
    """P(median of k cells >= t), t >= 1, where each of `users` users adds
    a fair +-1 to a given cell with probability 1/k.

    A cell's characteristic function is (1 - 1/k + cos(theta)/k)^users;
    its inverse FFT, on a grid of 2^j points that spans the cell's whole
    range or at least 80 standard deviations (sqrt(users/k)), is the
    cell's law, so any wrap-around is beyond 40 of them.  Taking the
    rows as independent, the median, the ceil(k/2)-th smallest cell, is
    t or more iff at least k - floor((k-1)/2) cells are: a
    Binomial(k, P(cell >= t)) tail.  Rows of fixed sizes would be wrong:
    a row of even size always has an even cell.
    """
    span = min(2 * users + 1, 80.0 * math.sqrt(users / k) + 1.0)
    size = 1 << max(1, math.ceil(math.log2(span)))
    if t >= size // 2:
        return 0.0
    theta = np.linspace(0.0, math.pi, size // 2 + 1)
    law = np.fft.irfft((1.0 - 1.0 / k + np.cos(theta) / k) ** users, size)
    p = float(np.clip(law[t:size // 2], 0.0, None).sum())
    return math.fsum(math.comb(k, i) * p ** i * (1.0 - p) ** (k - i)
                     for i in range(k - (k - 1) // 2, k + 1))


@dataclass
class SearchResult:
    leaves: np.ndarray    # uint64 level-L prefixes (= elements) that survived
    level_sizes: list     # |frontier| after each level 1..L


def search_with_oracle(oracle, code, lam, *, max_frontier=None,
                       on_level=None):
    """The bare tree walk, decoupled from privacy noise.

    `oracle(tau, candidates)` gets the level-tau candidates as a uint64
    array and answers with a float array of their estimates, one per
    candidate; a candidate survives iff its estimate is >= 2*lam.  Feeding
    exact counts (or exact counts perturbed by at most lam) makes the walk's
    guarantees exact, which is how the deterministic tests drive it.
    """
    frontier = np.zeros(1, dtype=np.uint64)
    sizes = []
    for tau in range(1, code.levels + 1):
        candidates = children_of(frontier, code)
        # B^L generally overshoots d; drop prefixes no element of [0, d)
        # can have, so the walk never wanders into the padding overhang
        candidates = candidates[candidates <= encode_prefix(code.domain - 1,
                                                            tau, code)]
        if max_frontier is not None and candidates.size > max_frontier:
            raise FrontierOverflow(
                f"level {tau}: {candidates.size} candidates exceed the "
                f"max_frontier guard of {max_frontier}")
        est = oracle(tau, candidates)
        # a scalar would broadcast and keep or drop the whole level at once
        if not (isinstance(est, np.ndarray) and est.dtype.kind == "f"
                and est.shape == candidates.shape):
            raise ValueError(f"level {tau}: the oracle must answer a float "
                             f"array of one estimate per candidate, "
                             f"{candidates.size} in all")
        frontier = candidates[est >= 2.0 * lam]
        sizes.append(frontier.size)
        if on_level is not None:
            on_level(tau, frontier.size)
        if frontier.size == 0:
            break
    return SearchResult(leaves=frontier, level_sizes=sizes)


@dataclass
class SuccinctHistogram:
    elements: np.ndarray    # uint64, sorted by estimate descending
    estimates: np.ndarray   # float64
    metadata: dict

    def __len__(self):
        return int(self.elements.size)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("element,estimate\n")
            for e, x in zip(self.elements, self.estimates):
                fh.write(f"{int(e)},{float(x)!r}\n")

    def write_meta(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _empty_histogram(metadata):
    return SuccinctHistogram(elements=np.empty(0, dtype=np.uint64),
                             estimates=np.empty(0, dtype=np.float64),
                             metadata=metadata)


def run(elements, d, params, seed, *, max_frontier=None):
    """Full two-report protocol; returns the succinct histogram.

    Every user lands in exactly one level oracle (their level group) and in
    the refinement oracle, each report randomized at eps/2.  Level-tau
    estimates are L * oracle answer; refinement estimates are unscaled and
    are what the histogram reports.  An opt-in `max_frontier` below 1
    raises ValueError with the other input checks, before any work.
    """
    fo.check_domain(d)
    if max_frontier is not None and max_frontier < 1:
        raise ValueError(f"max_frontier must be at least 1, got {max_frontier}")
    elements = element_array(elements, d)
    n = int(elements.size)
    meta = {"protocol": "hada-heavy", "n": n, "d": int(d),
            "eps": params.eps, "beta": params.beta, "c_k": params.c_k,
            "c_m": params.c_m, "c_lambda": params.c_lambda, "seed": int(seed),
            "reports_per_user": 2, "budget_per_report": params.eps / 2.0}
    if n == 0:
        logger.warning("no users; returning an empty histogram")
        meta.update({"status": "empty-input", "lambda": math.inf})
        return _empty_histogram(meta)

    code = make_code(n, d)
    lam = lambda_threshold(params, n, d)
    levels = code.levels
    sigma = level_noise_sigma(params, n, d)
    meta.update({"B": code.branching, "L": levels, "lambda": lam,
                 "level_noise_sigma": sigma,
                 "threshold_over_sigma": 2.0 * lam / sigma,
                 "cell_bar": level_cell_bar(params, n, d),
                 "noise_survival": level_noise_survival(params, n, d)})
    if lam >= n:
        logger.warning(
            "lambda = %.1f is not below n = %d; no element can qualify, "
            "returning an empty histogram", lam, n)
        meta["status"] = "lambda-at-or-above-n"
        return _empty_histogram(meta)

    beta_prime = params.beta / (n * levels)
    oracle_params = params.oracle_params(beta_prime)
    # One hash family serves every constituent oracle, so its range must
    # satisfy the largest of them: the refinement oracle over all n users.
    hashes = fo.family_for(oracle_params, n, seed)
    meta.update({"k": len(hashes), "m": hashes[0].m, "beta_prime": beta_prime})

    level = take_partition(n, levels, setup_stream(seed, 0, 0)).assignment
    warn_at = 2.0 * n / lam

    def level_oracle(tau, prefixes):
        # a starved level builds an empty oracle, whose estimates are all
        # 0.0: every candidate it is asked about dies at the 2*lambda bar
        enc = encode_prefix_batch(
            elements.take(np.flatnonzero(level == tau - 1)), tau, code)
        d_tau = encode_prefix(d - 1, tau, code) + 1
        state = fo.construct(enc, d_tau, oracle_params, seed,
                             hashes=hashes, round_index=tau)
        # one fo.query per candidate while the benchmark harness counts the
        # walk's work in scalar query calls; fo.query_many once it does not
        return levels * np.array([fo.query(state, p) for p in prefixes.tolist()])

    def on_level(tau, kept):
        if kept > warn_at:
            logger.warning(
                "level %d kept %d candidates, above 2n/lambda = %.0f; the "
                "accuracy assumption behind the search looks violated",
                tau, kept, warn_at)

    search = search_with_oracle(level_oracle, code, lam,
                                max_frontier=max_frontier, on_level=on_level)
    meta["level_sizes"] = search.level_sizes
    meta["status"] = "ok"
    if search.leaves.size == 0:
        return _empty_histogram(meta)

    refinement = fo.construct(elements, d, oracle_params, seed,
                              hashes=hashes, round_index=levels + 1)
    estimates = fo.query_many(refinement, search.leaves)
    order = np.argsort(-estimates, kind="stable")
    return SuccinctHistogram(elements=search.leaves[order],
                             estimates=estimates[order], metadata=meta)
