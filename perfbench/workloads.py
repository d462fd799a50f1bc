"""The three benchmark workloads, each driven through the public API.

Every workload makes its inputs from the seed alone, times one op at a
time in a closed loop (the next op starts when the previous one returns),
and checks each op's outputs; a failed check is a failed op.

- oracle: hada-oracle over zipf(1.1) users.  One op is one `fo.construct`
  at a fresh round, then one `fo.query_many` over queries drawn from the
  users.  Build-path heavy (partition, hashing, Philox draws, accumulate);
  its FWHT is tiny and it runs no scalar query.
- heavy: hada-heavy over six planted elements, one per top-level subtree,
  and a uniform background.  One op is one `hh.run` at a fresh seed.  The scalar-query tree walk
  dominates; it is the only workload that touches `prefixes` and
  `fo.query`.
- table: hrr over zipf(1.1) users at d = 2^24.  One op is one finalized
  `hrr.build`, then 1e6 scalar `hrr.query` calls (a pass of 1e5 takes
  about 30 ms, too short to time steadily).  The FWHT and the accumulate
  run over a 128 MiB table (the L3 cache of the 2-CPU Xeon VM this was
  tuned on is 300 MiB); partition and hashing are skipped.

Quality metrics use the heavy-hitter bar lambda of the heavy workload's
parameters, at each workload's own n and d.  A workload "reports" an
element when its estimate is at least 2 lambda: for heavy that is the
returned histogram, for oracle and table the distinct queried elements.
recall is the share of elements with true count >= 3 lambda that are
reported, precision the share of reported elements with true count
>= lambda, and false_pos the number reported below lambda.
"""

import contextlib
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from hadaldp import backend, datasets, freq_oracle, heavy_hitters, hrr
from hadaldp.prefixes import encode_prefix, make_code
from hadaldp.randomizer import PrivacyBudget

EPS = 1.0
ZIPF_S = 1.1
PROBES = 1000         # queries re-checked through a serialized copy
SCALAR_PROBES = 8     # queries re-checked through the scalar path
PLANTED = (0.100, 0.092, 0.084, 0.076, 0.068, 0.060)  # shares of n
HEAVY_N = 1_000_000
HEAVY_D = 1 << 32
LEVELS = 4            # tree depth of the heavy workload at these sizes
LAMBDA_PARAMS = heavy_hitters.HeavyParams(eps=EPS, beta=0.1, c_k=8.0,
                                          c_m=4.0, c_lambda=4.0)


@dataclass
class Quality:
    abs_err: np.ndarray     # |estimate - exact count| per distinct element
    qualifying: int         # elements with exact count >= 3 lambda
    found: int              # qualifying elements that were reported
    reported: int
    true_reported: int      # reported elements with exact count >= lambda

    @property
    def false_pos(self):
        return self.reported - self.true_reported


@dataclass
class Op:
    wall_s: float
    build_s: float          # time the users' reports were ingested in
    query_s: float          # time the queries were answered in
    queries: int
    state_bytes: int
    ok: bool
    digest: str             # of the op's estimates, for bit-identity
    quality: Quality
    level_sizes: list = field(default_factory=list)


def pooled(qualities):
    """Error and hit rates over several ops' outputs together.

    The mean absolute error is the gated figure: a heavy run returns about
    six elements, and over the ~70 errors of twelve runs a 99th
    percentile moves by ~25% between seeds where the mean moves by ~15%.
    An empty denominator makes its ratio vacuously 1.
    """
    err = np.concatenate([q.abs_err for q in qualities])
    qual = sum(q.qualifying for q in qualities)
    rep = sum(q.reported for q in qualities)
    return {"mean_abs_err": float(err.mean()),
            "p99_abs_err": float(np.percentile(err, 99)),
            "recall": sum(q.found for q in qualities) / qual if qual else 1.0,
            "precision": sum(q.true_reported for q in qualities) / rep
            if rep else 1.0}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def lookup(values, counts, xs):
    """Exact count of each x, 0 for elements nobody holds."""
    idx = np.searchsorted(values, xs)
    idx_c = np.minimum(idx, values.size - 1)
    found = (idx < values.size) & (values[idx_c] == xs)
    return np.where(found, counts[idx_c], 0)


def installed(tracer):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def block(tracer, name, calls):
    return tracer.block(name, calls) if tracer is not None else contextlib.nullcontext()


class _Zipf:
    """Zipf users, exact counts, and queries drawn from the users."""

    def __init__(self, seed, n, d, n_queries):
        self.seed, self.n, self.d, self.n_queries = seed, n, d, n_queries
        self.lam = heavy_hitters.lambda_threshold(LAMBDA_PARAMS, n, d)

    def setup(self):
        backend.set_backend("numpy")
        ds = datasets.gen_zipf(self.n, self.d, ZIPF_S,
                               np.random.default_rng([self.seed, 0]))
        self.elements = ds.elements
        values, counts = datasets.exact_counts(ds)
        pick = np.random.default_rng([self.seed, 1]).integers(
            0, self.n, size=self.n_queries)
        self.queries = self.elements[pick]
        self.truth = lookup(values, counts, self.queries)
        _, self.first = np.unique(self.queries, return_index=True)
        truth_u = self.truth[self.first]
        self.qualifying = truth_u >= 3 * self.lam
        return digest(self.elements, self.queries, self.truth)

    def quality(self, est):
        # over distinct elements: per query instance, the few heaviest
        # elements would fill the tail and make it one draw of their noise
        est_u = est[self.first]
        truth_u = self.truth[self.first]
        reported = est_u >= 2 * self.lam
        return Quality(abs_err=np.abs(est_u - truth_u),
                       qualifying=int(self.qualifying.sum()),
                       found=int((reported & self.qualifying).sum()),
                       reported=int(reported.sum()),
                       true_reported=int((truth_u[reported] >= self.lam).sum()))


class Oracle(_Zipf):
    """The size arguments are the benchmark's; only the self-tests pass
    smaller ones."""

    name = "oracle"
    quality_ops = 3

    def __init__(self, seed, n=1_000_000, d=1 << 32, n_queries=100_000):
        super().__init__(seed, n, d, n_queries)
        self.params = freq_oracle.OracleParams(
            eps=EPS, beta_prime=0.05, **freq_oracle.PROFILES["practical"])

    def check_setup(self):
        return True

    def op(self, i, tracer=None):
        with installed(tracer):
            t0 = time.perf_counter()
            state = freq_oracle.construct(self.elements, self.d, self.params,
                                          self.seed, round_index=i + 1)
            t1 = time.perf_counter()
            est = freq_oracle.query_many(state, self.queries)
            t2 = time.perf_counter()
        blob = freq_oracle.to_bytes(state)
        back = freq_oracle.from_bytes(blob)
        ok = bool(np.all(np.isfinite(est))) and np.array_equal(
            freq_oracle.query_many(back, self.queries[:PROBES]), est[:PROBES])
        for v, e in zip(self.queries[:SCALAR_PROBES].tolist(), est):
            q = freq_oracle.query(state, v)
            ok = ok and q == e and q in freq_oracle.row_estimates(state, v)
        return Op(wall_s=t2 - t0, build_s=t1 - t0, query_s=t2 - t1,
                  queries=est.size, state_bytes=len(blob), ok=ok,
                  digest=digest(est), quality=self.quality(est))


class Table(_Zipf):
    """Every op rebuilds round 1, so it must reproduce, bit for bit, the
    estimates that set-up checked against `hrr.query_direct`.  The size
    arguments are the benchmark's; only the self-tests pass smaller ones."""

    name = "table"
    quality_ops = 1     # every op is the same build

    def __init__(self, seed, n=1_000_000, d=1 << 24, n_queries=1_000_000):
        super().__init__(seed, n, d, n_queries)
        self.budget = PrivacyBudget(EPS)

    def setup(self):
        out = super().setup()
        self.query_list = self.queries.tolist()
        return out

    def check_setup(self):
        state = hrr.build(self.elements, self.d, self.budget, self.seed,
                          round_index=1, finalize=False)
        rng = np.random.default_rng([self.seed, 2])
        probes = (self.query_list[:SCALAR_PROBES // 2]
                  + rng.integers(0, self.d, size=SCALAR_PROBES // 2).tolist())
        direct = [hrr.query_direct(state, v) for v in probes]
        state.finalize()
        ok = direct == [hrr.query(state, v) for v in probes]
        blob = hrr.to_bytes(state)
        back = hrr.from_bytes(blob)
        self.state_bytes = len(blob)
        self.reference = np.array([hrr.query(state, v) for v in self.query_list])
        ok = ok and [hrr.query(back, v) for v in probes] == direct
        return ok and bool(np.all(np.isfinite(self.reference)))

    def op(self, i, tracer=None):
        n_q = len(self.query_list)
        with installed(tracer):
            t0 = time.perf_counter()
            state = hrr.build(self.elements, self.d, self.budget, self.seed,
                              round_index=1)
            t1 = time.perf_counter()
            with block(tracer, "hrr.query", n_q):
                est = [hrr.query(state, v) for v in self.query_list]
            t2 = time.perf_counter()
        est = np.array(est)
        ok = state.n_users == self.n and np.array_equal(est, self.reference)
        return Op(wall_s=t2 - t0, build_s=t1 - t0, query_s=t2 - t1,
                  queries=n_q, state_bytes=self.state_bytes, ok=ok,
                  digest=digest(est), quality=self.quality(est))


class Heavy:
    """Users and reports per second are over the whole `hh.run`; queries
    are the candidates the tree walk tests."""

    name = "heavy"
    # a run returns about six elements; pool twelve runs
    quality_ops = 12

    def __init__(self, seed):
        self.seed, self.n, self.d = seed, HEAVY_N, HEAVY_D
        self.params = LAMBDA_PARAMS
        self.lam = heavy_hitters.lambda_threshold(self.params, self.n, self.d)
        self.code = make_code(self.n, self.d)
        assert self.code.levels == LEVELS, self.code.levels
        self.tops = encode_prefix(self.d - 1, 1, self.code) + 1   # level-1 prefixes

    def setup(self):
        backend.set_backend("numpy")
        rng = np.random.default_rng([self.seed, 0])
        # one planted element per top-level subtree, so every seed walks
        # the same frontier of six and does the same work
        shift = (LEVELS - 1) * self.code.digit_bits
        tops = rng.choice(self.tops, size=len(PLANTED), replace=False)
        planted = [(int(t) << shift)
                   + int(rng.integers(0, min(1 << shift, self.d - (int(t) << shift))))
                   for t in tops]
        heavy = [(e, int(share * self.n)) for e, share in zip(planted, PLANTED)]
        ds = datasets.gen_planted(self.n, self.d, heavy, rng)
        self.elements = ds.elements
        self.values, self.counts = datasets.exact_counts(ds)
        self.qualifying = self.values[self.counts >= 3 * self.lam]
        return digest(self.elements)

    def check_setup(self):
        return True

    def walk_queries(self, level_sizes):
        """Candidates the walk tested: at level 1 the in-domain children of
        the root, below that B per survivor.  Exact when d - 1 has all
        digits B - 1 below level 1, as for d = 2^32."""
        return self.tops + self.code.branching * sum(level_sizes[:-1])

    def state_bytes(self, meta):
        """Computed: the L + 1 k x m float64 matrices the run builds."""
        return (meta["L"] + 1) * meta["k"] * meta["m"] * 8

    def op(self, i, tracer=None):
        with installed(tracer):
            t0 = time.perf_counter()
            hist = heavy_hitters.run(self.elements, self.d, self.params,
                                     (self.seed << 20) + i)
            t1 = time.perf_counter()
        els, est = hist.elements, hist.estimates
        ok = (hist.metadata["status"] == "ok" and els.size > 0
              and bool(np.all(np.isfinite(est)))
              and np.unique(els).size == els.size and int(els.max()) < self.d)
        truth = lookup(self.values, self.counts, els)
        q = Quality(abs_err=np.abs(est - truth),
                    qualifying=self.qualifying.size,
                    found=int(np.isin(self.qualifying, els).sum()),
                    reported=els.size,
                    true_reported=int((truth >= self.lam).sum()))
        sizes = hist.metadata["level_sizes"]
        return Op(wall_s=t1 - t0, build_s=t1 - t0, query_s=t1 - t0,
                  queries=self.walk_queries(sizes),
                  state_bytes=self.state_bytes(hist.metadata), ok=ok,
                  digest=digest(els, est), quality=q, level_sizes=sizes)


WORKLOADS = {w.name: w for w in (Oracle, Heavy, Table)}
