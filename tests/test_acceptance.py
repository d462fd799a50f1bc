"""Acceptance suite: thirteen checks, one printed verdict line each.

Exact checks (transform identities, privacy ratios, search determinism,
partition bookkeeping) admit no tolerance at all.  Statistical checks run
at fixed seeds and carry their tolerance derivation next to the number, so
a failure means the estimator drifted, not that the dice came up cold.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line.
"""

import math
import time

import numpy as np

from hadaldp import hrr
from hadaldp import freq_oracle as fo
from hadaldp import heavy_hitters as hh
from hadaldp.datasets import gen_planted, gen_zipf
from hadaldp.partition import take_partition
from hadaldp.prefixes import encode_prefix_batch, make_code
from hadaldp.randomizer import (PrivacyBudget, debias_factor, keep_probability,
                                randomize)

import hadamard_reference as hadamard
from exact_reference import exact_frequency, exact_heavy_hitters


def _verdict(num, ok, what, detail):
    print(f"[{num:>2}] {'PASS' if ok else 'FAIL'} {what} ({detail})")
    return ok


def _sign_matrix(m):
    idx = np.arange(m, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]).astype(np.int64) & 1
    return (1 - 2 * parity).astype(np.float64)


def test_a01_transform_equals_entry_formula_product():
    """fht == sign-matrix multiply, exactly, for every power of two up to
    4096 and 200 integer vectors each; applying it twice scales by m."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for t in range(13):
        m = 1 << t
        signs = _sign_matrix(m)
        x = rng.integers(-100, 100, size=(200, m)).astype(np.float64)
        once = hadamard.fht(x)
        ok &= np.array_equal(once, x @ signs)       # signs is symmetric
        ok &= np.array_equal(hadamard.fht(once), m * x)
        for row in x[:3]:
            ok &= np.array_equal(hadamard.naive_multiply(m, row),
                                 hadamard.fht(row))
    dt = time.perf_counter() - t0
    ok &= dt < 10
    assert _verdict(1, ok, "transform == entry-formula product, involution m*x",
                    f"m up to 4096, 200 vectors each, exact, {dt:.1f}s")


def test_a02_entry_formula_matches_recursive_doubling():
    """The AND-parity entry formula reproduces the doubling construction
    [[H,H],[H,-H]] for every order up to 256, including the 2x2 and 4x4
    matrices spelled out by hand."""
    t0 = time.perf_counter()
    ok = hadamard.hadamard_matrix(2).tolist() == [[1, 1], [1, -1]]
    ok &= hadamard.hadamard_matrix(4).tolist() == [
        [1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    m = 1
    kron = np.ones((1, 1), dtype=np.int64)
    while m <= 256:
        grid = np.array([[hadamard.entry(m, i, j) for j in range(m)]
                         for i in range(m)], dtype=np.int64)
        ok &= np.array_equal(grid, kron)
        ok &= np.array_equal(grid, hadamard.hadamard_matrix(m))
        kron = np.kron(h2, kron)
        m *= 2
    dt = time.perf_counter() - t0
    ok &= dt < 1
    assert _verdict(2, ok, "entry formula == recursive doubling",
                    f"orders 1..256 plus hand-written 2x2/4x4, {dt:.2f}s")


def test_a03_client_output_laws_are_ldp_exact():
    """For every column map a build feeds the client randomizer, element
    pair, and output, the exactly computed probability ratio stays at or
    under e^eps.  The law is read off `randomize`, the one function whose
    output the server aggregates, by forcing every coin both ways."""
    t0 = time.perf_counter()
    worst = 0.0
    for eps in (0.1, 0.5, 1.0):
        budget = PrivacyBudget(eps)
        p = keep_probability(eps)
        for m in (1, 2, 4, 8, 16):
            h, = fo.sample_family(1, m, seed=303, round_index=m)
            code = make_code(4, m)
            tau = max(1, code.levels - 1)
            columns = [
                lambda x: x,                                   # hrr
                h.eval_batch,                                  # hada-oracle
                lambda x: h.eval_batch(encode_prefix_batch(x, tau, code)),
            ]
            # user (v, r) holds element v and was handed row r
            v, r = (a.ravel() for a in np.meshgrid(
                np.arange(m, dtype=np.uint64), np.arange(m, dtype=np.uint64),
                indexing="ij"))
            for column in columns:
                cols = column(v)
                out = randomize(r, cols, np.full(v.size, 0.0), budget.keep_prob)
                flipped = randomize(r, cols, np.full(v.size, 1.0 - 1e-12),
                                    budget.keep_prob)
                assert np.isin(out, (-1, 1)).all() and np.array_equal(flipped, -out)
                kept = out.reshape(m, m).astype(np.float64)   # kept[v, r]
                # P[(r, b) | v] = p/m when b == kept[v, r], else (1-p)/m
                for b in (-1.0, 1.0):
                    law = np.where(kept == b, p, 1.0 - p) / m
                    worst = max(worst, float(law.max(axis=0).max()
                                             / law.min(axis=0).min()))
                    ratio = law.max(axis=0) / law.min(axis=0)
                    assert (ratio <= math.exp(eps) + 1e-12).all(), \
                        f"eps={eps} m={m}: ratio {ratio.max()}"
    dt = time.perf_counter() - t0
    ok = dt < 5
    assert _verdict(3, ok, "every client randomizer is eps-LDP",
                    f"worst output-law ratio {worst:.12f} <= e^eps + 1e-12, {dt:.1f}s")


def test_a04_point_mass_estimate_is_unbiased():
    """All 10^4 users hold element 3; across 200 independent builds the
    mean estimate may drift from n by at most 3 standard errors, taking
    the per-report variance bound c_eps^2."""
    t0 = time.perf_counter()
    n, builds = 10_000, 200
    budget = PrivacyBudget(1.0)
    elements = np.full(n, 3, dtype=np.uint64)
    ests = [hrr.query(hrr.build(elements, 8, budget, seed), 3)
            for seed in range(builds)]
    c = debias_factor(1.0)
    tol = 3 * c * math.sqrt(n / builds)
    drift = abs(float(np.mean(ests)) - n)
    dt = time.perf_counter() - t0
    ok = drift <= tol and dt < 60
    assert _verdict(4, ok, "point-mass estimator is unbiased",
                    f"|mean - n| = {drift:.1f} <= {tol:.1f}, {dt:.1f}s")


def test_a05_single_element_error_tail():
    """Per-build error of one element at n = 10^5, eps = 1: the bound
    c_eps * sqrt(2 n ln(2/beta')) at beta' = 0.01 may be exceeded in at
    most 3 of 200 builds (the analysis promises an expectation <= 2)."""
    t0 = time.perf_counter()
    n, beta_prime = 100_000, 0.01
    budget = PrivacyBudget(1.0)
    bound = debias_factor(1.0) * math.sqrt(2 * n * math.log(2 / beta_prime))
    ds = gen_planted(n, 1024, [(77, 3000)], np.random.default_rng(505))
    truth = exact_frequency(ds)[77]
    exceed = 0
    for seed in range(200):
        state = hrr.build(ds.elements, 1024, budget, seed)
        exceed += int(abs(hrr.query(state, 77) - truth) > bound)
    dt = time.perf_counter() - t0
    ok = exceed <= 3 and dt < 300
    assert _verdict(5, ok, "per-build element error respects the tail bound",
                    f"{exceed}/200 builds exceeded {bound:.0f}, {dt:.1f}s")


def _pooled_p95(n, seed0):
    params = fo.OracleParams(eps=1.0, beta_prime=0.05, c_m=4.0)
    errs = []
    for trial in range(20):
        rng = np.random.default_rng(seed0 + trial)
        ds = gen_zipf(n, 1 << 20, 1.1, rng)
        counts = exact_frequency(ds)
        state = fo.construct(ds.elements, ds.d, params, seed=seed0 + trial)
        vs = rng.choice(ds.elements, size=200)
        ests = fo.query_many(state, vs)
        errs.extend(abs(float(e) - counts[int(v)]) for v, e in zip(vs, ests))
    return float(np.percentile(errs, 95))


def test_a06_error_grows_like_sqrt_n():
    """Calibrate the p95 query error at n = 25000, then grow n fourfold:
    the error must land within [1.4, 2.6] times the calibration (2.0 would
    be perfect sqrt-n scaling)."""
    t0 = time.perf_counter()
    c = _pooled_p95(25_000, 600)
    grown = _pooled_p95(100_000, 660)
    ratio = grown / c
    dt = time.perf_counter() - t0
    ok = 1.4 * c <= grown <= 2.6 * c and dt < 600
    assert _verdict(6, ok, "p95 error scales like sqrt(n)",
                    f"p95 went {c:.0f} -> {grown:.0f}, ratio {ratio:.2f} in [1.4, 2.6], {dt:.0f}s")


def test_a07_row_majority_is_good_and_median_follows():
    """With a planted element at 5% of n, most of the k per-row estimates
    sit within the per-row noise allowance (1.54 sigma, where sigma =
    c_eps * sqrt(k n)), and whenever more than k/2 of them do, the median
    provably must as well; both are checked over 50 builds."""
    t0 = time.perf_counter()
    n = 100_000
    params = fo.OracleParams(eps=1.0, beta_prime=0.05, c_m=4.0)
    k = fo.repetitions_for(params)
    bound = 1.54 * debias_factor(1.0) * math.sqrt(k * n)
    majority = 0
    implied = True
    for trial in range(50):
        rng = np.random.default_rng(700 + trial)
        ds = gen_planted(n, 1 << 20, [(9_999, 5_000)], rng)
        truth = exact_frequency(ds)[9_999]
        state = fo.construct(ds.elements, ds.d, params, seed=trial)
        rows = fo.row_estimates(state, 9_999)
        good = int((np.abs(rows - truth) <= bound).sum())
        if good > k // 2:
            majority += 1
            # order statistics make this implication deterministic
            implied &= abs(fo.query(state, 9_999) - truth) <= bound
    dt = time.perf_counter() - t0
    ok = majority >= 45 and implied and dt < 600
    assert _verdict(7, ok, "row majority within bound, median follows",
                    f"majority in {majority}/50 trials (need 45), bound {bound:.0f}, "
                    f"median implication {'held' if implied else 'BROKE'}, {dt:.0f}s")


def _level_tables(elements, code):
    tables = []
    for tau in range(1, code.levels + 1):
        vals, cnts = np.unique(encode_prefix_batch(elements, tau, code),
                               return_counts=True)
        tables.append((vals, cnts))
    return tables


def _table_count(tables, tau, prefixes):
    """Exact level-tau count of each prefix, 0 where none occurs."""
    vals, cnts = tables[tau - 1]
    i = np.minimum(np.searchsorted(vals, prefixes), vals.size - 1)
    return np.where(vals[i] == prefixes, cnts[i], 0).astype(np.float64)


def test_a08_search_guarantees_are_deterministic():
    """Drive the bare tree walk with exact counts and with worst-case
    +-lambda perturbations on 50 planted instances (d = 2^32, n = 10^5,
    lambda = 500).  Exact counts keep exactly {f >= 2 lambda}; under the
    perturbations everything >= 3 lambda must survive and nothing under
    lambda may, judged against the brute-force counter."""
    t0 = time.perf_counter()
    n, d, lam = 100_000, 1 << 32, 500.0
    code = make_code(n, d)
    ok = True
    for inst in range(50):
        rng = np.random.default_rng(800 + inst)
        elems = []
        while len(elems) < 8:
            cand = int(rng.integers(0, d))
            if cand not in elems:
                elems.append(cand)
        counts = [100, 499, 700, 1200, 1500, 2500,
                  int(rng.integers(50, 4000)), int(rng.integers(50, 4000))]
        ds = gen_planted(n, d, list(zip(elems, counts)), rng)
        tables = _level_tables(ds.elements, code)

        exact = lambda tau, ps: _table_count(tables, tau, ps)

        def warped(tau, ps):
            f = _table_count(tables, tau, ps)
            return np.where(f < 2 * lam, f + lam, f - lam)

        res_exact = hh.search_with_oracle(exact, code, lam)
        ok &= set(res_exact.leaves.tolist()) == exact_heavy_hitters(ds, 2 * lam)
        res_warp = hh.search_with_oracle(warped, code, lam)
        for leaves in (set(res_exact.leaves.tolist()),
                       set(res_warp.leaves.tolist())):
            ok &= exact_heavy_hitters(ds, 3 * lam) <= leaves
            ok &= leaves <= exact_heavy_hitters(ds, lam)
    dt = time.perf_counter() - t0
    ok &= dt < 30
    assert _verdict(8, ok, "tree-walk guarantees are deterministic",
                    f"50 instances, exact == {{f >= 2L}}, warped keeps >=3L "
                    f"and drops < L, {dt:.1f}s")


def test_a09_end_to_end_discovery_at_the_forced_threshold():
    """Full private protocol at n = 10^5, d = 2^32, eps = 1, with the
    threshold forced down so 3 lambda is 2% of n, and ten elements planted
    just above it.  Needs recall 1.0, no sub-lambda returns, and estimates
    within 5 median-noise sigmas, each in >= 18 of 20 runs.

    The forced lambda (667) sits far below the level-estimate noise floor
    (about 3240 at eps/2 and n L = 4*10^5 reports), so the frontier fills
    with noise survivors; runs are capped by a frontier guard and counted
    as failures when they trip it.  The check is expected to fail; it
    stays honest about what this regime of the protocol cannot do."""
    t0 = time.perf_counter()
    n, d = 100_000, 1 << 32
    base = hh.lambda_threshold(
        hh.HeavyParams(eps=1.0, beta=0.1, c_m=4.0, c_lambda=1.0), n, d)
    params = hh.HeavyParams(eps=1.0, beta=0.1, c_m=4.0,
                            c_lambda=(2000.0 / 3.0) / base)
    lam = hh.lambda_threshold(params, n, d)
    # median-of-k noise of the refinement oracle: 1.2533 * c_{eps/2} * sqrt(n)
    est_bound = 5.0 * 1.2533 * debias_factor(0.5) * math.sqrt(n)
    planted = [(int(v), 2100) for v in
               np.random.default_rng(900).choice(d, size=10, replace=False)]
    targets = {v for v, _ in planted}

    recall_runs = clean_runs = est_runs = overflows = 0
    for seed in range(20):
        ds = gen_planted(n, d, planted, np.random.default_rng(901 + seed))
        counts = exact_frequency(ds)
        try:
            hist = hh.run(ds.elements, d, params, seed, max_frontier=300_000)
        except hh.FrontierOverflow:
            overflows += 1
            continue
        got = dict(zip(hist.elements.tolist(), hist.estimates.tolist()))
        recall_runs += int(targets <= set(got))
        clean_runs += int(all(counts.get(v, 0) >= lam for v in got))
        est_runs += int(all(abs(e - counts.get(v, 0)) <= est_bound
                            for v, e in got.items()))
    dt = time.perf_counter() - t0
    ok = recall_runs >= 18 and clean_runs >= 18 and est_runs >= 18 and dt < 1200
    assert _verdict(9, ok, "end-to-end discovery at the forced threshold",
                    f"lambda {lam:.0f}: recall {recall_runs}/20, clean "
                    f"{clean_runs}/20, est-in-{est_bound:.0f} {est_runs}/20, "
                    f"frontier overflows {overflows}/20, {dt:.0f}s")


def test_a10_partition_bookkeeping_sweep():
    """1000 (n, k, seed) triples: subsets cover [n) exactly once and are
    disjoint."""
    t0 = time.perf_counter()
    master = np.random.default_rng(1000)
    ok = True
    for _ in range(1000):
        n = int(master.integers(0, 400))
        k = int(master.integers(1, 40))
        part = take_partition(n, k,
                              np.random.default_rng(master.integers(1 << 32)))
        members = part.members()
        ok &= len(members) == k
        ok &= np.array_equal(np.sort(np.concatenate(members + [np.empty(0, dtype=np.int64)])),
                             np.arange(n))
        ok &= int(part.sizes.sum()) == n
    dt = time.perf_counter() - t0
    ok &= dt < 5
    assert _verdict(10, ok, "partitions cover and stay disjoint",
                    f"1000 triples, exact, {dt:.1f}s")


def test_a11_prefix_counts_never_grow_with_depth():
    """On 100 random datasets, every user's own prefix count is
    non-increasing level by level (an element's ancestors are at least as
    frequent as the element)."""
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        rng = np.random.default_rng(1100 + i)
        n = int(rng.integers(50, 400))
        d = int(rng.integers(2, 1 << 20))
        elements = rng.integers(0, d, size=n, dtype=np.uint64)
        code = make_code(n, d)
        prev = np.full(n, n, dtype=np.int64)  # level 0: the root holds everyone
        for tau in range(1, code.levels + 1):
            prefixes = encode_prefix_batch(elements, tau, code)
            _, inverse, cnts = np.unique(prefixes, return_inverse=True,
                                         return_counts=True)
            own = cnts[inverse]
            ok &= bool((own <= prev).all())
            prev = own
    dt = time.perf_counter() - t0
    ok &= dt < 10
    assert _verdict(11, ok, "prefix counts are monotone in depth",
                    f"100 datasets, every element, exact, {dt:.1f}s")


def test_a12_server_cost_shape():
    """Hashed-oracle build time grows near-linearly in n (factor <= 5 for
    4x the users), while the direct oracle at d = 2^24 pays the
    domain-sized state it is supposed to: a server table at least 100x
    larger than the hashed one for the same users."""
    params = fo.OracleParams(eps=1.0, beta_prime=0.05, c_m=4.0)
    rng = np.random.default_rng(1200)
    big = rng.integers(0, 1 << 20, size=400_000, dtype=np.uint64)

    def build_ms(elements, rep):
        t0 = time.perf_counter()
        fo.construct(elements, 1 << 20, params, seed=rep)
        return (time.perf_counter() - t0) * 1e3

    # each repetition times one small and one large build back to back, so
    # a change in machine speed between repetitions hits both sides alike
    t0 = time.perf_counter()
    pairs = [(build_ms(big[:100_000], rep), build_ms(big, rep))
             for rep in range(3)]
    small_ms = min(small for small, _ in pairs)
    large_ms = min(large for _, large in pairs)
    factor = large_ms / small_ms

    n_users = 10_000
    users = rng.integers(0, 1 << 24, size=n_users, dtype=np.uint64)
    t1 = time.perf_counter()
    wide = hrr.build(users, 1 << 24, PrivacyBudget(1.0), seed=1)
    wide_ms = (time.perf_counter() - t1) * 1e3
    hashed = fo.construct(users, 1 << 24, params, seed=1)
    state_ratio = (wide.m * 8) / (hashed.matrix.nbytes)

    dt = time.perf_counter() - t0
    ok = (factor <= 5.0 and wide.m == 1 << 24 and state_ratio >= 100
          and dt < 600)
    assert _verdict(12, ok, "near-linear hashed build; domain-sized direct state",
                    f"4x users -> {factor:.2f}x time; direct table {wide.m} cells "
                    f"({wide_ms:.0f}ms) vs hashed {hashed.matrix.size}, "
                    f"ratio {state_ratio:.0f}x, {dt:.0f}s")


def _normal_tail(t):
    """Pr[Z > t] for a standard normal Z."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def _solve_tail(tail, beta):
    """The t in [0, 40] with tail(t) = beta, for tail decreasing in t."""
    lo, hi = 0.0, 40.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tail(mid) > beta else (lo, mid)
    return (lo + hi) / 2


def _median_tail(k, t):
    """Pr[|X_(j)| > t] for the lower-middle order statistic X_(j),
    j = ceil(k/2), of k standard normals: it is above t when at most
    j - 1 of them are, below -t when at least j are."""
    q = _normal_tail(t)

    def at_least(i):
        return sum(math.comb(k, s) * q ** s * (1 - q) ** (k - s)
                   for s in range(i, k + 1))

    j = (k + 1) // 2
    return at_least(k - j + 1) + at_least(j)


def test_a13_oracle_error_follows_the_beta_law():
    """The oracle's (1 - beta') error quantile over the analysis' bound
    (1/eps) sqrt(n ln(1/beta')) follows
    r(beta') = sqrt(pi/2) c(eps) eps z_(beta'/2) / sqrt(ln(1/beta')),
    two-sided, on the theory profile at beta' = 1e-1, 1e-2 and 1e-3; and
    r(1e-3) / r(1e-1) stays below sqrt(ln 1e3 / ln 1e1), the ratio an
    error growing like log(1/beta') would give.

    The law: a row estimate is k c times a cell that sums about n/k
    reports of +-1, so its noise is c sqrt(k n); the median of k such
    rows has sd sqrt(pi / (2k)) c sqrt(k n) = sqrt(pi/2) c sqrt(n), and
    its |error| exceeds z_(beta'/2) times that with probability beta'.

    The band, fixed from the parameters alone:
    - Finite k: the law is the large-k form of the median.  For
      Gaussian rows the quantile of the lower-middle of k is exact
      (`_median_tail`); its ratio g to the law's runs from 0.988 at
      k = 19 to 1.007 at the even k = 56, so the band spans 1 and g.
    - Sampling: the empirical (1 - beta') quantile of N half-normal
      samples has relative sd sqrt(beta' (1 - beta') / N) / (2 phi(z) z);
      the band adds 4 of them.  At N = 200,000 that is 0.8%, 1.2% and
      2.4% from beta' = 1e-1 to 1e-3; six one-sided 4-sigma tails leave
      a false failure below 2e-4.
    - Collisions: each row's cell also holds about n/m other users'
      mass, n/m over the median's sd, 0.2% on this profile.
    - The estimates lie on a lattice of step k c (an integer cell times
      k c), and a quantile read off a lattice is off by up to half a
      step (1.5% to 2.2% here).  Each error is dithered by a uniform
      draw over one step, which makes the lattice's law continuous and
      adds a relative variance of (k c)^2 / (12 sd^2), below 0.2%.

    The errors come from 40 builds of the same 10^5 users at seeds
    1300.., 5000 distinct random elements each; distinct elements read
    different columns, whose noise the transform leaves uncorrelated.
    The practical profile (c_m = 4) is printed beside it, with the mean
    error, and has no bar."""
    t0 = time.perf_counter()
    eps, n, d, builds, per_build = 1.0, 100_000, 1 << 32, 40, 5000
    c = debias_factor(eps)
    users = np.random.default_rng(1300).integers(0, d, size=n, dtype=np.uint64)
    values, counts = np.unique(users, return_counts=True)

    def ratio(profile, beta):
        """(measured quantile / bound / r(beta'), g, relative sd, mean)."""
        params = fo.OracleParams(eps=eps, beta_prime=beta,
                                 **fo.PROFILES[profile])
        k, m = fo.repetitions_for(params), fo.hash_range_for(params, n)
        errs = []
        for b in range(builds):
            state = fo.construct(users, d, params, seed=1300 + b)
            vs = np.unique(np.random.default_rng([1300, b]).integers(
                0, d, size=per_build + 100, dtype=np.uint64))[:per_build]
            at = np.minimum(np.searchsorted(values, vs), values.size - 1)
            errs.append(fo.query_many(state, vs)
                        - np.where(values[at] == vs, counts[at], 0))
        err = np.concatenate(errs)
        err += k * c * (np.random.default_rng(1301).random(err.size) - 0.5)
        z = _solve_tail(lambda t: 2 * _normal_tail(t), beta)
        law = math.sqrt(math.pi / 2) * c * eps * z / math.sqrt(math.log(1 / beta))
        measured = np.quantile(np.abs(err), 1 - beta) / \
            fo.theoretical_error_bound(params, n)
        g = _solve_tail(lambda t: _median_tail(k, t), beta) / \
            (z * math.sqrt(math.pi / (2 * k)))
        phi = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        sd = math.sqrt(beta * (1 - beta) / err.size) / (2 * phi * z)
        collide = (n / m) / (math.sqrt(math.pi / 2) * c * math.sqrt(n))
        band = (min(1.0, g) - collide - 4 * sd, max(1.0, g) + collide + 4 * sd)
        return measured / law, band, measured, float(err.mean())

    ok, shown, measured = True, [], {}
    for beta in (1e-1, 1e-2, 1e-3):
        rho, (lo, hi), measured[beta], mean = ratio("theory", beta)
        ok &= lo <= rho <= hi
        shown.append(f"{beta:g}: {rho:.3f} in [{lo:.3f}, {hi:.3f}], "
                     f"mean {mean:+.0f}")
    shape = measured[1e-3] / measured[1e-1]
    ok &= shape < math.sqrt(math.log(1e3) / math.log(1e1))
    practical = [ratio("practical", beta) for beta in (1e-1, 1e-2, 1e-3)]
    dt = time.perf_counter() - t0
    ok &= dt < 60
    assert _verdict(13, ok, "oracle error follows the beta' law, two-sided",
                    f"theory {'; '.join(shown)}; r(1e-3)/r(1e-1) "
                    f"{shape:.3f} < {math.sqrt(3):.3f}; c_m = 4: "
                    + ", ".join(f"{p[0]:.3f} (mean {p[3]:+.0f})"
                                for p in practical) + f"; {dt:.0f}s")
