import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hadaldp import freq_oracle as fo
from hadaldp import heavy_hitters as hh
from hadaldp.datasets import gen_planted
from hadaldp.prefixes import encode_prefix, make_code

from exact_reference import exact_frequency


def params(**kw):
    base = dict(eps=1.0, beta=0.1, c_m=4.0)
    base.update(kw)
    return hh.HeavyParams(**base)


def test_threshold_formula():
    # ln(n/beta)/ln(n) is exactly 6/5 here, so the value is closed-form
    lam = hh.lambda_threshold(params(), 100_000, 1 << 20)
    assert lam == pytest.approx(math.sqrt(2_400_000.0))
    assert hh.lambda_threshold(params(c_lambda=2.0), 100_000, 1 << 20) \
        == pytest.approx(2 * lam)
    assert hh.lambda_threshold(params(eps=0.5), 100_000, 1 << 20) \
        == pytest.approx(2 * lam)
    # tiny domains still count one digit's worth of bits
    assert hh.lambda_threshold(params(), 100_000, 2) \
        == pytest.approx(math.sqrt(120_000.0))
    assert hh.lambda_threshold(params(), 1, 1 << 20) == math.inf


def test_level_noise_sigma_by_hand():
    # n = 10^5, d = 2^32: B = 256, L = 4, reports at eps/2 = 0.5
    c = (math.exp(0.5) + 1.0) / (math.exp(0.5) - 1.0)
    sigma = math.sqrt(math.pi / 2.0) * c * math.sqrt(100_000 * 4)
    assert hh.level_noise_sigma(params(), 100_000, 1 << 32) == pytest.approx(sigma)
    assert 3230 < sigma < 3245
    # the threshold does not enter sigma; eps does, through c
    assert hh.level_noise_sigma(params(c_lambda=7.0), 100_000, 1 << 32) \
        == pytest.approx(sigma)
    # n = 10^5, d = 2^16: L = 2
    assert hh.level_noise_sigma(params(), 100_000, 1 << 16) \
        == pytest.approx(sigma / math.sqrt(2.0))


def test_run_records_the_level_noise():
    # 50 users against a 2^32 domain: B = 4, L = 16; the run stops before
    # the walk but still records what it predicted
    hist = hh.run(np.zeros(50, dtype=np.uint64), 1 << 32, params(), seed=0)
    meta = hist.metadata
    c = (math.exp(0.5) + 1.0) / (math.exp(0.5) - 1.0)
    sigma = math.sqrt(math.pi / 2.0) * c * math.sqrt(50 * 16)
    assert meta["L"] == 16
    assert meta["level_noise_sigma"] == pytest.approx(sigma)
    assert meta["threshold_over_sigma"] == pytest.approx(2 * meta["lambda"] / sigma)


def test_params_validation():
    for bad in ({"eps": 1.5}, {"eps": 1e-17}, {"eps": math.nan},
                {"beta": 1.0},
                {"c_lambda": 0.0}, {"c_lambda": math.nan},
                {"c_lambda": math.inf}, {"c_k": math.nan}, {"c_k": math.inf},
                {"c_k": 0.5},
                {"c_m": math.nan}, {"c_m": math.inf},
                {"scheme": "best"}):
        with pytest.raises(ValueError):
            params(**bad)


# --- the bare tree walk, driven by exact or adversarial counters ---

MULTISET = Counter({7: 35, 200: 20, 201: 19, 100: 21, 9: 5})
CODE = make_code(16, 256)  # B = 4, L = 4


def prefix_counts():
    table = Counter()
    for v, c in MULTISET.items():
        for tau in range(1, CODE.levels + 1):
            table[(tau, encode_prefix(v, tau, CODE))] += c
    return table


def counting_oracle(table):
    """Batch oracle answering each level-tau prefix with its table count."""
    return lambda tau, ps: np.array([float(table[(tau, p)]) for p in ps.tolist()])


def test_exact_counts_keep_exactly_the_qualified():
    """With truthful answers a leaf survives iff its own count clears
    2*lambda, because ancestor counts only ever exceed it."""
    res = hh.search_with_oracle(counting_oracle(prefix_counts()), CODE, 10.0)
    assert res.leaves.dtype == np.uint64
    assert sorted(res.leaves.tolist()) == [7, 100, 200]
    assert len(res.level_sizes) == CODE.levels


def test_lambda_sized_adversarial_noise_keeps_the_guarantees():
    """Answers off by exactly lambda, signed to do maximum damage: light
    prefixes are inflated, heavy ones deflated.  Everything >= 3*lambda
    must still come out; nothing < lambda may."""
    lam = 10.0
    exact = counting_oracle(prefix_counts())

    def adversary(tau, ps):
        f = exact(tau, ps)
        return np.where(f < 2 * lam, f + lam, f - lam)

    res = hh.search_with_oracle(adversary, CODE, lam)
    leaves = set(res.leaves.tolist())
    must_keep = {v for v, c in MULTISET.items() if c >= 3 * lam}
    must_drop = {v for v, c in MULTISET.items() if c < lam}
    assert must_keep == {7}
    assert must_keep <= leaves
    assert not (leaves & must_drop)
    assert all(MULTISET[v] >= lam for v in leaves)
    # pinned: 200 (f = 2*lambda) and 100 (f = 21) are deflated out at the
    # bar, 201 (f = 19) is inflated in; all three calls are legal
    assert leaves == {7, 201}


def test_zero_oracle_finds_nothing():
    res = hh.search_with_oracle(lambda t, ps: np.zeros(ps.size), CODE, 5.0)
    assert res.leaves.size == 0
    assert res.level_sizes == [0]


def test_frontier_guard_trips():
    code = make_code(256, 4096)  # B = 16, L = 3
    always_keep = lambda t, ps: np.full(ps.size, 1e9)
    with pytest.raises(hh.FrontierOverflow):
        hh.search_with_oracle(always_keep, code, 1.0, max_frontier=100)
    # generous guard: no trip, every leaf survives
    res = hh.search_with_oracle(always_keep, code, 1.0, max_frontier=4096)
    assert len(res.leaves) == 4096


def test_oracle_answer_must_be_one_float_per_candidate():
    """A scalar answer would broadcast over the level; a short, long,
    2-D or integer answer is not an estimate per candidate."""
    for bad in (lambda t, ps: 1e9,
                lambda t, ps: np.float64(1e9),
                lambda t, ps: np.full(ps.size - 1, 1e9),
                lambda t, ps: np.full(ps.size + 1, 1e9),
                lambda t, ps: np.full((ps.size, 1), 1e9),
                lambda t, ps: np.full(ps.size, 10**9),
                lambda t, ps: [1e9] * ps.size):
        with pytest.raises(ValueError, match="one estimate per candidate"):
            hh.search_with_oracle(bad, CODE, 1.0)


def test_search_never_leaves_the_domain():
    code = make_code(16, 10)  # B = 4, L = 2, but B^L = 16 > 10
    res = hh.search_with_oracle(lambda t, ps: np.full(ps.size, 1e9), code, 1.0)
    assert res.leaves.tolist() == list(range(10))


def test_on_level_reports_the_frontier_sizes():
    seen = []
    res = hh.search_with_oracle(counting_oracle(prefix_counts()), CODE, 10.0,
                                on_level=lambda t, kept: seen.append((t, kept)))
    assert seen == list(enumerate(res.level_sizes, start=1))


def test_exact_search_respects_the_work_bounds():
    """Truthful answers imply every frontier holds at most n/lambda
    prefixes and the whole walk issues at most L * (n/lambda) * B
    queries."""
    rng = np.random.default_rng(7)
    n = 1000
    ds = gen_planted(n, 256, [(3, 200), (77, 150), (130, 90)], rng)
    code = make_code(n, 256)  # B = 16, L = 2
    lam = 30.0
    table = Counter()
    for v, c in exact_frequency(ds).items():
        for tau in range(1, code.levels + 1):
            table[(tau, encode_prefix(v, tau, code))] += c
    exact = counting_oracle(table)

    queries = [0]

    def oracle(tau, ps):
        queries[0] += ps.size
        return exact(tau, ps)

    res = hh.search_with_oracle(oracle, code, lam)
    assert all(size <= n / lam for size in res.level_sizes)
    assert queries[0] <= code.levels * (n / lam) * code.branching
    assert {3, 77} <= set(res.leaves.tolist())  # both clear 2*lambda exactly


# --- the full private protocol ---


def test_run_rejects_bad_domains():
    elems = np.array([4], dtype=np.uint64)
    with pytest.raises(ValueError):
        hh.run(elems, 4, params(), seed=0)
    with pytest.raises(ValueError):
        hh.run(elems, 1 << 62, params(), seed=0)


def test_run_rejects_bad_element_input():
    for bad in (np.array([1.5, 2.7]), np.array([1.0]), [1.5], [-1, 2],
                np.array([0, -2]), np.array([True, False]), [4]):
        with pytest.raises(ValueError):
            hh.run(bad, 4, params(), seed=0)
    assert hh.run([], 4, params(), seed=0).metadata["status"] == "empty-input"


def test_run_rejects_non_1d_elements():
    for bad in (np.arange(12, dtype=np.uint64).reshape(3, 4), np.uint64(5),
                np.array(5)):
        with pytest.raises(ValueError, match="1-D"):
            hh.run(bad, 16, params(), seed=0)


def test_run_empty_input():
    hist = hh.run(np.empty(0, dtype=np.uint64), 1 << 16, params(), seed=0)
    assert len(hist) == 0
    assert hist.metadata["status"] == "empty-input"
    assert hist.metadata["lambda"] == math.inf


def test_run_when_threshold_cannot_be_met():
    # 50 users against a 2^32 domain: lambda works out above n
    elems = np.zeros(50, dtype=np.uint64)
    hist = hh.run(elems, 1 << 32, params(), seed=0)
    assert len(hist) == 0
    assert hist.metadata["status"] == "lambda-at-or-above-n"
    assert hist.metadata["lambda"] >= 50


def test_run_two_planted_heavies_end_to_end():
    n, d = 100_000, 1 << 16
    p = params(c_lambda=6.5)
    lam = hh.lambda_threshold(p, n, d)
    rng = np.random.default_rng(42)
    ds = gen_planted(n, d, [(51_000, 30_000), (2_117, 28_000)], rng)
    hist = hh.run(ds.elements, d, p, seed=1234)

    assert {int(e) for e in hist.elements} == {51_000, 2_117}
    by_elem = dict(hist.items())
    assert abs(by_elem[51_000] - 30_000) <= lam
    assert abs(by_elem[2_117] - 28_000) <= lam
    ests = hist.estimates
    assert all(ests[i] >= ests[i + 1] for i in range(len(ests) - 1))

    meta = hist.metadata
    assert meta["status"] == "ok"
    assert (meta["B"], meta["L"]) == (256, 2)
    assert meta["reports_per_user"] == 2
    assert meta["budget_per_report"] == pytest.approx(p.eps / 2)
    assert meta["lambda"] == pytest.approx(lam)
    assert len(meta["level_sizes"]) <= meta["L"]
    assert meta["k"] >= 1 and meta["m"] >= 2


def test_run_at_the_library_defaults_finds_the_readme_heavies():
    # the README's hh example: the default c_m sizes each level oracle at
    # m = 1024, where the proofs' constant would give 32768
    n, d = 100_000, 1 << 32
    ds = gen_planted(n, d, [(31_415, 40_000), (2_718, 30_000)],
                     np.random.default_rng(2))
    hist = hh.run(ds.elements, d, hh.HeavyParams(eps=1, beta=0.1, c_lambda=4),
                  seed=7)
    assert hist.metadata["m"] == 1024
    assert {int(e) for e in hist.elements} >= {31_415, 2_718}


def test_run_memory_holds_no_n_long_int64_array():
    """A run holds a level per user, in one byte; while a level oracle is
    built, that level's prefixes (8n/L bytes), and under every build a
    subset per user, the k x m int32 matrix and one chunk's temporaries
    (2^16 users at under 96 bytes each).  No n-long int64 array."""
    n, d = 1 << 20, 1 << 32
    heavies = [(31_415, n // 5), (2_718_281_828, n // 8)]
    ds = gen_planted(n, d, heavies, np.random.default_rng(3))
    tracemalloc.start()
    try:
        hist = hh.run(ds.elements, d, params(c_lambda=4.0), seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    meta = hist.metadata
    assert {e for e, _ in heavies} <= {int(e) for e in hist.elements}
    matrix = meta["k"] * meta["m"] * 4
    assert peak <= matrix + n + 8 * n // meta["L"] + n + 96 * (1 << 16)


def test_run_is_reproducible():
    n, d = 20_000, 1 << 10
    elems = np.full(n, 5, dtype=np.uint64)
    a = hh.run(elems, d, params(), seed=77)
    b = hh.run(elems, d, params(), seed=77)
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.estimates, b.estimates)
    assert 5 in {int(e) for e in a.elements}


def test_run_point_mass_estimate_concentrates():
    """Twenty runs on a point mass: the heavy element always comes back,
    and the median estimate sits within lambda of the truth."""
    n, d = 50_000, 1 << 16
    p = params()
    lam = hh.lambda_threshold(p, n, d)
    elems = np.full(n, 777, dtype=np.uint64)
    ests = []
    for seed in range(20):
        hist = hh.run(elems, d, p, seed=seed)
        found = dict(hist.items())
        assert 777 in found, f"seed {seed} lost the point mass"
        ests.append(found[777])
    assert abs(float(np.median(ests)) - n) <= lam


def test_run_all_below_lambda_returns_nothing(monkeypatch):
    """Uniform data with every count far under lambda: the histogram
    should be empty in at least 18 of 20 runs (the guarantee is allowed
    to fail with probability beta).  A walk that ends with no leaf
    builds no refinement oracle."""
    n, d = 20_000, 1 << 16
    p = params(c_lambda=6.0)
    assert hh.lambda_threshold(p, n, d) < n
    rounds = []
    construct = fo.construct

    def recorded(*args, round_index=0, **kw):
        rounds.append(round_index)
        return construct(*args, round_index=round_index, **kw)

    monkeypatch.setattr(fo, "construct", recorded)
    empty = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        elems = rng.integers(0, d, size=n, dtype=np.uint64)
        rounds.clear()
        hist = hh.run(elems, d, p, seed=seed)
        meta = hist.metadata
        assert meta["status"] == "ok"
        assert (meta["L"] + 1 in rounds) == (len(hist) > 0)
        assert hist.elements.dtype == np.uint64
        assert hist.estimates.dtype == np.float64
        empty += int(len(hist) == 0)
    assert empty >= 18, f"only {empty}/20 runs came back empty"


def test_starved_level_builds_no_oracle(monkeypatch):
    """Four users over L = 32 levels leave the first level's group
    empty.  That level answers zeros without building an oracle, so every
    root candidate dies at the 2*lambda bar and the walk ends there."""
    built = []
    construct = fo.construct

    def recorded(*args, **kw):
        built.append(kw.get("round_index"))
        return construct(*args, **kw)

    monkeypatch.setattr(fo, "construct", recorded)
    elems = np.full(4, 7, dtype=np.uint64)
    p = hh.HeavyParams(eps=1, beta=0.1, c_lambda=0.1)
    for seed in range(5):
        hist = hh.run(elems, 1 << 32, p, seed)
        meta = hist.metadata
        assert meta["L"] == 32 and meta["lambda"] < 2
        assert meta["status"] == "ok" and meta["level_sizes"] == [0]
        assert len(hist) == 0
    assert built == []


def test_run_planted_recall_over_a_wide_domain():
    """One element holding half the users in a 2^32 domain: recalled in
    at least 18 of 20 runs, and nothing under lambda ever has company."""
    n, d = 50_000, 1 << 32
    p = params(c_lambda=5.5)
    lam = hh.lambda_threshold(p, n, d)
    assert 3 * lam <= 25_000
    recalls = 0
    junk = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        ds = gen_planted(n, d, [(3_141_592_653, 25_000)], rng)
        hist = hh.run(ds.elements, d, p, seed=seed)
        got = {int(e) for e in hist.elements}
        recalls += int(3_141_592_653 in got)
        junk += len(got - {3_141_592_653})
    assert recalls >= 18, f"recalled {recalls}/20"
    assert junk <= 2, f"{junk} spurious elements across 20 runs"


def test_histogram_writers(tmp_path):
    hist = hh.SuccinctHistogram(
        elements=np.array([9, 3], dtype=np.uint64),
        estimates=np.array([120.5, 60.25]),
        metadata={"B": 4, "L": 2, "lambda": 11.25})
    csv = tmp_path / "hist.csv"
    meta = tmp_path / "hist.meta.json"
    hist.write_csv(csv)
    hist.write_meta(meta)

    lines = csv.read_text().splitlines()
    assert lines[0] == "element,estimate"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(e), float(x)) for e, x in rows] == [(9, 120.5), (3, 60.25)]
    assert json.loads(meta.read_text()) == hist.metadata
    assert len(hist) == 2
    assert hist.items() == [(9, 120.5), (3, 60.25)]
