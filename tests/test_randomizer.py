import math

import numpy as np
import pytest

from hadaldp import randomizer as rz
from hadaldp.hashing import PairwiseHash
from hadaldp.prefixes import encode_prefix_batch, make_code

from hadamard_reference import entry


KEEP = 0.0             # below keep_prob for every eps > 0: the true sign
FLIP = 1.0 - 1e-12     # at or above keep_prob for every eps <= 1: flipped


def test_keep_probability_ln3():
    # e^eps = 3 gives exactly 3/4
    assert rz.keep_probability(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)


def test_debias_factor_is_reciprocal_mean():
    for eps in (0.1, 0.5, 1.0):
        p = rz.keep_probability(eps)
        mean_b = 2.0 * p - 1.0
        assert rz.debias_factor(eps) == pytest.approx(1.0 / mean_b, rel=1e-12)


def test_budget_validation():
    rz.PrivacyBudget(1.0)
    rz.PrivacyBudget(1e-6)
    # 1e-17: e^eps - 1 is 0.0 in float64, so debias_factor cannot divide by it
    for bad in (0.0, -0.5, 1.0001, math.log(3.0), 1e-17):
        with pytest.raises(ValueError):
            rz.PrivacyBudget(bad)


def test_forced_coin_returns_entry():
    keep = rz.PrivacyBudget(0.7).keep_prob
    rows, cols = (a.ravel() for a in np.meshgrid(
        np.arange(8, dtype=np.uint64), np.arange(8, dtype=np.uint64),
        indexing="ij"))
    want = np.array([entry(8, r, c) for r, c in zip(rows, cols)])
    kept = rz.randomize(rows, cols, np.full(rows.size, KEEP), keep)
    flipped = rz.randomize(rows, cols, np.full(rows.size, FLIP), keep)
    assert kept.dtype == np.int8 and flipped.dtype == np.int8
    assert np.array_equal(kept, want)
    assert np.array_equal(flipped, -want)


def test_identity_column_examples():
    keep = rz.PrivacyBudget(1.0).keep_prob
    coin = np.array([KEEP])
    assert rz.randomize([0], [0], coin, keep).tolist() == [1]
    # H_4[1, 1] = -1
    assert rz.randomize([1], [1], coin, keep).tolist() == [-1]


def test_oracle_client_composes_with_hash():
    keep = rz.PrivacyBudget(1.0).keep_prob
    ident = PairwiseHash(a=1, b=0, m=8)
    rows = np.arange(8, dtype=np.uint64)
    # identity-affine hash sends 13 to bucket 5
    cols = ident.eval_batch(np.full(8, 13, dtype=np.uint64))
    got = rz.randomize(rows, cols, np.full(8, KEEP), keep)
    assert got.tolist() == [entry(8, r, 5) for r in range(8)]


def test_heavy_client_full_length_prefix_is_the_element():
    keep = rz.PrivacyBudget(0.4).keep_prob
    code = make_code(16, 256)   # B=4, L=4
    h = PairwiseHash(a=977, b=31, m=16)
    elements = np.array([0, 27, 255], dtype=np.uint64)
    rows = np.full(3, 3, dtype=np.uint64)
    for u in (KEEP, FLIP):
        coins = np.full(3, u)
        a = rz.randomize(rows, h.eval_batch(
            encode_prefix_batch(elements, code.levels, code)), coins, keep)
        b = rz.randomize(rows, h.eval_batch(elements), coins, keep)
        assert np.array_equal(a, b)


def test_heavy_client_hashes_the_prefix():
    keep = rz.PrivacyBudget(1.0).keep_prob
    code = make_code(16, 256)
    h = PairwiseHash(a=1, b=0, m=16)
    # element 27 = digits [0,1,2,3] base 4; tau=2 keeps [0,1] -> integer 1
    cols = h.eval_batch(encode_prefix_batch(np.array([27], dtype=np.uint64), 2, code))
    got = rz.randomize([6], cols, np.array([KEEP]), keep)
    assert got.tolist() == [entry(16, 6, 1)]


def test_exactly_one_coin_per_call():
    """One coin per user: report u reads coins[u] and no other coin."""
    keep = rz.PrivacyBudget(0.9).keep_prob
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 64, size=200, dtype=np.uint64)
    cols = rng.integers(0, 64, size=200, dtype=np.uint64)
    coins = rng.random(200)
    base = rz.randomize(rows, cols, coins, keep)
    assert base.shape == (200,)
    for u in (0, 57, 199):
        moved = coins.copy()
        moved[u] = FLIP if coins[u] < keep else KEEP
        got = rz.randomize(rows, cols, moved, keep)
        assert got[u] == -base[u]
        assert np.array_equal(np.delete(got, u), np.delete(base, u))
        # and each report is what that user alone would have sent
        alone = rz.randomize(rows[u:u + 1], cols[u:u + 1], coins[u:u + 1], keep)
        assert alone.tolist() == [base[u]]


def test_output_law_is_eps_ldp():
    """Analytic likelihood ratio over all outputs and element pairs is
    exactly e^eps for differing signs, 1 otherwise."""
    m = 8
    for eps in (0.1, 0.5, 1.0):
        p = rz.keep_probability(eps)
        for row in range(m):
            for v in range(m):
                for w in range(m):
                    for out in (+1, -1):
                        pv = p if entry(m, row, v) == out else 1.0 - p
                        pw = p if entry(m, row, w) == out else 1.0 - p
                        assert pv / pw <= math.exp(eps) + 1e-12


def test_empirical_mean_of_report():
    keep = rz.PrivacyBudget(1.0).keep_prob
    n = 200_000
    coins = np.random.default_rng(8).random(n)
    zeros = np.zeros(n, dtype=np.uint64)
    mean = rz.randomize(zeros, zeros, coins, keep).mean()
    expect = (math.e - 1.0) / (math.e + 1.0)
    sigma = math.sqrt((1.0 - expect**2) / n)
    assert abs(mean - expect) <= 3.0 * sigma


def test_streams_are_reproducible_and_distinct():
    a1, c1 = rz.round_streams(42, 0)
    a2, c2 = rz.round_streams(42, 0)
    assert np.array_equal(rz.draw_rows(a1, 100, 64), rz.draw_rows(a2, 100, 64))
    assert np.array_equal(rz.draw_coins(c1, 100), rz.draw_coins(c2, 100))

    b1, _ = rz.round_streams(42, 1)
    assert not np.array_equal(rz.draw_rows(a1, 100, 64),
                              rz.draw_rows(b1, 100, 64))
    s0 = rz.setup_stream(42, 0, 0).random(8)
    s1 = rz.setup_stream(42, 0, 1).random(8)
    assert not np.array_equal(s0, s1)


def test_draw_bounds():
    rows_rng, coins_rng = rz.round_streams(7, 3)
    rows = rz.draw_rows(rows_rng, 10_000, 32)
    coins = rz.draw_coins(coins_rng, 10_000)
    assert rows.dtype == np.uint64 and rows.max() < 32
    assert (coins >= 0).all() and (coins < 1).all()
