import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaldp import datasets as dsets

from exact_reference import exact_frequency, exact_heavy_hitters


def test_tiny_exact_counts():
    data = np.array([5, 5, 9], dtype=np.uint64)
    assert exact_frequency(data) == {5: 2, 9: 1}
    values, counts = dsets.exact_counts(data)
    assert values.tolist() == [5, 9]
    assert counts.tolist() == [2, 1]


@given(st.lists(st.integers(0, 50), max_size=300))
@settings(max_examples=150)
def test_both_counting_routes_agree(pool):
    data = np.array(pool, dtype=np.uint64)
    streamed = exact_frequency(data)
    values, counts = dsets.exact_counts(data)
    assert streamed == {int(v): int(c) for v, c in zip(values, counts)}
    assert sum(streamed.values()) == len(pool)


def test_heavy_hitter_filter():
    data = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64)
    assert exact_heavy_hitters(data, 3) == {1}
    assert exact_heavy_hitters(data, 2) == {1, 2}
    assert exact_heavy_hitters(data, 1) == {1, 2, 3}
    assert exact_heavy_hitters(data, 4) == set()
    assert exact_heavy_hitters(np.empty(0, dtype=np.uint64), 1) == set()


def test_planted_counts_are_exact():
    rng = np.random.default_rng(0)
    ds = dsets.gen_planted(10_000, 1 << 20, [(17, 3000), (42, 1500)], rng)
    assert ds.n == 10_000
    freq = exact_frequency(ds)
    # the uniform background may add the odd extra hit, nothing more
    assert 3000 <= freq[17] <= 3002
    assert 1500 <= freq[42] <= 1502
    assert int(ds.elements.max()) < 1 << 20
    assert ds.meta["heavy"] == [[17, 3000], [42, 1500]]


def test_planted_shuffles_positions():
    rng = np.random.default_rng(1)
    ds = dsets.gen_planted(1000, 100, [(7, 500)], rng)
    # a sorted layout would put all 500 sevens in one block
    first_half = int((ds.elements[:500] == 7).sum())
    assert 150 < first_half < 350


def test_planted_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        dsets.gen_planted(100, 10, [(3, 50), (3, 10)], rng)
    with pytest.raises(ValueError):
        dsets.gen_planted(100, 10, [(10, 5)], rng)
    with pytest.raises(ValueError):
        dsets.gen_planted(100, 10, [(3, -1)], rng)
    with pytest.raises(ValueError):
        dsets.gen_planted(100, 10, [(3, 60), (4, 50)], rng)
    with pytest.raises(ValueError):
        dsets.gen_planted(-1, 10, [], rng)


def test_zipf_shape():
    rng = np.random.default_rng(3)
    ds = dsets.gen_zipf(50_000, 1 << 32, 1.1, rng)
    assert ds.n == 50_000
    assert int(ds.elements.max()) < 1 << 32
    values, counts = dsets.exact_counts(ds)
    top = int(counts.max())
    # a zipf(1.1) head holds a solid chunk of the mass; uniform would
    # give every element count ~1
    assert top > 2000
    assert len(values) > 5000


def test_zipf_reproducible_and_seeded():
    a = dsets.gen_zipf(1000, 1 << 16, 1.5, np.random.default_rng(9))
    b = dsets.gen_zipf(1000, 1 << 16, 1.5, np.random.default_rng(9))
    c = dsets.gen_zipf(1000, 1 << 16, 1.5, np.random.default_rng(10))
    assert np.array_equal(a.elements, b.elements)
    assert not np.array_equal(a.elements, c.elements)


def test_zipf_validation():
    rng = np.random.default_rng(4)
    for s in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            dsets.gen_zipf(100, 16, s, rng)
    with pytest.raises(ValueError):
        dsets.gen_zipf(-5, 16, 1.1, rng)
    with pytest.raises(ValueError):
        dsets.gen_zipf(100, 0, 1.1, rng)


def _reference_zipf_cdf(r_max, s):
    """The reference below is gen_zipf as it was before the sorted lookup
    and the blocked table, in three steps so the grid can share the slow
    ones.  This is its table: one power array and one cumsum."""
    weights = np.arange(1, r_max + 1, dtype=np.float64) ** (-float(s))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _reference_ranks(n, rng, cdf):
    """Its unsorted search of n uniforms in `cdf`, then np.unique: the
    distinct ranks and each user's index into them."""
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    return np.unique(ranks, return_inverse=True)


def _reference_map(ranked, n, d, s, rng, r_max):
    """Then a and b, drawn after the uniforms, each distinct rank mapped
    through Python ints, and the meta."""
    uniq, inv = ranked
    while True:
        a = int(rng.integers(1, d)) if d > 1 else 1
        if math.gcd(a, d) == 1:
            break
    b = int(rng.integers(0, d))
    mapped = np.fromiter(((a * r + b) % d for r in uniq.tolist()),
                         dtype=np.uint64, count=uniq.size)
    elements = mapped[inv]
    meta = {"generator": "zipf", "n": int(n), "d": int(d), "s": float(s),
            "rank_cap": r_max, "map_a": a, "map_b": b}
    return dsets.Dataset(elements=elements, d=int(d), meta=meta)


def _reference_zipf(n, d, s, rng):
    r_max = min(d, dsets.ZIPF_MAX_RANKS)
    ranked = _reference_ranks(n, rng, _reference_zipf_cdf(r_max, s))
    return _reference_map(ranked, n, d, s, rng, r_max)


def _same_draw(got, want):
    return (got.elements.dtype == want.elements.dtype
            and np.array_equal(got.elements, want.elements)
            and got.d == want.d and got.meta == want.meta)


def test_zipf_matches_the_reference_draw(monkeypatch):
    block = dsets._ZIPF_BLOCK
    domains = [1, 2, 5, block - 1, block + 1, 10**7 - 1, 10**7, 10**7 + 3,
               1 << 32, (1 << 61) - 1]
    by_cap = {}
    for d in domains:
        by_cap.setdefault(min(d, dsets.ZIPF_MAX_RANKS), []).append(d)
    for r_max, ds in by_cap.items():
        for s in (0.5, 1.1, 2.0):
            # the blocked table is checked once per (r_max, s); the grid
            # below then reads it, as building it per draw would take
            # minutes at r_max = 10^7
            cdf = _reference_zipf_cdf(r_max, s)
            assert np.array_equal(dsets._zipf_cdf(r_max, s), cdf), (r_max, s)

            def built(r, t, want=(r_max, s), cdf=cdf):
                assert (r, t) == want
                return cdf

            monkeypatch.setattr(dsets, "_zipf_cdf", built)
            for n in (0, 1, 1000, (1 << 17) + 3):
                for seed in (0, 1):
                    # the uniforms, so their ranks, depend on seed and n
                    # alone: one reference search serves every d of this cap
                    ranked = _reference_ranks(n, np.random.default_rng(seed),
                                              cdf)
                    for d in ds:
                        rng = np.random.default_rng(seed)
                        rng.random(n)
                        want = _reference_map(ranked, n, d, s, rng, r_max)
                        got = dsets.gen_zipf(n, d, s,
                                             np.random.default_rng(seed))
                        assert _same_draw(got, want), (n, d, s, seed)
            monkeypatch.undo()


def test_zipf_memory_is_one_weight_table():
    n, d, s = 1 << 17, 1 << 32, 1.1
    tracemalloc.start()
    try:
        got = dsets.gen_zipf(n, d, s, np.random.default_rng(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 8-byte float per rank for the table, and at most eight live
    # n-long 8-byte arrays (uniforms, order, sorted uniforms, ranks, ...)
    # beside it, plus 1 MiB of slack: 85.3 MiB here.  A second r_max-long
    # array, such as a separate power array, would add 76 MiB.
    r_max = min(d, dsets.ZIPF_MAX_RANKS)
    assert peak <= 8 * r_max + 64 * n + (1 << 20), peak / 2**20
    assert _same_draw(got, _reference_zipf(n, d, s, np.random.default_rng(11)))


def test_zipf_tiny_domain():
    rng = np.random.default_rng(5)
    ds = dsets.gen_zipf(500, 2, 1.1, rng)
    assert set(np.unique(ds.elements)) <= {0, 1}


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    ds = dsets.gen_planted(2000, 1 << 24, [(99, 800)], rng)
    path = tmp_path / "data.bin"
    dsets.save_dataset(ds, path)
    # the layout, packed by hand: magic, version, reserved, d, n
    assert path.read_bytes() == struct.pack("<4sHHQQ", b"LDPD", 1, 0, 1 << 24,
                                            2000) \
        + ds.elements.astype("<u8").tobytes()
    back = dsets.load_dataset(path)
    assert back.d == ds.d
    assert np.array_equal(back.elements, ds.elements)


def test_load_rejects_garbage(tmp_path):
    rng = np.random.default_rng(7)
    ds = dsets.gen_planted(50, 100, [], rng)
    path = tmp_path / "data.bin"
    dsets.save_dataset(ds, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"WXYZ" + blob[4:])
    with pytest.raises(ValueError):
        dsets.load_dataset(bad_magic)

    truncated = tmp_path / "short.bin"
    for size in (3, 20, len(blob) - 3):
        truncated.write_bytes(blob[:size])
        with pytest.raises(ValueError):
            dsets.load_dataset(truncated)

    # rewrite the header to claim d = 1, putting every element out of range
    hdr = dsets._HEADER.pack(dsets.MAGIC, dsets.VERSION, 0, 1, 50)
    corrupt = tmp_path / "range.bin"
    corrupt.write_bytes(hdr + blob[dsets._HEADER.size:])
    with pytest.raises(ValueError):
        dsets.load_dataset(corrupt)
    # and to claim d = 0, an empty domain
    hdr = dsets._HEADER.pack(dsets.MAGIC, dsets.VERSION, 0, 0, 50)
    corrupt.write_bytes(hdr + blob[dsets._HEADER.size:])
    with pytest.raises(ValueError, match="domain size must be positive"):
        dsets.load_dataset(corrupt)
