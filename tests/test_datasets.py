import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaldp import datasets as dsets


def test_tiny_exact_counts():
    data = np.array([5, 5, 9], dtype=np.uint64)
    assert dsets.exact_frequency(data) == {5: 2, 9: 1}
    values, counts = dsets.exact_counts(data)
    assert values.tolist() == [5, 9]
    assert counts.tolist() == [2, 1]


@given(st.lists(st.integers(0, 50), max_size=300))
@settings(max_examples=150)
def test_both_counting_routes_agree(pool):
    data = np.array(pool, dtype=np.uint64)
    streamed = dsets.exact_frequency(data)
    values, counts = dsets.exact_counts(data)
    assert streamed == {int(v): int(c) for v, c in zip(values, counts)}
    assert sum(streamed.values()) == len(pool)


def test_heavy_hitter_filter():
    data = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64)
    assert dsets.exact_heavy_hitters(data, 3) == {1}
    assert dsets.exact_heavy_hitters(data, 2) == {1, 2}
    assert dsets.exact_heavy_hitters(data, 1) == {1, 2, 3}
    assert dsets.exact_heavy_hitters(data, 4) == set()
    assert dsets.exact_heavy_hitters(np.empty(0, dtype=np.uint64), 1) == set()


def test_planted_counts_are_exact():
    rng = np.random.default_rng(0)
    ds = dsets.gen_planted(10_000, 1 << 20, [(17, 3000), (42, 1500)], rng)
    assert ds.n == 10_000
    freq = dsets.exact_frequency(ds)
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
    with pytest.raises(ValueError):
        dsets.gen_zipf(100, 16, 0.0, rng)
    with pytest.raises(ValueError):
        dsets.gen_zipf(-5, 16, 1.1, rng)
    with pytest.raises(ValueError):
        dsets.gen_zipf(100, 0, 1.1, rng)


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
