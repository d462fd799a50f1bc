import math
import struct
import tracemalloc

import numpy as np
import pytest

from hadaldp import hrr
from hadaldp.hadamard import entry, fht
from hadaldp.randomizer import (PrivacyBudget, debias_factor, draw_coins, draw_rows,
                                round_streams)

BUDGET = PrivacyBudget(1.0)


def test_dim_for_rounds_up_to_power_of_two():
    assert hrr.dim_for(1) == 1
    assert hrr.dim_for(2) == 2
    assert hrr.dim_for(3) == 4
    assert hrr.dim_for(4) == 4
    assert hrr.dim_for(5) == 8
    assert hrr.dim_for(1 << 20) == 1 << 20


def test_dim_cap():
    with pytest.raises(ValueError):
        hrr.dim_for((1 << 28) + 1)


def test_empty_build_is_all_zero():
    state = hrr.build(np.empty(0, dtype=np.uint64), 16, BUDGET, seed=0)
    assert state.m == 16
    assert (state.buffer == 0).all()
    for v in range(16):
        assert hrr.query(state, v) == 0.0


def test_query_equals_query_direct_everywhere():
    rng = np.random.default_rng(1)
    elems = rng.integers(0, 64, size=500, dtype=np.uint64)
    raw = hrr.build(elems, 64, BUDGET, seed=7, finalize=False)
    direct = [hrr.query_direct(raw, v) for v in range(64)]
    raw.finalize()
    transformed = [hrr.query(raw, v) for v in range(64)]
    assert transformed == direct   # bitwise, not approx


def test_single_report_algebra():
    # one user, forced keep: the raw accumulator holds +-1 at one row, so
    # the estimate for any v is debias * entry(m, r, held) * entry(m, r, v)
    raw = hrr.build(np.array([3], dtype=np.uint64), 8, BUDGET, seed=123,
                    finalize=False)
    nz = np.flatnonzero(raw.buffer)
    assert nz.size == 1
    r = int(nz[0])
    sign = int(raw.buffer[r])
    assert sign in (-1, 1)
    c = debias_factor(1.0)
    for v in range(8):
        expect = c * sign * entry(8, r, v)
        assert hrr.query_direct(raw, v) == pytest.approx(expect, rel=1e-12)


def test_build_equals_per_user_sum():
    """The raw accumulator is, exactly, the sum over users of the sign of
    H[row_u, x_u], flipped when coin_u >= keep_prob, at row_u, with row_u
    and coin_u draw u of the round's two streams."""
    rng = np.random.default_rng(2)
    m, n = 64, 300
    elems = rng.integers(0, 50, size=n, dtype=np.uint64)
    raw = hrr.build(elems, 50, BUDGET, seed=99, round_index=4, finalize=False)
    rows_rng, coins_rng = round_streams(99, 4)
    rows = draw_rows(rows_rng, n, m)
    coins = draw_coins(coins_rng, n)
    want = np.zeros(m)
    for x, r, u in zip(elems.tolist(), rows.tolist(), coins.tolist()):
        sign = entry(m, r, x)
        want[r] += sign if u < BUDGET.keep_prob else -sign
    assert raw.n_users == n
    assert np.array_equal(raw.buffer, want)


def test_round_index_changes_transcript():
    elems = np.zeros(100, dtype=np.uint64)
    a = hrr.build(elems, 16, BUDGET, seed=5, round_index=0)
    b = hrr.build(elems, 16, BUDGET, seed=5, round_index=1)
    assert not np.array_equal(a.buffer, b.buffer)


def test_unbiased_on_point_mass():
    """All users hold element 0; the Monte-Carlo mean estimate over T
    builds approaches n within 3 * c_eps * sqrt(n / T)."""
    n, d, trials = 10_000, 8, 100
    elems = np.zeros(n, dtype=np.uint64)
    total = 0.0
    for t in range(trials):
        state = hrr.build(elems, d, BUDGET, seed=1000 + t)
        total += hrr.query(state, 0)
    mean = total / trials
    tol = 3.0 * debias_factor(1.0) * math.sqrt(n / trials)
    assert abs(mean - n) <= tol, f"mean {mean} vs n {n}, tol {tol}"


def test_rejects_out_of_domain():
    with pytest.raises(ValueError):
        hrr.build(np.array([4], dtype=np.uint64), 4, BUDGET, seed=0)
    state = hrr.build(np.array([1], dtype=np.uint64), 4, BUDGET, seed=0)
    with pytest.raises(ValueError):
        hrr.query(state, 4)


def test_build_rejects_bad_element_input():
    for bad in (np.array([1.5, 2.7]), np.array([1.0]), [1.5], [-1, 2],
                np.array([0, -2]), np.array([True, False]), [4]):
        with pytest.raises(ValueError):
            hrr.build(bad, 4, BUDGET, seed=0)
    st = hrr.build([0, 1, 3], 4, BUDGET, seed=0)
    ref = hrr.build(np.array([0, 1, 3], dtype=np.uint64), 4, BUDGET, seed=0)
    assert np.array_equal(st.buffer, ref.buffer)
    assert hrr.build([], 4, BUDGET, seed=0).n_users == 0


def test_build_rejects_non_1d_elements():
    for bad in (np.arange(12, dtype=np.uint64).reshape(3, 4), np.uint64(5),
                np.array(5)):
        with pytest.raises(ValueError, match="1-D"):
            hrr.build(bad, 16, BUDGET, seed=0)


def test_query_rejects_negative_and_non_integer_input():
    elems = np.array([1, 2], dtype=np.uint64)
    raw = hrr.build(elems, 4, BUDGET, seed=0, finalize=False)
    state = hrr.build(elems, 4, BUDGET, seed=0)
    for bad in (-1, 1.5, np.float64(1.0), "1", None):
        with pytest.raises(ValueError):
            hrr.query(state, bad)
        with pytest.raises(ValueError):
            hrr.query_direct(raw, bad)
    assert hrr.query(state, np.uint64(1)) == hrr.query(state, 1)


def test_finalize_gates():
    state = hrr.build(np.array([1, 2], dtype=np.uint64), 4, BUDGET, seed=0,
                      finalize=False)
    with pytest.raises(RuntimeError):
        hrr.query(state, 1)
    state.finalize()
    with pytest.raises(RuntimeError):
        state.finalize()
    with pytest.raises(RuntimeError):
        hrr.query_direct(state, 1)


def test_serialization_round_trip():
    rng = np.random.default_rng(4)
    elems = rng.integers(0, 256, size=2000, dtype=np.uint64)
    state = hrr.build(elems, 256, BUDGET, seed=31)
    blob = hrr.to_bytes(state)
    # the layout, packed by hand: magic, version, reserved, m, eps, n_users
    assert blob == struct.pack("<4sHHQdQ", b"HRRS", 2, 0, 256, 1.0, 2000) \
        + state.buffer.astype("<i4").tobytes()
    back = hrr.from_bytes(blob)
    assert back.buffer.dtype == np.int32
    assert back.m == state.m and back.n_users == state.n_users
    assert back.budget.eps == state.budget.eps
    assert np.array_equal(back.buffer, state.buffer)
    for v in rng.integers(0, 256, size=50):
        assert hrr.query(back, int(v)) == hrr.query(state, int(v))


def test_to_bytes_copies_the_table_once():
    m = 1 << 20
    state = hrr.build(np.arange(1000, dtype=np.uint64), m, BUDGET, seed=0)
    tracemalloc.start()
    try:
        blob = hrr.to_bytes(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == hrr._HEADER.size + 4 * m
    # the blob itself, and no second copy of the table on the way
    assert peak < 1.5 * len(blob)


def test_from_bytes_rejects_garbage():
    state = hrr.build(np.array([0], dtype=np.uint64), 4, BUDGET, seed=1)
    blob = hrr.to_bytes(state)
    with pytest.raises(ValueError):
        hrr.from_bytes(b"XXXX" + blob[4:])
    for size in (3, 10, len(blob) - 8):
        with pytest.raises(ValueError):
            hrr.from_bytes(blob[:size])
    empty = hrr._HEADER.pack(hrr.MAGIC, hrr.VERSION, 0, 0, 1.0, 0)
    tiny_eps = hrr._HEADER.pack(hrr.MAGIC, hrr.VERSION, 0, 4, 1e-17, 1) \
        + blob[hrr._HEADER.size:]
    # version 1 stored the table as float64 estimates
    version_1 = hrr._HEADER.pack(hrr.MAGIC, 1, 0, 4, 1.0, 1) \
        + (state.buffer * state.factor).astype("<f8").tobytes()
    for bad in (empty, tiny_eps, version_1):
        with pytest.raises(ValueError):
            hrr.from_bytes(bad)


def test_ingest_rejects_more_users_than_int32_sums_hold():
    # a zero-stride view: 2^31 users, no 2^31-element allocation
    elems = np.broadcast_to(np.uint64(0), (1 << 31,))
    buf = np.zeros(4, dtype=np.int32)
    with pytest.raises(ValueError, match="int32"):
        hrr.ingest(buf, elems, 4, BUDGET.keep_prob, 0, 0)
    assert not buf.any()


def test_build_memory_is_its_int32_table():
    m = 1 << 22
    elems = np.random.default_rng(8).integers(0, m, size=1000, dtype=np.uint64)
    tracemalloc.start()
    try:
        state = hrr.build(elems, m, BUDGET, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.buffer.dtype == np.int32 and state.buffer.nbytes == 4 * m
    # the sums are transformed in place; no float64 copy is made
    assert peak <= 4 * m + (4 << 20)


def test_buffer_is_int32_before_and_after_finalize():
    raw = hrr.build(np.array([1, 2, 3], dtype=np.uint64), 8, BUDGET, seed=0,
                    finalize=False)
    assert raw.buffer.dtype == np.int32 and raw.buffer.shape == (8,)
    want = fht(raw.buffer.astype(np.float64))
    raw.finalize()
    assert raw.buffer.dtype == np.int32 and np.array_equal(raw.buffer, want)
    assert [hrr.query(raw, v) for v in range(8)] == \
        [float(w) * debias_factor(1.0) for w in want]


def test_query_many_equals_query_bit_for_bit():
    rng = np.random.default_rng(10)
    elems = rng.integers(0, 1000, size=5000, dtype=np.uint64)
    state = hrr.build(elems, 1000, PrivacyBudget(0.7), seed=3, finalize=False)
    with pytest.raises(RuntimeError):
        hrr.query_many(state, [1, 2])
    state.finalize()
    vs = rng.integers(0, state.m, size=500, dtype=np.uint64)
    got = hrr.query_many(state, vs)
    assert got.dtype == np.float64 and got.shape == vs.shape
    assert got.tolist() == [hrr.query(state, int(v)) for v in vs]
    assert hrr.query_many(state, []).shape == (0,)
    for bad in ([-1], [1.5], [state.m], np.array([[1]])):
        with pytest.raises(ValueError):
            hrr.query_many(state, bad)
