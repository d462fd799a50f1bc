import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from hadaldp import backend, hrr
from hadaldp import freq_oracle as fo
from hadaldp import heavy_hitters as hh
from hadaldp.randomizer import (PrivacyBudget, debias_factor, draw_coins, draw_rows,
                                round_streams)

from hadamard_reference import entry, fht

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
    with pytest.raises(ValueError, match="positive"):
        hrr.dim_for(0)


def test_empty_build_is_all_zero():
    state = hrr.build(np.empty(0, dtype=np.uint64), 16, BUDGET, seed=0)
    assert state.m == 16
    assert (state.buffer == 0).all()
    for v in range(16):
        assert hrr.query(state, v) == 0.0
    raw = hrr.build(np.empty(0, dtype=np.uint64), 16, BUDGET, seed=0,
                    finalize=False)
    for v in range(16):
        assert hrr.query_direct(raw, v) == 0.0


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
    with pytest.raises(ValueError, match="finalized"):
        hrr.to_bytes(state)
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


def test_multi_chunk_build_memory_is_its_int32_table():
    """Past one chunk, with the next chunk's draws in flight when two
    CPUs are free, the build still holds its table and a few chunks'
    temporaries."""
    m = 1 << 22
    n = 3 * hrr.CHUNK + 5
    elems = np.random.default_rng(8).integers(0, m, size=n, dtype=np.uint64)
    tracemalloc.start()
    try:
        state = hrr.build(elems, m, BUDGET, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.n_users == n and state.buffer.nbytes == 4 * m
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


# --- builds run in the caller's thread --------------------------------------

SMALL_CHUNK = 256
N_MULTI = 5 * SMALL_CHUNK + 7   # six chunks, the last a partial one


def _elements(n=N_MULTI):
    return np.random.default_rng(21).integers(0, 1000, size=n, dtype=np.uint64)


def _oracle_params():
    return fo.OracleParams(eps=0.8, beta_prime=0.05)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [0, 1, SMALL_CHUNK, SMALL_CHUNK + 1, N_MULTI])
def test_ingest_starts_no_thread(monkeypatch, thread_starts, n, workers):
    monkeypatch.setattr(hrr, "CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(backend, "_worker_count", lambda: workers)
    buf = np.zeros(1024, dtype=np.int32)
    hrr.ingest(buf, _elements(n), 1024, BUDGET.keep_prob, 3, 0)
    assert thread_starts == []
    assert int(np.abs(buf).sum()) <= n and buf.sum() % 2 == n % 2


def test_multi_chunk_builds_run_while_threads_are_refused(monkeypatch):
    """Six chunks per build on two workers: hrr.build, fo.construct and an
    hh.run whose every oracle is built from several chunks all finish,
    with the results of an unrefused run, while no thread may start."""
    def refuse(thread):
        raise AssertionError("a build started a thread")

    monkeypatch.setattr(hrr, "CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    elems = _elements()
    planted = np.where(np.arange(4 * N_MULTI) % 3 == 0, 777,
                       np.resize(elems, 4 * N_MULTI))
    hh_params = hh.HeavyParams(eps=1.0, beta=0.1, c_lambda=2.0)

    def builds():
        hist = hh.run(planted, 1 << 16, hh_params, seed=4)
        return (hrr.build(elems, 1000, BUDGET, 4, finalize=False).buffer,
                fo.construct(elems, 1000, _oracle_params(), 4).matrix,
                hist.elements, hist.estimates)

    want = builds()
    assert 777 in want[2].tolist()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for got, expected in zip(builds(), want):
        assert np.array_equal(got, expected)


def test_two_caller_threads_get_the_serial_result(monkeypatch):
    """Two multi-chunk builds at once, each in its own caller thread."""
    monkeypatch.setattr(hrr, "CHUNK", SMALL_CHUNK)
    elems = _elements()
    seeds = (1, 2)
    wants = [fo.construct(elems, 1000, _oracle_params(), s).matrix
             for s in seeds]
    barrier = threading.Barrier(2)
    got, errors = {}, []

    def call(seed):
        try:
            barrier.wait()
            got[seed] = fo.construct(elems, 1000, _oracle_params(), seed).matrix
        except BaseException as e:  # reported below, in the test's thread
            errors.append(e)

    callers = [threading.Thread(target=call, args=(s,)) for s in seeds]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=60)
        assert not t.is_alive()
    assert not errors, errors
    for seed, want in zip(seeds, wants):
        assert np.array_equal(got[seed], want)
