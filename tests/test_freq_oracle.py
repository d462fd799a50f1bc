import math
import struct
import tracemalloc

import numpy as np
import pytest

from hadaldp import backend
from hadaldp import freq_oracle as fo
from hadaldp import hrr
from hadaldp.datasets import gen_planted, gen_zipf
from hadaldp.hashing import P61, PairwiseHash, sample_hash
from hadaldp.partition import take_partition
from hadaldp.randomizer import (PrivacyBudget, debias_factor, draw_coins,
                                draw_rows, keep_probability, round_streams,
                                setup_stream)

from exact_reference import exact_frequency, pairwise_hash
from hadamard_reference import entry, naive_multiply

E2 = math.exp(-2.0)
F = debias_factor(1.0)   # the debias factor at params()' eps


def params(**kw):
    base = dict(eps=1.0, beta_prime=0.05, c_m=4.0)
    base.update(kw)
    return fo.OracleParams(**base)


def test_repetition_count_examples():
    # c_k = 8, beta' = e^-2: 8 * ln(e^2) is exactly 16, not 17
    assert fo.repetitions_for(params(beta_prime=E2)) == 16
    assert fo.repetitions_for(params(beta_prime=0.05)) == 24
    assert fo.repetitions_for(params(beta_prime=0.9, c_k=1.0)) == 1


def test_hash_range_examples():
    assert fo.hash_range_for(params(c_m=1.0), 10_000) == 128
    assert fo.hash_range_for(params(c_m=4.0), 100_000) == 2048
    # never below 2, even for degenerate n
    assert fo.hash_range_for(params(), 0) == 2


def test_profiles():
    assert fo.PROFILES["theory"]["c_m"] == pytest.approx(8 * math.e**2 * math.sqrt(8))
    assert fo.PROFILES["practical"] == {"c_k": 8.0, "c_m": 4.0}


def test_error_bound_shape():
    p = params(beta_prime=math.exp(-1.0))
    assert fo.theoretical_error_bound(p, 10_000) == pytest.approx(100.0)
    assert fo.theoretical_error_bound(params(eps=0.5), 10_000) \
        == pytest.approx(2 * fo.theoretical_error_bound(params(eps=1.0), 10_000))
    assert fo.theoretical_error_bound(p, 40_000) \
        == pytest.approx(2 * fo.theoretical_error_bound(p, 10_000))


def test_params_validation():
    with pytest.raises(ValueError):
        params(eps=1.5)
    with pytest.raises(ValueError):
        params(beta_prime=0.0)
    with pytest.raises(ValueError):
        params(c_k=0.5)
    with pytest.raises(ValueError):
        params(c_m=-1.0)


def _state_with_matrix(k, m, cells):
    """Tiny handmade state: hash j is identity-affine shifted by j so that
    h_j(0) = j, letting tests pin per-row estimate values directly: row j
    estimates k * (cells[j] * F)."""
    hashes = [PairwiseHash(a=1, b=j, m=m) for j in range(k)]
    matrix = np.zeros((k, m), dtype=np.int32)
    for j, val in enumerate(cells):
        matrix[j, j] = val
    return fo.OracleState(params=params(), k=k, m=m, d=m, n_users=1,
                          hashes=hashes, matrix=matrix)


def test_median_selects_middle_scaled_row():
    st = _state_with_matrix(3, 8, [10, 50, 90])
    assert fo.row_estimates(st, 0).tolist() == [3 * (c * F) for c in (10, 50, 90)]
    assert fo.query(st, 0) == 3 * (50 * F)


def test_even_k_takes_lower_middle():
    st = _state_with_matrix(4, 8, [10, 50, 90, 130])
    # sorted cells [10, 50, 90, 130]: the lower middle is 50
    assert fo.query(st, 0) == 4 * (50 * F)
    st2 = _state_with_matrix(2, 8, [7, 9])
    assert fo.query(st2, 0) == 2 * (7 * F)


def test_k_one_is_the_single_row():
    st = _state_with_matrix(1, 4, [42])
    assert fo.query(st, 0) == 42 * F


def test_all_zero_matrix_queries_zero():
    rng = np.random.default_rng(0)
    hashes = [sample_hash(16, rng) for _ in range(5)]
    st = fo.OracleState(params=params(), k=5, m=16, d=1000, n_users=1,
                        hashes=hashes, matrix=np.zeros((5, 16), np.int32))
    assert fo.query(st, 123) == 0.0


def test_construct_shapes_and_guards():
    rng = np.random.default_rng(1)
    elems = rng.integers(0, 4096, size=3000, dtype=np.uint64)
    st = fo.construct(elems, 4096, params(beta_prime=E2), seed=5)
    assert st.k == 16
    assert st.m == fo.hash_range_for(params(), 3000)
    assert st.matrix.shape == (st.k, st.m)
    assert len(st.hashes) == st.k

    with pytest.raises(ValueError):
        fo.construct(np.array([5], dtype=np.uint64), 5, params(), seed=0)
    with pytest.raises(ValueError):
        fo.construct(np.array([0], dtype=np.uint64), 1 << 62, params(), seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        fo.hash_range_for(params(), -1)


def test_empty_build_is_all_zero():
    """Zero users are an ordinary build: no report, so an all-zero k x 2
    matrix, every estimate 0.0, and a blob that round-trips."""
    st = fo.construct(np.empty(0, dtype=np.uint64), 16, params(), seed=0)
    assert (st.k, st.m, st.n_users) == (fo.repetitions_for(params()), 2, 0)
    assert st.matrix.shape == (st.k, 2) and (st.matrix == 0).all()
    for v in range(16):
        assert fo.query(st, v) == 0.0
    assert fo.query_many(st, np.arange(16)).tolist() == [0.0] * 16
    back = fo.from_bytes(fo.to_bytes(st))
    assert (back.k, back.m, back.n_users) == (st.k, 2, 0)
    assert np.array_equal(back.matrix, st.matrix)
    assert fo.to_bytes(back) == fo.to_bytes(st)


def test_shared_hashes_fix_geometry():
    rng = np.random.default_rng(2)
    elems = rng.integers(0, 100, size=500, dtype=np.uint64)
    shared = [sample_hash(64, rng) for _ in range(3)]
    st = fo.construct(elems, 100, params(), seed=9, hashes=shared)
    assert st.k == 3 and st.m == 64
    assert st.hashes is shared

    mixed = [sample_hash(64, rng), sample_hash(32, rng)]
    with pytest.raises(ValueError):
        fo.construct(elems, 100, params(), seed=9, hashes=mixed)


def test_construct_rejects_a_range_that_is_not_a_power_of_two():
    """The transform needs a power-of-two m.  The hash family is where
    that is checked: a family of range 1000 cannot be made, so no build
    can be handed one."""
    elems = np.random.default_rng(4).integers(0, 5000, size=2000,
                                              dtype=np.uint64)
    with pytest.raises(ValueError, match="hash range 1000"):
        fo.construct(elems, 5000, params(), seed=9,
                     hashes=[PairwiseHash(a=1 + j, b=j, m=1000)
                             for j in range(5)])


def test_query_is_always_a_row_estimate():
    rng = np.random.default_rng(3)
    elems = rng.integers(0, 512, size=2000, dtype=np.uint64)
    st = fo.construct(elems, 512, params(), seed=13)
    for v in rng.integers(0, 512, size=40):
        assert fo.query(st, int(v)) in fo.row_estimates(st, int(v)).tolist()


def test_query_many_matches_scalar_queries():
    rng = np.random.default_rng(4)
    elems = rng.integers(0, 1 << 20, size=4000, dtype=np.uint64)
    st = fo.construct(elems, 1 << 20, params(), seed=21)
    vs = rng.integers(0, 1 << 20, size=100, dtype=np.uint64)
    batch = fo.query_many(st, vs)
    assert batch.tolist() == [fo.query(st, int(v)) for v in vs]
    assert fo.query_many(st, np.empty(0, dtype=np.uint64)).size == 0


def _family_state(k, n, d, seed):
    """An oracle over n users drawn from a small range, built with a family
    of k hashes into m = 64, so its cells repeat."""
    elems = np.random.default_rng(seed).integers(0, 40, size=n,
                                                 dtype=np.uint64)
    return fo.construct(elems, d, params(), seed,
                        hashes=fo.sample_family(k, 64, seed))


@pytest.mark.parametrize("k", [6, 7])
def test_query_many_answers_repeats_within_and_across_chunks(k):
    """3 * 2^14 + 5 elements drawn from 300 values: every chunk repeats
    elements of its own and of the others, and the last chunk has 5."""
    d = 1 << 40
    st = _family_state(k, 3000, d, seed=k)
    rng = np.random.default_rng(40 + k)
    values = rng.integers(0, d, size=300, dtype=np.uint64)
    vs = values[rng.integers(0, values.size, size=3 * (1 << 14) + 5)]
    assert np.unique(vs).size == 300
    scalar = {int(v): fo.query(st, int(v)) for v in values}
    assert fo.query_many(st, vs).tolist() == [scalar[int(v)] for v in vs]


@pytest.mark.parametrize("k", [6, 7])
def test_query_many_answers_distinct_elements(monkeypatch, k):
    """All-distinct input, at the default chunk and at chunks of 64
    that leave a short last chunk."""
    d = 1 << 40
    st = _family_state(k, 3000, d, seed=k)
    vs = np.random.default_rng(50 + k).choice(d, size=1000, replace=False)
    vs = vs.astype(np.uint64)
    want = [fo.query(st, int(v)) for v in vs]
    assert fo.query_many(st, vs).tolist() == want
    monkeypatch.setattr(fo, "_QUERY_CHUNK", 64)
    assert fo.query_many(st, vs).tolist() == want
    assert fo.query_many(st, vs[::-1]).tolist() == want[::-1]


def _scale_then_partition(state, vs):
    """The batch median as first written: every gathered cell scaled by
    the debias factor and then by k, and the scaled cells partitioned."""
    vals = np.array([[float(state.matrix[j, pairwise_hash(h.a, h.b, h.m, v)])
                      for j, h in enumerate(state.hashes)] for v in vs])
    vals *= state.factor
    vals *= state.k
    vals.partition(state.median_index, axis=1)
    return vals[:, state.median_index]


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("eps", [1.0, 0.01])
def test_query_many_medians_the_cells_then_scales(k, eps):
    """query_many partitions the int32 cells and scales only the median;
    on cells with negatives, ties, zeros and the int32 extremes it must
    equal the median of the scaled cells, bit for bit."""
    m = 8
    rng = np.random.default_rng(k)
    cells = np.array([-3, -3, -1, 0, 0, 0, 2, 2, 7, -(1 << 31), (1 << 31) - 1,
                      123_456_789, -123_456_789, 1, 1, -1])
    matrix = rng.choice(cells, size=(k, m)).astype(np.int32)
    st = fo.OracleState(params=params(eps=eps), k=k, m=m, d=1 << 20,
                        n_users=1, hashes=fo.sample_family(k, m, seed=k),
                        matrix=matrix)
    vs = rng.integers(0, 1 << 20, size=500, dtype=np.uint64)
    got = fo.query_many(st, vs)
    assert got.tolist() == _scale_then_partition(st, vs).tolist()
    assert got.tolist() == [fo.query(st, int(v)) for v in vs]


def test_query_many_memory_is_its_output_and_one_chunk_scratch():
    rng = np.random.default_rng(8)
    d = 1 << 32
    elems = rng.integers(0, d, size=20_000, dtype=np.uint64)
    st = fo.construct(elems, d, params(), seed=5)
    vs = rng.integers(0, d, size=1 << 20, dtype=np.uint64)
    tracemalloc.start()
    try:
        est = fo.query_many(st, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.k == 24 and est.shape == vs.shape
    # the answer is not a row of a k x n scratch kept alive with it
    assert est.base is None and est.flags.owndata
    assert peak <= est.nbytes + st.k * (1 << 14) * 8 + (1 << 20)
    some = rng.integers(0, vs.size, size=20)
    assert est[some].tolist() == [fo.query(st, int(v)) for v in vs[some]]


def test_construct_memory_is_its_int32_matrix_and_one_chunk():
    """The build holds the k x m int32 matrix, a one-byte subset per user
    and one chunk's temporaries (hrr.CHUNK = 2^15 users at under 48 bytes
    each, about 42 measured): no float64 matrix and no n-long int64 array."""
    n, d = 1 << 20, 1 << 32
    elems = np.random.default_rng(9).integers(0, d, size=n, dtype=np.uint64)
    tracemalloc.start()
    try:
        st = fo.construct(elems, d, params(), seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (st.k, st.m) == (24, 4096) and st.matrix.dtype == np.int32
    step = 48 * hrr.CHUNK
    assert step <= 2 << 20      # a larger step would raise the bound with it
    assert peak <= st.matrix.nbytes + n + step


def test_construct_rejects_bad_element_input():
    for bad in (np.array([1.5, 2.7]), np.array([1.0]), [1.5], [-1, 2],
                np.array([0, -2]), np.array([True, False]), [4]):
        with pytest.raises(ValueError):
            fo.construct(bad, 4, params(), seed=0)
    # a list of non-negative ints builds the same state as its uint64 array
    st = fo.construct([0, 1, 3], 4, params(), seed=0)
    ref = fo.construct(np.array([0, 1, 3], dtype=np.uint64), 4, params(), seed=0)
    assert np.array_equal(st.matrix, ref.matrix)


def test_construct_and_query_many_reject_non_1d_elements():
    st = fo.construct(np.array([0, 1, 2], dtype=np.uint64), 16, params(), seed=0)
    for bad in (np.arange(12, dtype=np.uint64).reshape(3, 4), np.uint64(5),
                np.array(5), np.empty((0, 3), dtype=np.uint64)):
        with pytest.raises(ValueError, match="1-D"):
            fo.construct(bad, 16, params(), seed=0)
        with pytest.raises(ValueError, match="1-D"):
            fo.query_many(st, bad)
    assert fo.query_many(st, []).shape == (0,)


def test_domain_guard_on_query():
    st = fo.construct(np.array([0, 1, 2], dtype=np.uint64), 3, params(), seed=0)
    with pytest.raises(ValueError):
        fo.query(st, 3)
    with pytest.raises(ValueError):
        fo.query_many(st, np.array([0, 3], dtype=np.uint64))


def test_query_rejects_negative_and_non_integer_input():
    st = fo.construct(np.array([0, 1, 2], dtype=np.uint64), 3, params(), seed=0)
    for bad in (-1, 1.5, np.float64(1.0), "1", None):
        with pytest.raises(ValueError):
            fo.query(st, bad)
        with pytest.raises(ValueError):
            fo.row_estimates(st, bad)
    for bad in ([-1], np.array([0, -2]), [1.5], np.array([1.0]),
                np.array([True])):
        with pytest.raises(ValueError):
            fo.query_many(st, bad)
    # integer input of any width, Python or numpy, is fine
    assert fo.query(st, np.int8(1)) == fo.query(st, np.uint64(1)) == fo.query(st, 1)
    assert np.array_equal(fo.query_many(st, [0, 1, 2]),
                          fo.query_many(st, np.array([0, 1, 2], dtype=np.int16)))


def _reference_rows(state, v):
    factor = debias_factor(state.params.eps)
    return [state.k * (float(state.matrix[j, pairwise_hash(h.a, h.b, h.m, v)])
                       * factor)
            for j, h in enumerate(state.hashes)]


def test_row_estimates_match_exact_scalar_hashes():
    """row_estimates evaluates all k hashes in one limb-kernel call; it must
    equal the Python-int reference PairwiseHash.eval row by row, for built
    and for deserialized states, at both ends of the largest domain, and
    for a family with a = b = p - 1, where every limb product carries."""
    d = fo.MAX_DOMAIN
    rng = np.random.default_rng(12)
    elems = rng.integers(0, d, size=3000, dtype=np.uint64)
    built = fo.construct(elems, d, params(), seed=31)
    extreme = [PairwiseHash(a=P61 - 1, b=P61 - 1, m=64),
               PairwiseHash(a=P61 - 1, b=0, m=64),
               PairwiseHash(a=1, b=P61 - 1, m=64)]
    carried = fo.construct(elems, d, params(), seed=32, hashes=extreme)
    vs = [0, 1, d - 1, d - 2, (1 << 32) - 1, 1 << 32]
    vs += [int(v) for v in rng.integers(0, d, size=40, dtype=np.uint64)]
    for state in (built, carried):
        for st in (state, fo.from_bytes(fo.to_bytes(state))):
            for v in vs:
                assert fo.row_estimates(st, v).tolist() == _reference_rows(st, v)
                assert fo.row_estimates(st, np.uint64(v)).tolist() == \
                    _reference_rows(st, v)


def _limb_states(k):
    """Three states over d = 2^61 - 1 with k rows into m = 64: one built,
    its from_bytes copy and one built by hand around a random matrix."""
    d = fo.MAX_DOMAIN
    rng = np.random.default_rng(k)
    hashes = fo.sample_family(k, 64, seed=k)
    elems = rng.integers(0, d, size=3000, dtype=np.uint64)
    built = fo.construct(elems, d, params(), seed=k, hashes=hashes)
    matrix = rng.integers(-500, 500, size=(k, 64)).astype(np.int32)
    by_hand = fo.OracleState(params=params(), k=k, m=64, d=d, n_users=1,
                             hashes=hashes, matrix=matrix)
    return built, fo.from_bytes(fo.to_bytes(built)), by_hand


@pytest.mark.parametrize("k", [1, 2, 141])
def test_query_is_the_median_row_estimate_on_both_sides_of_2_32(monkeypatch,
                                                                 k):
    """query medians the int32 cells and scales once; that must be, bit
    for bit, the lower-middle of row_estimates, for elements whose high
    32-bit limb is zero and for ones where it is not.  query_many must
    answer all of them in one batch, so that a block's kernel call
    decides the zero-high-limb branch for elements on both sides: at the
    default chunk they share one block, and at chunks of 3k + 1 the 43
    elements fill blocks of 3 (4 at k = 1) and leave the last block
    partial.  No query may write to the matrix."""
    d = fo.MAX_DOMAIN
    rng = np.random.default_rng(60 + k)
    vs = [0, 1, (1 << 32) - 1, 123_456_789,
          1 << 32, (1 << 32) + 1, d - 1, 987_654_321_987_654]
    vs += rng.integers(0, 1 << 32, size=17, dtype=np.uint64).tolist()
    vs += rng.integers(1 << 32, d, size=18, dtype=np.uint64).tolist()
    vs = [vs[i] for i in rng.permutation(len(vs))]
    chunks = (fo._QUERY_CHUNK, 3 * k + 1)
    for st in _limb_states(k):
        before = st.matrix.copy()
        want = []
        for v in vs:
            got = fo.query(st, v)
            rows = fo.row_estimates(st, v)
            assert rows.tolist() == _reference_rows(st, v)
            median = np.partition(rows, st.median_index)[st.median_index]
            assert got.hex() == float(median).hex()
            want.append(got.hex())
        for chunk in chunks:
            monkeypatch.setattr(fo, "_QUERY_CHUNK", chunk)
            assert [x.hex() for x in fo.query_many(st, vs).tolist()] == want
        assert np.array_equal(st.matrix, before)


@pytest.mark.parametrize("k, blocks", [(1, 1), (24, 2), (141, 9)])
def test_every_read_hashes_in_one_kernel_call_per_block(monkeypatch, k,
                                                        blocks):
    """A scalar query makes one `backend.hash_block` call; a batch of
    1000 distinct elements within one chunk makes one per block of
    max(1, 2^14 // k) elements, not one per row."""
    st = _limb_states(k)[2]
    calls = []
    kernel = backend.hash_block
    monkeypatch.setattr(backend, "hash_block",
                        lambda *args: calls.append(1) or kernel(*args))
    fo.query(st, 12345)
    assert len(calls) == 1
    vs = np.random.default_rng(k).choice(fo.MAX_DOMAIN, size=1000,
                                         replace=False)
    calls.clear()
    fo.query_many(st, vs)
    assert len(calls) == blocks


def test_query_coefficients_are_read_only_and_rebuilt_on_load():
    """The a limbs and row offsets every read reuses are computed by
    every state, hand-built and deserialized alike, and cannot be
    written through."""
    for st in _limb_states(5):
        assert st.a_hi.tolist() == [h.a >> 32 for h in st.hashes]
        assert st.a_lo.tolist() == [h.a & 0xFFFFFFFF for h in st.hashes]
        assert st.offsets.dtype == np.intp
        assert st.offsets.tolist() == [j * st.m for j in range(st.k)]
        for v in (st.a_hi, st.a_lo, st.offsets):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 1
    built, back, _ = _limb_states(5)
    for name in ("a_hi", "a_lo", "offsets"):
        assert getattr(back, name) is not getattr(built, name)


def test_reproducible_and_round_sensitive():
    elems = np.arange(1000, dtype=np.uint64) % 64
    a = fo.construct(elems, 64, params(), seed=77)
    b = fo.construct(elems, 64, params(), seed=77)
    c = fo.construct(elems, 64, params(), seed=77, round_index=3)
    assert np.array_equal(a.matrix, b.matrix)
    assert [h.a for h in a.hashes] == [h.a for h in b.hashes]
    assert not np.array_equal(a.matrix, c.matrix)


def test_serialization_round_trip():
    rng = np.random.default_rng(6)
    elems = rng.integers(0, 10_000, size=5000, dtype=np.uint64)
    st = fo.construct(elems, 10_000, params(), seed=8)
    blob = fo.to_bytes(st)
    # format v5: a 66-byte header, k uint64 a, k uint64 b, k x m int32
    k, m, head = st.k, st.m, fo._HEADER.size
    assert (fo.VERSION, head) == (5, 66)
    assert fo._HEADER.unpack_from(blob, 0)[:5] == (b"HDFO", 5, k, m, st.d)
    assert len(blob) == head + 16 * k + 4 * k * m
    assert blob[head:] == st.a.astype("<u8").tobytes() \
        + st.b.astype("<u8").tobytes() + st.matrix.astype("<i4").tobytes()
    assert st.a.tolist() == [h.a for h in st.hashes]
    assert st.b.tolist() == [h.b for h in st.hashes]
    back = fo.from_bytes(blob)
    assert (back.k, back.m, back.d, back.n_users) == (st.k, st.m, st.d, st.n_users)
    assert back.params == st.params
    assert back.params.c_m == 4.0
    assert fo.hash_range_for(back.params, back.n_users) == back.m
    assert back.hashes == st.hashes
    assert back.matrix.dtype == np.int32
    assert np.array_equal(back.matrix, st.matrix)
    vs = rng.integers(0, 10_000, size=64, dtype=np.uint64)
    assert np.array_equal(fo.query_many(back, vs), fo.query_many(st, vs))


def test_from_bytes_rejects_garbage():
    st = fo.construct(np.arange(10, dtype=np.uint64), 10, params(), seed=1)
    blob = fo.to_bytes(st)
    with pytest.raises(ValueError):
        fo.from_bytes(b"ZZZZ" + blob[4:])
    for size in (3, 20, 50, len(blob) - 1):
        with pytest.raises(ValueError):
            fo.from_bytes(blob[:size])
    # eps = 1e-17 passes the (0, 1] range but e^eps - 1 is 0 in float64
    head = list(fo._HEADER.unpack_from(blob, 0))
    head[5] = 1e-17
    with pytest.raises(ValueError):
        fo.from_bytes(fo._HEADER.pack(*head) + blob[fo._HEADER.size:])
    # a version-2 blob whose first JSON hash record nests 100000 deep
    head = list(fo._HEADER.unpack_from(blob, 0))
    head[1] = 2
    with pytest.raises(ValueError):
        fo.from_bytes(fo._HEADER.pack(*head) + struct.pack("<I", 100_000)
                      + b"[" * 100_000)
    # a version-3 blob: the same coefficients, the matrix as float64
    head[1] = 3
    with pytest.raises(ValueError):
        fo.from_bytes(fo._HEADER.pack(*head)
                      + blob[fo._HEADER.size:fo._HEADER.size + 16 * st.k]
                      + (st.matrix * st.factor).astype("<f8").tobytes())
    # a version-4 blob: scheme and reserved bytes after the version
    v4 = struct.Struct("<4sHBBIQQddddQ")
    fields = fo._HEADER.unpack_from(blob, 0)[2:]
    with pytest.raises(ValueError, match="unsupported version 4"):
        fo.from_bytes(v4.pack(b"HDFO", 4, 0, 0, *fields) + blob[fo._HEADER.size:])
    # coefficients outside the family: a = 0, a = p, b = p
    a_at, b_at = fo._HEADER.size, fo._HEADER.size + 8 * st.k
    for at, value in ((a_at, 0), (a_at, P61), (b_at, P61)):
        bad = blob[:at] + struct.pack("<Q", value) + blob[at + 8:]
        with pytest.raises(ValueError):
            fo.from_bytes(bad)
    # header fields out of range, each with arrays of the length it implies:
    # k = 0 and m = 3
    coeffs = blob[a_at:b_at + 8 * st.k]
    for at, value, arrays, match in (
            (2, 0, b"", "k = 0"),
            (3, 3, coeffs + bytes(4 * 3 * st.k), "not a power of two")):
        head = list(fo._HEADER.unpack_from(blob, 0))
        head[at] = value
        with pytest.raises(ValueError, match=match):
            fo.from_bytes(fo._HEADER.pack(*head) + arrays)


def test_construct_equals_per_group_sum():
    """Each row of the matrix is, exactly, the transform of its group's
    raw sums: user u adds the sign of H[row_u, h_j(x_u)], flipped
    when coin_u >= keep_prob, at row_u.  The groups, hashes, rows and coins
    are re-drawn here from the streams the build is specified to use."""
    n, d, seed, rnd = 400, 1000, 17, 3
    p = params(c_m=1.0, beta_prime=0.3)
    elems = np.random.default_rng(6).integers(0, d, size=n, dtype=np.uint64)
    st = fo.construct(elems, d, p, seed, round_index=rnd)

    k, m = fo.repetitions_for(p), fo.hash_range_for(p, n)
    hash_rng = setup_stream(seed, rnd, 1)
    hashes = [sample_hash(m, hash_rng) for _ in range(k)]
    part = take_partition(n, k, setup_stream(seed, rnd, 0))
    rows_rng, coins_rng = round_streams(seed, rnd)
    rows = draw_rows(rows_rng, n, m).tolist()
    coins = draw_coins(coins_rng, n).tolist()
    keep = keep_probability(p.eps)
    raw = np.zeros((k, m))
    for u, j in enumerate(part.assignment.tolist()):
        sign = entry(m, rows[u], pairwise_hash(
            hashes[j].a, hashes[j].b, m, elems[u]))
        raw[j, rows[u]] += sign if coins[u] < keep else -sign
    want = np.array([naive_multiply(m, r) for r in raw])

    assert (st.k, st.m) == (k, m) and st.hashes == hashes
    assert fo.sample_family(k, m, seed, rnd) == hashes
    assert st.matrix.dtype == np.int32 and np.array_equal(st.matrix, want)


def test_recovers_planted_frequency():
    """Statistical sanity: a heavy planted element is estimated within
    5x the usual noise scale.  Calibration: median-of-k noise is about
    1.25 * c_eps * sqrt(n) ~= 480 here."""
    n = 50_000
    rng = np.random.default_rng(10)
    ds = gen_planted(n, 1 << 16, [(4242, 12_000)], rng)
    st = fo.construct(ds.elements, ds.d, params(), seed=3)
    assert abs(fo.query(st, 4242) - 12_000) <= 2400


def test_statistical_error_bound_violation_rate():
    """Zipf data over a huge domain: the calibrated error envelope
    (theoretical_error_bound at c = 3.5, fixed offline) holds for at least
    95% of (element, trial) pairs, at 50 random elements x 8 trials."""
    n = 100_000
    p = params(beta_prime=0.05)
    bound = fo.theoretical_error_bound(p, n, c=3.5)
    within = 0
    total = 0
    for trial in range(8):
        rng = np.random.default_rng(100 + trial)
        ds = gen_zipf(n, 1 << 32, 1.1, rng)
        counts = exact_frequency(ds)
        st = fo.construct(ds.elements, ds.d, p, seed=500 + trial)
        vs = rng.choice(ds.elements, size=50, replace=False)
        ests = fo.query_many(st, vs)
        for v, est in zip(vs, ests):
            total += 1
            within += int(abs(est - counts[int(v)]) <= bound)
    assert within / total >= 0.95, f"{within}/{total} inside the bound"


CHUNK_CASES = [
    (5, (1, 7, 64, 5)),              # n < k: most groups stay empty
    (400, (1, 7, 64, 400)),
    ((1 << 16) + 3, (7, 64, (1 << 16) + 3)),   # the default crosses a chunk
]


@pytest.mark.parametrize("n,chunks", CHUNK_CASES)
def test_builds_do_not_depend_on_the_chunk_size(monkeypatch, n, chunks):
    """Both builds ingest CHUNK users at a time; the matrix and the raw hrr
    buffer must be bit-identical to the default chunking at any size, since
    each chunk draws the next slice of the round's streams."""
    d = 1000
    p = params(c_m=1.0, beta_prime=0.3)
    elems = np.random.default_rng(n).integers(0, d, size=n, dtype=np.uint64)
    budget = PrivacyBudget(1.0)

    def builds():
        return (fo.construct(elems, d, p, seed=23, round_index=2).matrix,
                hrr.build(elems, d, budget, seed=23, round_index=2,
                          finalize=False).buffer)

    want = builds()
    assert fo.repetitions_for(p) == 10
    for chunk in chunks:
        monkeypatch.setattr(hrr, "CHUNK", chunk)
        got = builds()
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), chunk
