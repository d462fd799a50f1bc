import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hadaldp import backend
from hadaldp.hashing import P61

import hadamard_reference as hadamard


def test_numpy_is_the_only_build():
    assert backend.get_backend() == "numpy"
    backend.set_backend("numpy")
    with pytest.raises(ValueError):
        backend.set_backend("jit")


def test_signs_are_popcount_parity():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
    cols = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
    got = backend.hadamard_signs(rows, cols)
    want = [-1 if (r & c).bit_count() & 1 else 1
            for r, c in zip(rows.tolist(), cols.tolist())]
    assert got.dtype == np.int8 and got.tolist() == want


def test_accumulate_is_integer_valued_and_conserving():
    rng = np.random.default_rng(3)
    m = 256
    rows = rng.integers(0, m, size=10_000, dtype=np.uint64)
    reports = np.where(rng.random(10_000) < 0.75, 1, -1).astype(np.int8)
    buf = np.zeros(m, dtype=np.float64)
    backend.accumulate_reports(buf, rows, reports)
    want = np.zeros(m, dtype=np.int64)
    for r, x in zip(rows.tolist(), reports.tolist()):
        want[r] += x
    # one +-1 per user, summed exactly at its row
    assert buf.tolist() == want.tolist()
    assert buf.sum() == reports.sum()
    # the builds' int32 sums take the same int8 reports, exactly
    sums = np.zeros(m, dtype=np.int32)
    backend.accumulate_reports(sums, rows, reports)
    assert sums.dtype == np.int32 and sums.tolist() == want.tolist()


def _full(value, n):
    return np.full(n, value, dtype=np.uint64)


def test_mulmod_limbs_match_big_integer_arithmetic():
    rng = np.random.default_rng(4)
    a_vals = [1, 2, P61 - 1, int(rng.integers(1, P61))]
    xs = np.array([0, 1, P61 - 1, 1 << 60, (1 << 61) - 2] +
                  list(rng.integers(0, P61, size=500)), dtype=np.uint64)
    for a in a_vals:
        # b = 0 and a range of 2^61, above every residue, leave a*x mod p
        got = backend.hash_eval(xs, _full(a, xs.size), _full(0, xs.size),
                                1 << 61)
        assert got.tolist() == [(a * int(x)) % P61 for x in xs]


HASH_XS = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 60,
           (1 << 61) - 2]


def _exact_hash(x, a, b, m):
    return ((a * x + b) % P61) % m


def _read_cells(x, a, b, m):
    """The block kernel as an oracle read calls it: one element's
    Python-int limbs, or a D x 1 uint64 column's, against the k rows'
    coefficient vectors a and b, into k or D x k cells."""
    shape = (6, a.size) if isinstance(x, int) else (6, len(x), a.size)
    rows = np.empty(shape, dtype=np.uint64)
    return backend.hash_block((x >> 32, x & 0xFFFFFFFF),
                              backend.split_limbs(a), b, m, rows[5], rows[:5])


@pytest.mark.parametrize("m", [1, 2, 1024, 4096, 1 << 61, 1 << 62])
@pytest.mark.parametrize("n", [(1 << 13) - 1, 1 << 13, (1 << 13) + 1,
                               3 * (1 << 13) + 5])
def test_hash_kernel_matches_big_integers_across_blocks(n, m):
    """Sizes around the 2^13-element block, in the forms the package
    uses: per-element coefficients (a build), one function's
    coefficients repeated over many elements (`eval_batch`), and one
    element against a vector of functions (a scalar query over the k
    rows, through the block kernel)."""
    rng = np.random.default_rng(n + m % 1000)
    xs = rng.integers(0, P61, size=n, dtype=np.uint64)
    xs[:len(HASH_XS)] = HASH_XS
    a = rng.integers(1, P61, size=n, dtype=np.uint64)
    b = rng.integers(0, P61, size=n, dtype=np.uint64)
    a[:3] = [1, P61 - 1, P61 - 1]
    b[:3] = [0, P61 - 1, 0]
    x_l, a_l, b_l = xs.tolist(), a.tolist(), b.tolist()

    got = backend.hash_eval(xs, a, b, m)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tolist() == [_exact_hash(*t, m) for t in zip(x_l, a_l, b_l)]
    for sa, sb in ((1, 0), (P61 - 1, P61 - 1), (a_l[5], b_l[5])):
        got = backend.hash_eval(xs, _full(sa, n), _full(sb, n), m)
        assert got.tolist() == [_exact_hash(x, sa, sb, m) for x in x_l]
    for x in HASH_XS:
        got = _read_cells(x, a, b, m)
        assert got.tolist() == [_exact_hash(x, *t, m) for t in zip(a_l, b_l)]


HASH_COEFFS = [(1, 0), (1, P61 - 1), (P61 - 1, 0), (P61 - 1, P61 - 1),
               ((1 << 32) + 1, (1 << 32) - 1)]


@pytest.mark.parametrize("m", [1, 2, 4096, 1 << 61, 1 << 62])
def test_hash_kernel_splits_a_size_one_operand_once(m):
    """An oracle read splits its element into 32-bit limbs once, as
    Python ints (a scalar query) or as a D x 1 column (a batch query's
    block), and hashes them against the k rows' coefficients.  Every
    element at the limb edges, against the extreme coefficients, must
    hash like the big-integer formula, as it does through `hash_eval`
    with those coefficients repeated per element."""
    xs = np.array(HASH_XS, dtype=np.uint64)
    a = np.array([c[0] for c in HASH_COEFFS], dtype=np.uint64)
    b = np.array([c[1] for c in HASH_COEFFS], dtype=np.uint64)
    for sa, sb in HASH_COEFFS:
        got = backend.hash_eval(xs, _full(sa, xs.size), _full(sb, xs.size), m)
        assert got.tolist() == [_exact_hash(x, sa, sb, m) for x in HASH_XS]
    for x in HASH_XS:
        got = _read_cells(x, a, b, m)
        assert got.shape == a.shape
        assert got.tolist() == [_exact_hash(x, *c, m) for c in HASH_COEFFS]
    got = _read_cells(xs[:, None], a, b, m)
    assert got.shape == (xs.size, a.size)
    assert got.tolist() == [[_exact_hash(x, *c, m) for c in HASH_COEFFS]
                            for x in HASH_XS]


# the elements where x's high limb turns nonzero
LIMB_EDGE = [(1 << 32) - 1, 1 << 32, (1 << 32) + 1]


@pytest.mark.parametrize("high", LIMB_EDGE[1:])
@pytest.mark.parametrize("m", [2, 4096, 1 << 61, 1 << 62])
def test_hash_kernel_skips_a_zero_high_limb_exactly(m, high):
    """Three blocks: the first and third hold elements below 2^32 only,
    so the kernel skips their zero high-limb terms; the second ends with
    one element at or above 2^32, so it runs them all.  Every form, per
    element, one function and one element against many functions, must
    hash like the big-integer formula, on both sides of the edge.  m = 2
    and 4096 take the mask m - 1, 2^61 the mask p, and 2^62, above
    p + 1, the mask p as well."""
    n = 3 * (1 << 13)
    rng = np.random.default_rng(m % 1000 + high)
    xs = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    xs[:2] = 1, (1 << 32) - 1      # with a = 1, b = p - 1, x = 1 folds to p
    xs[2 * (1 << 13) - 1] = high
    a = rng.integers(1, P61, size=n, dtype=np.uint64)
    b = rng.integers(0, P61, size=n, dtype=np.uint64)
    a[:2], b[:2] = P61 - 1, P61 - 1
    x_l, a_l, b_l = xs.tolist(), a.tolist(), b.tolist()

    got = backend.hash_eval(xs, a, b, m)
    assert got.tolist() == [_exact_hash(*t, m) for t in zip(x_l, a_l, b_l)]
    for sa, sb in HASH_COEFFS:
        got = backend.hash_eval(xs, _full(sa, n), _full(sb, n), m)
        assert got.tolist() == [_exact_hash(x, sa, sb, m) for x in x_l]
    for x in LIMB_EDGE:
        want = [_exact_hash(x, *t, m) for t in zip(a_l[:300], b_l[:300])]
        assert _read_cells(x, a[:300], b[:300], m).tolist() == want


def test_hash_kernel_shapes():
    """One output per element, as uint64, however many blocks; none for
    no element."""
    empty = np.empty(0, dtype=np.uint64)
    assert backend.hash_eval(empty, empty, empty, 16).shape == (0,)
    xs = np.arange(6, dtype=np.uint64)
    got = backend.hash_eval(xs, np.array([1, 2, 3, 1, 2, 3], np.uint64),
                            _full(5, 6), 16)
    assert got.dtype == np.uint64
    assert got.tolist() == [(a * x + 5) % 16
                            for x, a in zip(range(6), [1, 2, 3, 1, 2, 3])]


def test_hash_kernel_memory_is_its_output_and_one_block_scratch():
    n = 1 << 20
    rng = np.random.default_rng(6)
    xs = rng.integers(0, P61, size=n, dtype=np.uint64)
    a = rng.integers(1, P61, size=n, dtype=np.uint64)
    b = rng.integers(0, P61, size=n, dtype=np.uint64)
    tracemalloc.start()
    try:
        out = backend.hash_eval(xs, a, b, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 << 20
    assert peak <= out.nbytes + (1 << 20)


def test_fwht_operand_validation():
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(3, dtype=np.float64))
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        backend.fwht_inplace(np.zeros(8, dtype=np.float64)[::2])


def _reference_fwht(x):
    """The textbook loop: pass h = 1, 2, ..., m/2 over the whole array."""
    m = x.shape[-1]
    flat = x.reshape(-1, m)
    h = 1
    while h < m:
        v = flat.reshape(-1, 2, h)
        t = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] += v[:, 1, :]
        v[:, 1, :] = t
        h *= 2


FWHT_SHAPES = ([(r, m) for m in (1, 2, 2048, 4096, 8192)
                for r in (1, 31, 32, 33, 141)]
               + [(1 << 17,), (3, 1 << 17), (1 << 20,), (2, 3, 256),
                  (2, 3, 8192), (0, 8192),
                  # several slabs per row in the last group; a partial panel
                  (24, 1 << 18), (7, 1 << 14)]
               # single rows of every other length up to 2^20: every split
               # of the bits into digits, and every odd last digit
               + [(1 << k,) for k in range(1, 21) if k not in (17, 20)])
# the builds' shapes: the oracle's and table's (heavy's (141, 2048) is above)
BUILD_SHAPES = [(24, 4096), (1 << 24,)]


@pytest.mark.parametrize("shape", FWHT_SHAPES)
def test_fwht_is_bit_identical_to_the_pass_by_pass_loop(shape):
    # real-valued input, so every rounding of every add must match
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    want = x.copy()
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("shape", FWHT_SHAPES + BUILD_SHAPES)
def test_int32_fwht_equals_the_float64_loop(shape):
    x = np.random.default_rng(sum(shape)).integers(-3, 4, size=shape,
                                                   dtype=np.int32)
    want = x.astype(np.float64)
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert x.dtype == np.int32 and np.array_equal(x, want)


MULTI_PANEL_SHAPES = [(1 << 20,), (3, 1 << 17), (24, 1 << 18), (7, 1 << 14),
                      (0, 8192)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.int32])
@pytest.mark.parametrize("shape", MULTI_PANEL_SHAPES)
def test_fwht_worker_count_does_not_change_the_output(
        monkeypatch, thread_starts, shape, dtype, workers):
    """Every group of two or more slabs is shared, groups of 3 slabs too;
    the output is the textbook loop's, bit for bit."""
    monkeypatch.setattr(backend, "_worker_count", lambda: workers)
    monkeypatch.setattr(backend, "_MIN_RUN", 1)
    started = thread_starts
    rng = np.random.default_rng(sum(shape))
    x = (rng.standard_normal(shape) if dtype is np.float64
         else rng.integers(-3, 4, size=shape, dtype=np.int32))
    want = x.astype(np.float64)
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert x.dtype == dtype and np.array_equal(x, want)
    # more than one full panel, 1 MiB (2^17 float64 or 2^18 int32
    # elements), is more than one slab
    assert len(started) == (workers == 2 and x.nbytes > 1 << 20)


def test_fwht_slowed_helper_leaves_its_slabs_to_the_caller(monkeypatch):
    """Both workers take a group's next slab from one iterator, so a
    helper that stalls on its first slab runs fewer: the caller runs
    more than half of that group's slabs, not a fixed half, and the
    output is still the textbook loop's."""
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    caller = threading.get_ident()
    ran = []    # (the group's shared iterator, the thread that ran a slab)
    slab_passes = backend._slab_passes

    def traced(slabs, panel, half):
        def each():
            for slab in slabs:
                me = threading.get_ident()
                ran.append((slabs, me))
                if me != caller and sum(t == me for _, t in ran) == 1:
                    time.sleep(0.2)     # the helper stalls on its first slab
                yield slab
        slab_passes(each(), panel, half)

    monkeypatch.setattr(backend, "_slab_passes", traced)
    # 2^20 float64: four groups of eight 1 MiB slabs
    x = np.random.default_rng(3).standard_normal(1 << 20)
    want = x.copy()
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert np.array_equal(x, want)
    first = [t for shared, t in ran if shared is ran[0][0]]
    assert len(first) == 8 and first.count(caller) > 4


@pytest.mark.parametrize("shape", [(24, 4096), (141, 2048)])
def test_fwht_small_transforms_start_no_thread(monkeypatch, shape):
    """The oracle's matrix is one panel and heavy's two slabs, too few to
    split, even with two CPUs."""
    def refuse(thread):
        raise AssertionError("a small transform started a thread")

    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    x = np.random.default_rng(7).integers(-3, 4, size=shape, dtype=np.int32)
    want = x.astype(np.float64)
    _reference_fwht(want)
    backend.fwht_inplace(x)
    assert np.array_equal(x, want)


def test_fwht_concurrent_callers_share_no_scratch(monkeypatch):
    """Two callers transform their own 2^20 arrays at once, each through
    its own helper; each gets the serial result."""
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    xs = [np.random.default_rng(s).integers(-3, 4, size=1 << 20,
                                            dtype=np.int32) for s in (1, 2)]
    wants = [x.astype(np.float64) for x in xs]
    for want in wants:
        _reference_fwht(want)
    barrier = threading.Barrier(2)
    errors = []

    def call(x):
        try:
            barrier.wait()
            backend.fwht_inplace(x)
        except BaseException as e:  # reported below, in the test's thread
            errors.append(e)

    callers = [threading.Thread(target=call, args=(x,)) for x in xs]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    assert not errors, errors
    for x, want in zip(xs, wants):
        assert np.array_equal(x, want)


def test_fwht_shared_slabs_survive_fast_thread_switching(monkeypatch):
    """Four callers, each with its own helper, transform float64 arrays of
    eight slabs per group while the interpreter switches threads every
    microsecond: a slab taken twice, or by no one, would change an
    output."""
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    xs = [np.random.default_rng(s).standard_normal(1 << 20) for s in range(4)]
    wants = [x.copy() for x in xs]
    for want in wants:
        _reference_fwht(want)
    errors = []

    def call(x):
        try:
            backend.fwht_inplace(x)
        except BaseException as e:  # reported below, in the test's thread
            errors.append(e)

    callers = [threading.Thread(target=call, args=(x,)) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert not errors, errors
    for x, want in zip(xs, wants):
        assert np.array_equal(x, want)


# --- the one helper thread --------------------------------------------------

def test_second_worker_unwanted_starts_no_thread(monkeypatch, thread_starts):
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    with backend.second_worker(False) as helper:
        assert helper is None
    assert thread_starts == []


def test_second_worker_on_one_cpu_starts_no_thread(monkeypatch, thread_starts):
    """The policy reads the process's affinity: one CPU, no helper."""
    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    with backend.second_worker(True) as helper:
        assert helper is None
    assert thread_starts == []


def test_second_worker_starts_one_thread_and_joins_it(monkeypatch,
                                                       thread_starts):
    monkeypatch.setattr(backend.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    with backend.second_worker(True) as helper:
        assert [helper.submit(pow, 2, k).result() for k in range(3)] \
            == [1, 2, 4]
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()


def test_second_worker_joins_the_helper_after_an_error_in_the_block(
        monkeypatch):
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="caller failed"):
        with backend.second_worker(True) as helper:
            busy = helper.submit(time.sleep, 0.05)
            raise RuntimeError("caller failed")
    assert busy.done()
    assert threading.active_count() == before


def test_second_worker_helper_error_reraises_from_result(monkeypatch):
    monkeypatch.setattr(backend, "_worker_count", lambda: 2)

    def fail():
        raise ValueError("helper failed")

    with backend.second_worker(True) as helper:
        pending = helper.submit(fail)
        with pytest.raises(ValueError, match="helper failed"):
            pending.result()


def test_fwht_fills_its_panels_at_short_matrix_rows(monkeypatch):
    """At (24, 8192) the 13 bits are three digits, 5+4+4, and the 24 rows
    (768 KiB) fill one panel: one panel per digit, not one per row."""
    calls = []
    column_passes = backend._column_passes

    def counted(p, half):
        calls.append(p.shape)
        column_passes(p, half)

    monkeypatch.setattr(backend, "_column_passes", counted)
    x = np.ones((24, 8192), dtype=np.int32)
    backend.fwht_inplace(x)
    assert (x[:, 0] == 8192).all() and not x[:, 1:].any()
    assert len(calls) == 3, calls


def test_int32_fwht_is_exact_at_the_largest_sum():
    # |x| sums to 2^31 - 1, so every intermediate is +-(2^31 - 1)
    x = np.zeros(1 << 13, dtype=np.int32)
    x[0] = 2**31 - 1
    backend.fwht_inplace(x)
    assert (x == 2**31 - 1).all()
    x[:] = 0
    x[(1 << 13) - 1] = -(2**31 - 1)
    backend.fwht_inplace(x)
    assert np.array_equal(x, -(2**31 - 1) * np.array(
        [hadamard.entry(1 << 13, (1 << 13) - 1, j) for j in range(1 << 13)]))


@pytest.mark.parametrize("m", [1 << 13, 1 << 17, 1 << 20])
def test_fwht_two_level_involution_is_exact(m):
    x = np.random.default_rng(m).integers(-50, 51, size=m).astype(np.float64)
    assert np.array_equal(hadamard.fht(hadamard.fht(x)), m * x)


@pytest.mark.parametrize("m", [1 << 13, 1 << 20])
def test_fwht_of_a_basis_vector_is_a_matrix_row(m):
    rng = np.random.default_rng(5)
    i = m // 2 + 5   # bits set both below and above the 4096 block
    e = np.zeros(m)
    e[i] = 1.0
    got = hadamard.fht(e)
    for j in rng.integers(0, m, size=200).tolist():
        assert got[j] == hadamard.entry(m, i, j)


def test_fwht_memory_is_a_panel_not_a_half_array():
    x = np.ones(1 << 22)
    tracemalloc.start()
    try:
        backend.fwht_inplace(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x[0] == 1 << 22 and not x[1:].any()
    # a pass over the whole array would need a 16 MiB half-size temporary
    assert peak < 4 << 20


def test_fwht_panel_is_no_larger_than_the_oracle_matrix():
    """The oracle's (24, 4096) matrix is one panel of its own size, so the
    transform allocates that panel and a half-panel: 1.5x its bytes, and
    numpy's ufunc buffers for three operands, since its 64 x 1536 panel
    has runs shorter than the buffer."""
    x = np.ones((24, 4096), dtype=np.int32)
    tracemalloc.start()
    try:
        backend.fwht_inplace(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (x[:, 0] == 4096).all() and not x[:, 1:].any()
    assert peak <= 1.5 * x.nbytes + 3 * np.getbufsize() * x.itemsize


def test_int32_fwht_memory_is_a_panel_not_a_half_array():
    x = np.ones(1 << 22, dtype=np.int32)
    tracemalloc.start()
    try:
        backend.fwht_inplace(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x[0] == 1 << 22 and not x[1:].any()
    assert peak < 4 << 20

