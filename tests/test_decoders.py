"""Fuzzing the three decoders: hostile bytes either raise ValueError or
decode to a state that survives another encode/decode unchanged."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaldp import datasets as dsets
from hadaldp import freq_oracle as fo
from hadaldp import hrr
from hadaldp.randomizer import PrivacyBudget


def _flip(blob, flips):
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out)


def variants(blob):
    """Arbitrary bytes, truncations, and byte flips of a valid blob."""
    return st.one_of(
        st.binary(max_size=2 * len(blob)),
        st.integers(0, len(blob)).map(lambda size: blob[:size]),
        st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(lambda flips: _flip(blob, flips)),
    )


def assert_same_state(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        else:
            assert x == y, f.name


def check(decode, encode, blob):
    try:
        state = decode(blob)
    except ValueError:
        return
    assert_same_state(state, decode(encode(state)))


_FO_PARAMS = fo.OracleParams(eps=1.0, beta_prime=0.5, c_k=2.0, c_m=4.0)
FO_BLOB = fo.to_bytes(fo.construct(np.arange(10, dtype=np.uint64), 10,
                                   _FO_PARAMS, seed=1))
HRR_BLOB = hrr.to_bytes(hrr.build(np.array([0, 3, 3], dtype=np.uint64), 8,
                                  PrivacyBudget(1.0), seed=1))


@given(blob=variants(FO_BLOB))
@settings(max_examples=300, deadline=None)
def test_fo_decoder_fuzz(blob):
    check(fo.from_bytes, fo.to_bytes, blob)


@given(blob=variants(HRR_BLOB))
@settings(max_examples=300, deadline=None)
def test_hrr_decoder_fuzz(blob):
    check(hrr.from_bytes, hrr.to_bytes, blob)


def test_dataset_loader_fuzz(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    good = tmp / "good.bin"
    dsets.save_dataset(dsets.Dataset(np.array([0, 5, 5, 9], dtype=np.uint64), 10),
                       good)
    path, again = tmp / "case.bin", tmp / "again.bin"

    def load(blob):
        path.write_bytes(blob)
        return dsets.load_dataset(path)

    def save(ds):
        dsets.save_dataset(ds, again)
        return again.read_bytes()

    @given(blob=variants(good.read_bytes()))
    @settings(max_examples=300, deadline=None)
    def run(blob):
        check(load, save, blob)

    run()
