"""Bit-identity pins: sha256 prefixes of small fixed-seed outputs.

The package promises estimates that are bit-identical at fixed seeds:
a transcript is a pure function of (seed, round, user position), so a
dataset draw, a server state, its blob and every answer read from it
are fixed bytes.  Each test below hashes one such output and compares
the first 16 hex digits of its sha256 with a pin.  The pins were
recorded on the package at commit a7d528d.  A change that moves a pin
changes what the package computes; it names the pin and the reason.

A multi-chunk build is pinned twice, at two workers and at one, against
one pin, and starts no thread at either; the pins do not depend on
`hrr.CHUNK`: a build's transcript does not depend on how its users
are chunked.
"""

import hashlib

import numpy as np
import pytest

from hadaldp import backend, hrr
from hadaldp import freq_oracle as fo
from hadaldp import heavy_hitters as hh
from hadaldp.datasets import gen_planted, gen_zipf
from hadaldp.randomizer import PrivacyBudget

D_ZIPF = 1 << 20
D_PLANTED = 1 << 16
ORACLE = fo.OracleParams(eps=1.0, beta_prime=0.05)


def digest(*parts):
    """The first 16 hex digits of the sha256 of parts, in order: an array
    contributes its dtype, shape and bytes, a bytes object itself, and
    anything else its repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def zipf_elements():
    return gen_zipf(5000, D_ZIPF, 1.1, np.random.default_rng(11)).elements


def planted_elements():
    return gen_planted(20_000, D_PLANTED, [(51_000, 8000), (2117, 6000)],
                       np.random.default_rng(12)).elements


def test_dataset_draws_are_pinned():
    assert digest(zipf_elements()) == "9c70df80f35e6e75"
    assert digest(planted_elements()) == "fbb7b6c00bad1229"


def test_oracle_matrix_blob_and_answers_are_pinned():
    elements = zipf_elements()
    state = fo.construct(elements, D_ZIPF, ORACLE, seed=13)
    assert (state.k, state.m) == (24, 512)
    assert digest(state.matrix) == "c7814f36d8c4f7cc"
    assert digest(fo.to_bytes(state)) == "78d8fa4a6effcb0e"
    assert digest(fo.query_many(state, elements[:500])) == "9f3885b6119ea4c5"


def test_table_blob_and_answers_are_pinned():
    state = hrr.build(zipf_elements() % 4096, 4096, PrivacyBudget(1.0),
                      seed=14)
    assert digest(hrr.to_bytes(state)) == "f39c45da7ef2149a"
    assert digest(hrr.query_many(state, np.arange(4096))) == \
        "50166ab218e7a05a"


def test_heavy_hitter_histogram_is_pinned():
    hist = hh.run(planted_elements(), D_PLANTED,
                  hh.HeavyParams(eps=1.0, beta=0.1, c_lambda=3.0), seed=15)
    sizes = hist.metadata["level_sizes"]
    assert hist.elements.tolist() == [51_000, 51_058] and sizes == [2, 2, 2]
    assert digest(hist.elements, hist.estimates, sizes) == "aa3adefa78a49ece"


@pytest.mark.parametrize("workers", [2, 1])
def test_multi_chunk_build_is_pinned_and_starts_no_thread(
        monkeypatch, thread_starts, workers):
    """150,000 users, four chunks of 2^15 and part of a fifth, drawn
    inline in the caller's thread whatever the workers."""
    monkeypatch.setattr(backend, "_worker_count", lambda: workers)
    elements = np.random.default_rng(16).integers(0, 1 << 32, size=150_000,
                                                  dtype=np.uint64)
    state = fo.construct(elements, 1 << 32, ORACLE, seed=17)
    assert thread_starts == []
    assert (state.k, state.m) == (24, 2048)
    assert digest(state.matrix) == "16bba42ec06c8eac"
