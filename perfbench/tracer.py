"""Per-layer spans recorded from outside the package.

`Tracer.installed()` swaps each public function listed in `TARGETS` for a
timing wrapper, in the namespace where its callers look it up (a module
global such as `heavy_hitters.children_of`, a module attribute such as
`backend.fwht_inplace`, or a class attribute such as `Partition.members`),
and puts the originals back on exit.  Nothing under `src/` changes.

Each wrapper opens a span: it times the call with `perf_counter_ns` and
charges the call's duration, minus the time of spans opened inside it, to
its layer as self time.  Self times therefore add up to the total time of
the outermost spans, and an op's wall time minus that total is the time no
span covers.

No span goes around per-element scalar calls (`PairwiseHash.eval`,
`encode_prefix`, `hrr.query`): a wrapper costs about a microsecond, which
is the size of the call itself.  `hashing.eval.calls` is derived instead
(k per `fo.query`), and scalar `hrr.query` calls are timed as one block
around the caller's loop.
"""

import contextlib
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from hadaldp import backend, freq_oracle, heavy_hitters, hrr
from hadaldp.hashing import PairwiseHash
from hadaldp.partition import Partition


class Target(NamedTuple):
    owner: object
    attr: str
    layer: str
    items: Optional[Callable] = None    # (args) -> elements processed
    computed: tuple = ()                # ((stat, (args) -> count), ...)


def _fwht_adds(args):
    x = args[0]
    return x.size * (x.shape[-1].bit_length() - 1)   # rows * m * log2 m


def _count(args):
    return args[1]


def _size(args):
    return np.size(args[1])


TARGETS = [
    Target(freq_oracle, "construct", "freq_oracle.construct"),
    Target(freq_oracle, "query_many", "freq_oracle.query_many"),
    Target(freq_oracle, "query", "freq_oracle.query"),
    Target(freq_oracle, "row_estimates", "freq_oracle.row_estimates"),
    Target(freq_oracle, "take_partition", "partition.take_partition"),
    Target(heavy_hitters, "take_partition", "partition.take_partition"),
    Target(Partition, "members", "partition.members"),
    Target(PairwiseHash, "eval_batch", "hashing.eval_batch", _size),
    Target(freq_oracle, "draw_rows", "randomizer.draw", _count),
    Target(freq_oracle, "draw_coins", "randomizer.draw", _count),
    Target(hrr, "draw_rows", "randomizer.draw", _count),
    Target(hrr, "draw_coins", "randomizer.draw", _count),
    # the table an accumulate's bincount fills and adds into
    Target(backend, "accumulate_reports", "backend.accumulate_reports", _size,
           (("computed_bytes", lambda args: args[0].nbytes),)),
    # each butterfly reads two float64 and writes two per two adds
    Target(backend, "fwht_inplace", "backend.fwht_inplace",
           computed=(("computed_adds", _fwht_adds),
                     ("computed_bytes", lambda args: 16 * _fwht_adds(args)))),
    Target(heavy_hitters, "encode_prefix_batch", "prefixes.encode_prefix_batch"),
    Target(heavy_hitters, "children_of", "prefixes.children_of"),
    Target(heavy_hitters, "run", "heavy_hitters.run"),
    Target(hrr, "build", "hrr.build"),
]
# layer -> the stats it reports, in print order
LAYERS = {}
for _t in TARGETS:
    stats = LAYERS.setdefault(_t.layer, ["self_s", "calls"])
    if _t.items is not None and "items" not in stats:
        stats.append("items")
    stats += [name for name, _ in _t.computed if name not in stats]
LAYERS["hrr.query"] = ["self_s", "calls"]   # a Tracer.block in the caller


class Stat:
    __slots__ = ("self_ns", "total_ns", "calls", "items", "computed")

    def __init__(self):
        self.self_ns = 0
        self.total_ns = 0   # inclusive of child spans
        self.calls = 0
        self.items = 0
        self.computed = defaultdict(int)


class Tracer:
    """In-memory spans and counters for the ops run while installed."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.root_ns = 0          # summed duration of outermost spans
        self.hash_evals = 0       # derived: k scalar hashes per fo.query
        self._open = []           # child time of each open span
        # fo.construct and fo.query by the round the state was built at;
        # hh.run builds level tau at round tau, the refinement at L + 1
        self._round_of = {}
        self.build_ns = defaultdict(int)
        self.query_ns = defaultdict(int)
        self.query_calls = defaultdict(int)

    def _close(self, layer, dt, child):
        st = self.stats[layer]
        st.self_ns += dt - child
        st.total_ns += dt
        st.calls += 1
        if self._open:
            self._open[-1] += dt
        else:
            self.root_ns += dt
        return st

    def wrap(self, target, fn):
        open_ = self._open

        def wrapper(*args, **kwargs):
            open_.append(0)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                st = self._close(target.layer, dt, open_.pop())
                if target.items is not None:
                    st.items += int(target.items(args))
                for key, count in target.computed:
                    st.computed[key] += int(count(args))
            if target.layer == "freq_oracle.construct":
                rnd = kwargs.get("round_index", 0)
                self._round_of[id(out)] = rnd
                self.build_ns[rnd] += dt
            elif target.layer == "freq_oracle.query":
                rnd = self._round_of.get(id(args[0]))
                self.query_ns[rnd] += dt
                self.query_calls[rnd] += 1
                self.hash_evals += len(args[0].hashes)
            return out

        return wrapper

    @contextlib.contextmanager
    def block(self, layer, calls):
        """One span around a caller's loop of `calls` scalar calls."""
        self._open.append(0)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self._close(layer, dt, self._open.pop()).calls += calls - 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for target in TARGETS:
                orig = target.owner.__dict__[target.attr]
                saved.append((target.owner, target.attr, orig))
                setattr(target.owner, target.attr, self.wrap(target, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self._round_of.clear()

    def layer_values(self, n_ops):
        """Per-op means of every stat in LAYERS, 0 for layers not reached."""
        out = {}
        for layer, stats in LAYERS.items():
            st = self.stats.get(layer) or Stat()
            for stat in stats:
                if stat == "self_s":
                    val = st.self_ns / 1e9
                elif stat in ("calls", "items"):
                    val = getattr(st, stat)
                else:
                    val = st.computed[stat]
                out[f"{layer}.{stat}"] = val / n_ops
        out["hashing.eval.calls"] = self.hash_evals / n_ops
        return out
