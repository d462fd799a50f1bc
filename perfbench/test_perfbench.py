"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

The heavy workload runs at full size (its tree depth and threshold are
sized for n = 1e6); oracle and table run small.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name, seed=3):
    if name == "oracle":
        return workloads.Oracle(seed, n=20_000, n_queries=2_000)
    if name == "table":
        return workloads.Table(seed, n=20_000, d=1 << 16, n_queries=2_000)
    return workloads.Heavy(seed)


@pytest.fixture(scope="module")
def ready():
    cache = {}

    def get(name):
        if name not in cache:
            wl = small(name)
            wl.setup()
            assert wl.check_setup()
            cache[name] = wl
        return cache[name]
    return get


def current():
    return [t.owner.__dict__[t.attr] for t in tracer.TARGETS]


def test_wrappers_are_removed_on_exit():
    before = current()
    tr = tracer.Tracer()
    with tr.installed():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))
    with pytest.raises(RuntimeError):
        with tr.installed():
            raise RuntimeError("op failed")
    assert all(a is b for a, b in zip(before, current()))


@pytest.mark.parametrize("name", ["oracle", "heavy", "table"])
def test_traced_and_plain_ops_are_bit_identical(ready, name):
    wl = ready(name)
    plain = wl.op(1)
    traced = wl.op(1, tracer.Tracer())
    assert plain.ok and traced.ok
    assert plain.digest == traced.digest


@pytest.mark.parametrize("name", ["oracle", "heavy", "table"])
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_spec(ready, monkeypatch, name, trace):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.measure(ready(name), 0, bool(trace), log=lambda line: None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in want]
    assert [v["unit"] for v in got.values()] == [m["unit"] for m in want]
    assert all(math.isfinite(v["value"]) for v in got.values())
    if trace:
        self_s = sum(v["value"] for k, v in got.items() if k.endswith(".self_s"))
        assert self_s + got["trace.uncovered_s"]["value"] == \
            pytest.approx(got["trace.wall_s"]["value"], rel=1e-9)


def test_derived_counts_match_the_trace(ready):
    wl = ready("heavy")
    tr = tracer.Tracer()
    op = wl.op(1, tr)
    queries = tr.stats["freq_oracle.query"].calls
    assert op.queries == queries     # walk_queries, from the histogram
    assert tr.hash_evals == 141 * queries   # k = 141 rows at these sizes
    assert op.state_bytes == 5 * 141 * 2048 * 8


def test_exits_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
