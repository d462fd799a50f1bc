"""Reproducible experiment runs behind the `fo` and `hh` subcommands.

A run is fully described by an ExperimentConfig (JSON file, overridden by
CLI flags), whose inputs also name the dataset (see dataset_for).  A
config builds its protocol's parameters and checks its protocol's
domain cap when it is made, so an out-of-range one raises ValueError
before any data is drawn, and a run builds them once for all its
trials.  A dataset file is read once per
run and shared by every trial; otherwise each trial regenerates its
dataset.  Each trial builds its protocol state, and draws any generated
dataset, from seeds derived off (config.seed, trial), so the same
config file gives the same CSV byte-for-byte.  Alongside the metrics, every run checks what it
produced: that every estimate is finite, and that a heavy-hitter output
names no element twice.  A violation is reported and flips the exit
status, on the theory that a benchmark that silently measures a broken
estimator is worse than no benchmark.  The protocols' own invariants
(the transform against a direct dot product, medians being row
estimates, serialization round trips) are pinned by the unit tests.
"""

import itertools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import freq_oracle as fo
from . import heavy_hitters as hh
from . import hrr
from .datasets import (check_generator_inputs, exact_counts, gen_planted,
                       gen_zipf, load_dataset)
from .randomizer import PrivacyBudget

logger = logging.getLogger(__name__)

CSV_COLUMNS = ["trial", "protocol", "n", "d", "eps", "k", "m", "B", "L",
               "lambda", "max_err", "p95_err", "p99_err", "recall_3lambda",
               "false_pos_lt_lambda", "build_ms", "query_ms"]

PROTOCOLS = ("hrr", "hada-oracle", "hada-heavy")


@dataclass
class ExperimentConfig:
    protocol: str = "hada-oracle"
    n: int = 100_000
    d: int = 1 << 20
    eps: float = 1.0
    beta: float = 0.1
    beta_prime: float = 0.05
    c_k: float = fo.DEFAULT_CK
    c_m: float = fo.DEFAULT_CM
    c_lambda: float = 1.0
    trials: int = 3
    seed: int = 0
    n_queries: int = 200
    zipf_s: float = 1.1
    planted: list = field(default_factory=list)  # [[element, count], ...]
    dataset_path: str = None
    out: str = None
    max_frontier: int = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; have {PROTOCOLS}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_frontier is not None and self.max_frontier < 1:
            raise ValueError(
                f"max_frontier must be at least 1, got {self.max_frontier}")
        if self.n_queries < 0:
            raise ValueError(f"n_queries must be non-negative, got {self.n_queries}")
        if self.dataset_path and self.planted:
            raise ValueError("give a dataset file or planted elements, not both")
        if not self.dataset_path:   # what dataset_for would draw, and its d
            if self.planted:
                check_generator_inputs(self.n, self.d, heavy=self.planted)
            else:
                check_generator_inputs(self.n, self.d, s=self.zipf_s)
            if self.protocol == "hrr":
                hrr.dim_for(self.d)
            else:
                fo.check_domain(self.d)
        self.params()   # range-checks eps and the rest before any work

    def params(self):
        """The protocol's parameters: HeavyParams for hada-heavy, else
        OracleParams (of which hrr reads eps, and its error bound eps and
        beta_prime)."""
        shared = dict(eps=self.eps, c_k=self.c_k, c_m=self.c_m)
        if self.protocol == "hada-heavy":
            return hh.HeavyParams(beta=self.beta, c_lambda=self.c_lambda,
                                  **shared)
        return fo.OracleParams(beta_prime=self.beta_prime, **shared)

    @classmethod
    def from_dict(cls, raw):
        """The config of a mapping from field names to values, such as a
        JSON file holds.  Raises ValueError on an unknown key, or on a
        value that is not of its field's type: a bool is no int, an int
        passes as a float, and None passes only where the default is None.
        """
        known = {f.name: f for f in fields(cls)}
        unknown = set(raw) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in raw.items():
            want = known[key].type
            if val is None and known[key].default is None:
                continue
            if isinstance(val, bool) or not isinstance(
                    val, (int, float) if want is float else want):
                raise ValueError(f"config key {key!r} must be of type "
                                 f"{want.__name__}, got {val!r}")
        return cls(**raw)


def _trial_seed(config, trial, tag):
    ss = np.random.SeedSequence([config.seed, trial, tag])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def dataset_for(config, trial):
    """The file at dataset_path if one is named; else the planted elements
    over a uniform background if any are given; else zipf.  A config that
    names both a file and planted elements is rejected when it is made."""
    if config.dataset_path:
        ds = load_dataset(config.dataset_path)
        if ds.d != config.d or ds.n != config.n:
            logger.info("taking n=%d, d=%d from the dataset file", ds.n, ds.d)
        return ds
    rng = np.random.default_rng(np.random.SeedSequence(
        [config.seed, trial, 0xDA7A]))
    if config.planted:
        return gen_planted(config.n, config.d, config.planted, rng)
    return gen_zipf(config.n, config.d, config.zipf_s, rng)


def _trial_datasets(config):
    """Each trial's dataset in turn: a file's, read once and shared by
    every trial since its data does not depend on the trial, else
    dataset_for's per-trial draw."""
    if config.dataset_path:
        return itertools.repeat(dataset_for(config, 0), config.trials)
    return (dataset_for(config, trial) for trial in range(config.trials))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1e3


def _error_stats(estimates, truths):
    errs = np.abs(np.asarray(estimates, dtype=np.float64)
                  - np.asarray(truths, dtype=np.float64))
    if errs.size == 0:
        return None, None, None
    return (float(errs.max()),
            float(np.percentile(errs, 95)),
            float(np.percentile(errs, 99)))


def _contract_check(row, state_bytes, params, n):
    """Add to a trial's row the bytes of its int32 server state, the
    analysis's error bound at the run's eps, beta' and n, and its max_err
    over that bound; summary.json carries them, trials.csv does not."""
    bound = fo.theoretical_error_bound(params, n)
    ratio = (row["max_err"] / bound
             if row["max_err"] is not None and bound > 0 else None)
    row.update(state_bytes=state_bytes, error_bound=bound,
               max_err_over_bound=ratio)
    return row


def _lookup_counts(values, counts, queries):
    """Exact count of each query (0 if absent) from exact_counts' arrays."""
    pos = np.minimum(np.searchsorted(values, queries), values.size - 1)
    return np.where(values[pos] == queries, counts[pos], 0)


def _sample_queries(ds, config, trial):
    rng = np.random.default_rng(np.random.SeedSequence(
        [config.seed, trial, 0x9E37]))
    if ds.n == 0:
        return np.empty(0, dtype=np.uint64)
    pos = rng.integers(0, ds.n, size=min(config.n_queries, ds.n))
    return ds.elements[pos]


def _check(failures, cond, what):
    if not cond:
        failures.append(what)
        logger.error("consistency check failed: %s", what)


def _run_oracle_trial(config, params, ds, trial, failures, out_dir):
    """One hrr or hada-oracle trial: build, query a sample, score."""
    if config.protocol == "hrr":
        name, module, seed = "hrr", hrr, _trial_seed(config, trial, 0x48)
        state, build_ms = _timed(lambda: hrr.build(
            ds.elements, ds.d, PrivacyBudget(params.eps), seed))
        k, cells = None, state.buffer
    else:
        name, module, seed = "oracle", fo, _trial_seed(config, trial, 0xF0)
        state, build_ms = _timed(lambda: fo.construct(
            ds.elements, ds.d, params, seed))
        k, cells = state.k, state.matrix
    queries = _sample_queries(ds, config, trial)
    estimates, query_ms = _timed(lambda: module.query_many(state, queries))
    _check(failures, np.isfinite(estimates).all(),
           f"{name} estimates not finite")

    truths = _lookup_counts(*exact_counts(ds), queries)
    max_err, p95, p99 = _error_stats(estimates, truths)
    row = {"trial": trial, "protocol": config.protocol, "n": ds.n, "d": ds.d,
           "eps": config.eps, "k": k, "m": state.m, "max_err": max_err,
           "p95_err": p95, "p99_err": p99,
           "build_ms": build_ms, "query_ms": query_ms}
    return _contract_check(row, cells.nbytes, params, ds.n)


def _run_heavy_trial(config, params, ds, trial, failures, out_dir):
    seed = _trial_seed(config, trial, 0x4448)
    hist, build_ms = _timed(lambda: hh.run(
        ds.elements, ds.d, params, seed, max_frontier=config.max_frontier))
    meta = hist.metadata
    lam = meta["lambda"]
    values, counts = exact_counts(ds)

    _check(failures, np.isfinite(hist.estimates).all(),
           "heavy-hitter estimates not finite")
    _check(failures,
           len(set(hist.elements.tolist())) == len(hist),
           "heavy-hitter output repeats an element")

    returned = hist.elements.tolist()
    truths = _lookup_counts(values, counts, hist.elements)
    max_err, p95, p99 = _error_stats(hist.estimates, truths)
    targets = set(values[counts >= 3.0 * lam].tolist())
    recall = (len(targets & set(returned)) / len(targets)) if targets else 1.0
    false_pos = int((truths < lam).sum())

    if out_dir is not None:
        hist.write_csv(out_dir / f"hist_trial{trial}.csv")
        hist.write_meta(out_dir / f"hist_trial{trial}.meta.json")

    return {"trial": trial, "protocol": "hada-heavy", "n": ds.n, "d": ds.d,
            "eps": config.eps, "k": meta.get("k"), "m": meta.get("m"),
            "B": meta.get("B"), "L": meta.get("L"), "lambda": lam,
            "max_err": max_err, "p95_err": p95, "p99_err": p99,
            "recall_3lambda": recall, "false_pos_lt_lambda": false_pos,
            "build_ms": build_ms, "query_ms": None}


_TRIAL_RUNNERS = {"hrr": _run_oracle_trial, "hada-oracle": _run_oracle_trial,
                  "hada-heavy": _run_heavy_trial}


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def write_rows_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in CSV_COLUMNS)
                     + "\n")


def _aggregate(rows):
    agg = {}
    for col in CSV_COLUMNS[2:]:
        vals = [row[col] for row in rows
                if isinstance(row.get(col), (int, float))
                and math.isfinite(row[col])]
        if vals:
            agg[col] = float(np.median(vals))
    return agg


def run_experiment(config):
    """Run config.trials trials; returns the summary dict.

    summary["assertion_failures"] is empty iff every check on the trials'
    output passed; the CLI turns that into the exit status.
    summary["dataset"] holds the n and d of the data the trials ran on,
    a file's where the config names one, not the config's n and d.  Each
    hada-oracle and hrr entry of summary["trials"] also holds
    `state_bytes`, `error_bound` and `max_err_over_bound` (see
    _contract_check), which trials.csv leaves out.
    """
    out_dir = None
    if config.out is not None:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    failures = []
    params = config.params()
    for trial, ds in enumerate(_trial_datasets(config)):
        row = _TRIAL_RUNNERS[config.protocol](config, params, ds, trial,
                                              failures, out_dir)
        for col in CSV_COLUMNS:
            row.setdefault(col, None)
        rows.append(row)
        logger.info("trial %d done: %s", trial,
                    {k: v for k, v in row.items() if v is not None})

    summary = {"config": asdict(config), "dataset": {"n": ds.n, "d": ds.d},
               "trials": rows, "aggregates": _aggregate(rows),
               "assertion_failures": failures}
    if out_dir is not None:
        write_rows_csv(rows, out_dir / "trials.csv")
        with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        summary["out"] = str(out_dir)
    return summary
