"""Command line front end.

Subcommands:

- gen: write a synthetic dataset to disk (binary elements + JSON sidecar).
- fo:  build a frequency oracle over a dataset and report error metrics.
- hh:  run the heavy-hitter protocol, write the discovered histogram.

Each subcommand takes only the flags its run reads.  Each also reads an
optional JSON config of ExperimentConfig fields (--config); any flag
given on the command line overrides the file.  The dataset follows from
those inputs: --dataset FILE reads that file, --planted plants its
elements over a uniform background, and otherwise the elements are drawn
zipf.  Exit status is 0 only if the checks on the run's output all
passed (finite estimates, no heavy-hitter element named twice); a
tripped --max-frontier guard exits 1 with one line on stderr.  A bad
parameter (eps outside (0, 1], a negative seed, a --max-frontier below
1, an unknown config key or a value of the wrong type, a config file
that cannot be read, n or d or planted counts that the dataset
generator cannot draw, `fo` asked for hada-heavy, ...) exits 2 with one
line on stderr, before any data is drawn or read.
The acceptance checks run under pytest (`pytest tests/test_acceptance.py
-s` in a checkout), and timing is measured by `python3 perfbench/run.py`
there.
"""

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .datasets import save_dataset
from .experiments import (CSV_COLUMNS, ExperimentConfig, dataset_for,
                          run_experiment)
from .heavy_hitters import FrontierOverflow

_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _parse_planted(text):
    """'17:3000,42:1500' -> [[17, 3000], [42, 1500]]"""
    pairs = []
    for chunk in text.split(","):
        elem, _, count = chunk.partition(":")
        pairs.append([int(elem), int(count)])
    return pairs


def _common_flags(p):
    """What every subcommand reads: the config file, the seed, the output
    directory and the synthetic dataset's shape."""
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; explicit flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--zipf-s", dest="zipf_s", type=float, default=None)
    p.add_argument("--planted", type=_parse_planted, default=None,
                   metavar="E:C,E:C,...",
                   help="planted elements with exact counts, over uniform noise")


def _experiment_flags(p):
    """What the oracle and heavy-hitter runs share."""
    p.add_argument("--dataset", dest="dataset_path", default=None,
                   metavar="FILE",
                   help="read elements from this file instead of generating")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--ck", dest="c_k", type=float, default=None)
    p.add_argument("--cm", dest="c_m", type=float, default=None)


def build_parser():
    p = argparse.ArgumentParser(
        prog="hadaldp",
        description="locally private frequency estimation and heavy hitters")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="cmd", required=True)
    # no prefix matching: `fo --beta` must not read as `--beta-prime`
    gen = sub.add_parser("gen", help="generate a dataset file",
                         allow_abbrev=False)
    _common_flags(gen)

    fo = sub.add_parser("fo", help="frequency oracle experiment",
                        allow_abbrev=False)
    _common_flags(fo)
    _experiment_flags(fo)
    fo.add_argument("--beta-prime", dest="beta_prime", type=float,
                    default=None)
    fo.add_argument("--protocol", choices=["hrr", "hada-oracle"],
                    default=None)
    fo.add_argument("--queries", dest="n_queries", type=int, default=None)

    hh = sub.add_parser("hh", help="heavy hitter experiment",
                        allow_abbrev=False)
    _common_flags(hh)
    _experiment_flags(hh)
    hh.add_argument("--beta", type=float, default=None)
    hh.add_argument("--clambda", dest="c_lambda", type=float, default=None)
    hh.add_argument("--max-frontier", dest="max_frontier", type=int,
                    default=None)
    hh.set_defaults(protocol="hada-heavy")   # overrides a config file's
    return p


def _assemble_config(args):
    """Defaults -> file config (if given) -> flag overrides.

    Every parsed value whose dest names an ExperimentConfig field
    overrides it; `hh` sets protocol to hada-heavy that way, and defaults
    d to 2^32, since heavy hitters are only interesting when the domain
    is huge.  `fo` runs only hrr or hada-oracle.  Raises ValueError on a
    bad parameter, and OSError on a config file that cannot be read."""
    raw = {"d": 1 << 32} if args.cmd == "hh" else {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} holds no JSON object")
        raw.update(loaded)
    raw.update((key, val) for key, val in vars(args).items()
               if key in _CONFIG_FIELDS and val is not None)
    config = ExperimentConfig.from_dict(raw)
    if args.cmd == "fo" and config.protocol not in ("hrr", "hada-oracle"):
        raise ValueError(
            f"fo runs hrr or hada-oracle, not {config.protocol!r}")
    return config


def _cmd_gen(config):
    ds = dataset_for(config, 0)   # trial 0's dataset of the same config
    out_dir = Path(config.out) if config.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dataset.bin"
    save_dataset(ds, path)
    with open(out_dir / "dataset.json", "w", encoding="utf-8") as fh:
        json.dump(ds.meta | {"seed": config.seed, "file": path.name},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ds.n} elements over [0, {ds.d}) to {path}")
    return 0


def _print_summary(summary):
    rows = summary["trials"]
    widths = {c: max([len(c)] + [len(_fmt(r.get(c))) for r in rows])
              for c in CSV_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in CSV_COLUMNS))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in CSV_COLUMNS))
    if summary["aggregates"]:
        print("medians:", json.dumps(summary["aggregates"], sort_keys=True))
    for failure in summary["assertion_failures"]:
        print(f"CONSISTENCY FAILURE: {failure}")
    if "out" in summary:
        print(f"wrote {summary['out']}/trials.csv and summary.json")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _run_and_report(config):
    try:
        summary = run_experiment(config)
    except FrontierOverflow as exc:
        print(f"hadaldp: {exc}", file=sys.stderr)
        return 1
    _print_summary(summary)
    return 1 if summary["assertion_failures"] else 0


_COMMANDS = {"gen": _cmd_gen, "fo": _run_and_report, "hh": _run_and_report}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _assemble_config(args)
    except (OSError, ValueError) as exc:
        # argparse's error line, without its usage block
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return _COMMANDS[args.cmd](config)


if __name__ == "__main__":
    sys.exit(main())
