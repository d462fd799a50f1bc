"""Command line front end.

Subcommands:

- gen: write a synthetic dataset to disk (binary elements + JSON sidecar).
- fo:  build a frequency oracle over a dataset and report error metrics.
- hh:  run the heavy-hitter protocol, write the discovered histogram.
- verify: run the acceptance test module through pytest.

`fo` and `hh` read an optional JSON config (--config); any flag given on
the command line overrides the file.  Exit status is 0 only if the run's
internal consistency checks all passed.  Timing is not a subcommand:
`python3 perfbench/run.py` in a checkout measures the package.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from . import freq_oracle as fo_mod
from .datasets import save_dataset
from .experiments import (CSV_COLUMNS, ExperimentConfig, dataset_for,
                          run_experiment)

logger = logging.getLogger(__name__)


def _parse_planted(text):
    """'17:3000,42:1500' -> [[17, 3000], [42, 1500]]"""
    pairs = []
    for chunk in text.split(","):
        elem, _, count = chunk.partition(":")
        pairs.append([int(elem), int(count)])
    return pairs


def _common_flags(p):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; explicit flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-prime", dest="beta_prime", type=float, default=None)
    p.add_argument("--ck", dest="c_k", type=float, default=None)
    p.add_argument("--cm", dest="c_m", type=float, default=None)
    p.add_argument("--clambda", dest="c_lambda", type=float, default=None)
    p.add_argument("--scheme", choices=["independent", "permutation"],
                   default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--profile", choices=sorted(fo_mod.PROFILES),
                   default=None)


def _dataset_flags(p):
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dist", choices=["zipf", "planted"], default=None)
    p.add_argument("--zipf-s", dest="zipf_s", type=float, default=None)
    p.add_argument("--planted", type=_parse_planted, default=None,
                   metavar="E:C,E:C,...",
                   help="planted elements with exact counts")
    p.add_argument("--dataset", type=Path, default=None,
                   help="read elements from this file instead of generating")


def build_parser():
    p = argparse.ArgumentParser(
        prog="hadaldp",
        description="locally private frequency estimation and heavy hitters")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a dataset file")
    _common_flags(gen)
    _dataset_flags(gen)

    fo = sub.add_parser("fo", help="frequency oracle experiment")
    _common_flags(fo)
    _dataset_flags(fo)
    fo.add_argument("--protocol", choices=["hrr", "hada-oracle"],
                    default=None)
    fo.add_argument("--queries", dest="n_queries", type=int, default=None)

    hh = sub.add_parser("hh", help="heavy hitter experiment")
    _common_flags(hh)
    _dataset_flags(hh)
    hh.add_argument("--max-frontier", dest="max_frontier", type=int,
                    default=None)

    ver = sub.add_parser("verify", help="run the acceptance tests")
    ver.add_argument("--tests", type=Path, default=None,
                     help="path to the acceptance test module")
    return p


_CONFIG_KEYS = ("seed", "trials", "eps", "beta", "beta_prime", "c_k", "c_m",
                "c_lambda", "scheme", "profile", "n", "d", "zipf_s",
                "planted", "n_queries", "max_frontier", "protocol")


def _assemble_config(args, defaults=None, **forced):
    """Defaults -> file config (if given) -> flag overrides -> forced fields."""
    raw = dict(defaults or {})
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw.update(json.load(fh))
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if getattr(args, "dist", None) is not None:
        raw["dataset_kind"] = args.dist
    if getattr(args, "dataset", None) is not None:
        raw["dataset_kind"] = "file"
        raw["dataset_path"] = str(args.dataset)
    if getattr(args, "out", None) is not None:
        raw["out"] = str(args.out)
    raw.update(forced)
    return ExperimentConfig.from_dict(raw)


def _cmd_gen(args):
    config = _assemble_config(args)
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
    summary = run_experiment(config)
    _print_summary(summary)
    return 1 if summary["assertion_failures"] else 0


def _cmd_fo(args):
    config = _assemble_config(args)
    if config.protocol not in ("hrr", "hada-oracle"):
        raise SystemExit(f"fo runs hrr or hada-oracle, not {config.protocol!r}")
    return _run_and_report(config)


def _cmd_hh(args):
    # heavy hitters are only interesting when the domain is huge
    config = _assemble_config(args, {"d": 1 << 32}, protocol="hada-heavy")
    return _run_and_report(config)


def _cmd_verify(args):
    import pytest

    if args.tests is not None:
        target = args.tests
    else:
        here = Path(__file__).resolve()
        candidates = [Path.cwd() / "tests" / "test_acceptance.py"]
        for parent in here.parents:
            candidates.append(parent / "tests" / "test_acceptance.py")
        target = next((c for c in candidates if c.exists()), None)
        if target is None:
            print("could not find tests/test_acceptance.py; pass --tests")
            return 2
    # -s so each check's verdict line reaches the terminal
    return pytest.main(["-v", "-s", str(target)])


_COMMANDS = {"gen": _cmd_gen, "fo": _cmd_fo, "hh": _cmd_hh,
             "verify": _cmd_verify}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    return _COMMANDS[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
