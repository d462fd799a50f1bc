import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from hadaldp import cli
from hadaldp import experiments as ex
from hadaldp import freq_oracle as fo
from hadaldp import heavy_hitters as hh
from hadaldp import hrr
from hadaldp.datasets import load_dataset


def test_csv_columns_are_pinned():
    assert ex.CSV_COLUMNS == [
        "trial", "protocol", "n", "d", "eps", "k", "m", "B", "L", "lambda",
        "max_err", "p95_err", "p99_err", "recall_3lambda",
        "false_pos_lt_lambda", "build_ms", "query_ms"]


def test_config_from_dict():
    cfg = ex.ExperimentConfig.from_dict({"protocol": "hrr", "n": 50})
    assert cfg.protocol == "hrr" and cfg.n == 50
    with pytest.raises(ValueError, match="unknown config keys"):
        ex.ExperimentConfig.from_dict({"nn": 50})
    with pytest.raises(ValueError):
        ex.ExperimentConfig(protocol="rappor")
    for dropped in ({"profile": "theory"}, {"dataset_kind": "zipf"},
                    {"scheme": "independent"}):
        with pytest.raises(ValueError, match="unknown config keys"):
            ex.ExperimentConfig.from_dict(dropped)
    # a value must have its field's type: a bool is no int, an int passes
    # as a float, and None passes only where the default is None
    for bad in ({"trials": "3"}, {"trials": True}, {"eps": True},
                {"n": 5.0}, {"trials": None}, {"planted": None},
                {"protocol": None}):
        with pytest.raises(ValueError, match="must be of type"):
            ex.ExperimentConfig.from_dict(bad)
    cfg = ex.ExperimentConfig.from_dict({"eps": 1, "zipf_s": 2, "out": None,
                                         "max_frontier": None})
    assert (cfg.eps, cfg.zipf_s, cfg.out, cfg.max_frontier) == (1, 2, None, None)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="n_queries"):
        ex.ExperimentConfig.from_dict({"n_queries": -1})
    assert ex.ExperimentConfig(n_queries=0).n_queries == 0


def test_one_default_for_c_k_and_c_m():
    from_cli = cli._assemble_config(cli.build_parser().parse_args(["fo"]))
    for key in ("c_k", "c_m"):
        assert getattr(fo.OracleParams(eps=1, beta_prime=.1), key) \
            == getattr(hh.HeavyParams(eps=1, beta=.1), key) \
            == getattr(ex.ExperimentConfig(), key) \
            == getattr(from_cli, key) \
            == fo.PROFILES["practical"][key]


def test_cell_formatting(tmp_path):
    rows = [{"trial": 0, "protocol": "x", "eps": 0.25, "lambda": math.inf,
             "max_err": 1.5}]
    path = tmp_path / "rows.csv"
    ex.write_rows_csv(rows, path)
    header, line = path.read_text().splitlines()
    assert header == ",".join(ex.CSV_COLUMNS)
    cells = dict(zip(ex.CSV_COLUMNS, line.split(",")))
    assert cells["lambda"] == "inf"
    assert cells["max_err"] == "1.5"
    assert cells["k"] == ""      # absent metrics stay empty, not "None"


def _hrr_config(out):
    return ex.ExperimentConfig(protocol="hrr", n=100, d=16, trials=2,
                               n_queries=20, seed=9, out=str(out))


def _strip_timings(csv_text):
    # build_ms and query_ms are wall-clock readings; everything before
    # them must reproduce exactly
    assert ex.CSV_COLUMNS[-2:] == ["build_ms", "query_ms"]
    return [line.split(",")[:-2] for line in csv_text.splitlines()]


def test_rerun_reproduces_every_statistic(tmp_path):
    a = ex.run_experiment(_hrr_config(tmp_path / "a"))
    b = ex.run_experiment(_hrr_config(tmp_path / "b"))
    assert a["assertion_failures"] == []
    assert b["assertion_failures"] == []
    csv_a = (tmp_path / "a" / "trials.csv").read_text()
    csv_b = (tmp_path / "b" / "trials.csv").read_text()
    assert _strip_timings(csv_a) == _strip_timings(csv_b)
    # hrr rows carry no tree or threshold geometry
    cells = dict(zip(ex.CSV_COLUMNS, csv_a.splitlines()[1].split(",")))
    assert cells["lambda"] == "" and cells["B"] == "" and cells["k"] == ""
    assert cells["m"] == "16"


def test_oracle_experiment_summary(tmp_path):
    cfg = ex.ExperimentConfig(protocol="hada-oracle", n=2000, d=1024,
                              trials=2, n_queries=50, seed=4,
                              planted=[[9, 700]],
                              out=str(tmp_path))
    summary = ex.run_experiment(cfg)
    assert summary["assertion_failures"] == []
    assert len(summary["trials"]) == 2
    for row in summary["trials"]:
        assert row["k"] >= 1 and row["m"] >= 2
        assert row["max_err"] >= row["p99_err"] >= row["p95_err"] >= 0
    assert "max_err" in summary["aggregates"]
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["config"]["protocol"] == "hada-oracle"


def test_fo_and_hrr_trials_carry_the_contract_check(tmp_path):
    """summary.json gives each oracle and hrr trial its int32 state's
    bytes, the error bound (1/eps) sqrt(n ln(1/beta')) at the run's eps,
    beta' and n, and max_err over it; trials.csv keeps its columns."""
    for protocol in ("hada-oracle", "hrr"):
        cfg = ex.ExperimentConfig(protocol=protocol, n=2000, d=1024,
                                  trials=2, n_queries=50, seed=4, eps=0.5,
                                  beta_prime=0.1, out=str(tmp_path / protocol))
        summary = ex.run_experiment(cfg)
        assert summary["assertion_failures"] == []
        bound = (1 / 0.5) * math.sqrt(2000 * math.log(1 / 0.1))
        loaded = json.loads((tmp_path / protocol / "summary.json").read_text())
        for row in loaded["trials"]:
            cells = row["k"] * row["m"] if protocol == "hada-oracle" else 1024
            assert row["state_bytes"] == 4 * cells
            assert row["error_bound"] == pytest.approx(bound, rel=1e-12)
            assert row["error_bound"] == fo.theoretical_error_bound(
                fo.OracleParams(eps=0.5, beta_prime=0.1), 2000)
            assert row["max_err_over_bound"] == \
                row["max_err"] / row["error_bound"] > 0
        header = (tmp_path / protocol / "trials.csv").read_text().splitlines()[0]
        assert header.split(",") == ex.CSV_COLUMNS and len(ex.CSV_COLUMNS) == 17


def test_heavy_experiment_artifacts(tmp_path):
    cfg = ex.ExperimentConfig(protocol="hada-heavy", n=20_000, d=1 << 16,
                              trials=1, seed=6, c_lambda=6.0,
                              planted=[[321, 12_000]],
                              out=str(tmp_path))
    summary = ex.run_experiment(cfg)
    assert summary["assertion_failures"] == []
    row = summary["trials"][0]
    assert row["recall_3lambda"] == 1.0
    assert row["false_pos_lt_lambda"] == 0
    assert row["lambda"] > 0 and row["B"] >= 2 and row["L"] >= 1
    hist_lines = (tmp_path / "hist_trial0.csv").read_text().splitlines()
    assert hist_lines[0] == "element,estimate"
    assert any(line.startswith("321,") for line in hist_lines[1:])
    meta = json.loads((tmp_path / "hist_trial0.meta.json").read_text())
    assert meta["status"] == "ok"
    # the contract check covers the oracle and hrr trials only
    assert "error_bound" not in row and "state_bytes" not in row


# --- command line ---


def test_parse_planted():
    assert cli._parse_planted("17:3000,42:1500") == [[17, 3000], [42, 1500]]


def test_parser_accepts_all_subcommands():
    p = cli.build_parser()
    p.parse_args(["gen", "--n", "10", "--d", "4"])
    p.parse_args(["fo", "--protocol", "hrr"])
    p.parse_args(["hh", "--max-frontier", "1000"])
    p.parse_args(["fo", "--ck", "8", "--cm", "167.2"])
    # each subcommand takes only the flags its run reads
    dropped = {"gen": ["--trials 2", "--eps 1", "--beta .1",
                       "--beta-prime .1", "--ck 8", "--cm 4", "--clambda 2",
                       "--dataset x.bin"],
               "fo": ["--beta .1", "--clambda 2"],
               "hh": ["--beta-prime .1", "--protocol hrr", "--queries 5"]}
    for cmd, flags in dropped.items():
        for flag in flags + ["--profile theory", "--dist zipf",
                             "--scheme independent"]:
            with pytest.raises(SystemExit):
                p.parse_args([cmd] + flag.split())
    for argv in (["fo", "--protocol", "hada-heavy"], ["verify"]):
        with pytest.raises(SystemExit):
            p.parse_args(argv)


def test_every_flag_names_a_config_field():
    """_assemble_config keeps only the dests that name an ExperimentConfig
    field, so a misspelt dest would be dropped without a word."""
    p = cli.build_parser()
    sub = next(a for a in p._actions
               if isinstance(a, argparse._SubParsersAction))
    config_fields = {f.name for f in dataclasses.fields(ex.ExperimentConfig)}
    for name, parser in sub.choices.items():
        dests = {a.dest for a in p._actions + parser._actions
                 if not isinstance(a, argparse._HelpAction)}
        dests |= set(parser._defaults)
        assert dests - config_fields == {"cmd", "verbose", "config"}, name


def test_cli_gen(tmp_path):
    # --planted alone picks the planted generator
    rc = cli.main(["gen", "--n", "500", "--d", "1024", "--planted", "7:400",
                   "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    ds = load_dataset(tmp_path / "dataset.bin")
    assert ds.n == 500 and ds.d == 1024
    assert int((ds.elements == 7).sum()) == 400
    sidecar = json.loads((tmp_path / "dataset.json").read_text())
    assert sidecar["generator"] == "planted"
    assert sidecar["heavy"] == [[7, 400]]
    assert sidecar["seed"] == 3


def test_cli_runs_on_the_dataset_file_it_is_given(tmp_path, capsys):
    """gen, then fo on that file, named by --dataset or by a config file's
    dataset_path: every row takes n and d from the file."""
    assert cli.main(["gen", "--n", "300", "--d", "64", "--seed", "4",
                     "--out", str(tmp_path)]) == 0
    data = str(tmp_path / "dataset.bin")
    assert cli.main(["fo", "--dataset", data, "--protocol", "hada-oracle",
                     "--trials", "1", "--out", str(tmp_path / "flag")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "hrr", "dataset_path": data,
                               "trials": 2}))
    assert cli.main(["fo", "--config", str(cfg),
                     "--out", str(tmp_path / "file")]) == 0
    for run in ("flag", "file"):
        summary = json.loads((tmp_path / run / "summary.json").read_text())
        assert [(row["n"], row["d"]) for row in summary["trials"]] \
            == [(300, 64)] * summary["config"]["trials"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["fo", "--dataset", data, "--planted", "3:10"])
    assert exc.value.code == 2 and "not both" in capsys.readouterr().err


def test_a_run_reads_its_dataset_file_once_and_records_its_size(
        tmp_path, monkeypatch):
    """Three trials on a gen --n 300 --d 64 file: the file is read once,
    and summary.json records the file's n and d beside the config's."""
    assert cli.main(["gen", "--n", "300", "--d", "64", "--seed", "4",
                     "--out", str(tmp_path)]) == 0
    reads = []
    monkeypatch.setattr(ex, "load_dataset",
                        lambda path: reads.append(path) or load_dataset(path))
    cfg = ex.ExperimentConfig(protocol="hada-oracle", trials=3, seed=2,
                              dataset_path=str(tmp_path / "dataset.bin"),
                              out=str(tmp_path / "run"))
    summary = ex.run_experiment(cfg)
    assert summary["assertion_failures"] == [] and len(reads) == 1
    loaded = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert loaded["dataset"] == summary["dataset"] == {"n": 300, "d": 64}
    assert (loaded["config"]["n"], loaded["config"]["d"]) == (100_000, 1 << 20)
    assert [(row["n"], row["d"]) for row in loaded["trials"]] == [(300, 64)] * 3
    # generated data has the config's size
    summary = ex.run_experiment(_hrr_config(tmp_path / "gen"))
    assert summary["dataset"] == {"n": 100, "d": 16}


def test_cli_fo_smoke(tmp_path):
    rc = cli.main(["fo", "--protocol", "hrr", "--n", "200", "--d", "16",
                   "--trials", "1", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trials.csv").exists()


def test_cli_fo_runs_on_zero_users(tmp_path, capsys):
    """An oracle over no users is an ordinary, all-zero build: one row,
    no error figures, exit 0, as with --protocol hrr."""
    for protocol in ("hada-oracle", "hrr"):
        rc = cli.main(["fo", "--protocol", protocol, "--n", "0",
                       "--trials", "1", "--out", str(tmp_path / protocol)])
        assert rc == 0
        rows = (tmp_path / protocol / "trials.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[2] == "0"


def test_a_failed_check_flips_the_exit_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hrr, "query_many",
                        lambda state, vs: np.full(len(vs), np.nan))
    summary = ex.run_experiment(_hrr_config(tmp_path / "lib"))
    assert summary["assertion_failures"] == ["hrr estimates not finite"] * 2
    rc = cli.main(["fo", "--protocol", "hrr", "--n", "200", "--d", "16",
                   "--trials", "1", "--seed", "1",
                   "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert "CONSISTENCY FAILURE: hrr estimates not finite" \
        in capsys.readouterr().out


def test_a_bad_parameter_exits_2_in_one_line_before_any_work(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    def refuse(*args):
        raise AssertionError("a bad config drew its dataset")

    monkeypatch.setattr(ex, "gen_zipf", refuse)
    monkeypatch.setattr(ex, "gen_planted", refuse)
    with pytest.raises(ValueError, match="eps"):
        ex.ExperimentConfig(eps=2)
    configs = {"typed": {"trials": "3"}, "list": [1, 2],
               "scheme": {"scheme": "independent"}, "pairs": {"planted": [5]}}
    for name, body in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(body))

    def from_file(name):
        return ["fo", "--config", str(tmp_path / f"{name}.json")]

    for argv, what in ((["fo", "--eps", "2"], "eps"),
                       (["fo", "--protocol", "hrr", "--eps", "2"], "eps"),
                       (["hh", "--beta", "1.5"], "beta"),
                       (["fo", "--beta-prime", "0"], "beta_prime"),
                       (["fo", "--n", "-5"], "n=-5"),
                       (["fo", "--seed", "-1", "--n", "100"],
                        "seed must be non-negative"),
                       (["gen", "--seed", "-3"], "seed must be non-negative"),
                       (["hh", "--max-frontier", "0", "--n", "1000"],
                        "max_frontier must be at least 1"),
                       (["fo", "--d", "0"], "d=0"),
                       (["fo", "--zipf-s", "0"], "zipf exponent"),
                       (["hh", "--n", "100", "--planted", "5:1000"],
                        "sum to 1000 > n = 100"),
                       (["hh", "--d", "100", "--planted", "500:10"],
                        "outside [0, 100)"),
                       (["fo", "--protocol", "hrr", "--d", str(1 << 30),
                         "--n", "100"], "above the cap"),
                       (["fo", "--d", str(1 << 62), "--n", "100"],
                        "domain size must lie in"),
                       (from_file("typed"), "'trials' must be of type int"),
                       (from_file("list"), "holds no JSON object"),
                       (from_file("scheme"), "unknown config keys"),
                       (from_file("pairs"), "(element, count) pairs"),
                       (from_file("missing"), "No such file")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hadaldp: error: ")
        assert what in err[0]


def test_cli_fo_refuses_the_tree_protocol(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "hada-heavy"}))
    with pytest.raises(SystemExit):
        cli.main(["fo", "--config", str(cfg)])


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "hrr", "n": 300, "d": 64,
                               "trials": 1, "eps": 0.5}))
    out = tmp_path / "run"
    rc = cli.main(["fo", "--config", str(cfg), "--eps", "1.0",
                   "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["eps"] == 1.0      # flag wins
    assert summary["config"]["n"] == 300        # file survives elsewhere


def test_cli_hh_domain_defaults(tmp_path):
    out = tmp_path / "wide"
    rc = cli.main(["hh", "--n", "100", "--trials", "1", "--seed", "2",
                   "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["d"] == 1 << 32

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 100, "d": 65_536, "trials": 1}))
    out2 = tmp_path / "narrow"
    rc = cli.main(["hh", "--config", str(cfg), "--seed", "2",
                   "--out", str(out2)])
    assert rc == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["config"]["d"] == 65_536


def test_cli_hh_reports_a_tripped_guard_in_one_line(tmp_path, capsys):
    rc = cli.main(["hh", "--n", "5000", "--d", "65536", "--trials", "1",
                   "--seed", "5", "--max-frontier", "1",
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hadaldp: level 1: ")


def test_cli_hh_planted_run(tmp_path):
    rc = cli.main(["hh", "--n", "5000", "--d", "65536", "--clambda", "6",
                   "--planted", "30:4000",
                   "--trials", "1", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    line = (tmp_path / "trials.csv").read_text().splitlines()[1]
    cells = dict(zip(ex.CSV_COLUMNS, line.split(",")))
    assert cells["protocol"] == "hada-heavy"
    assert float(cells["lambda"]) > 0
