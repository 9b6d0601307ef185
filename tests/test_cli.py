"""CLI contract: commands, flags, config files, exit codes, artifacts."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sigmapaths import experiments
from sigmapaths.calculus import running_min
from sigmapaths.cli import main
from sigmapaths.decompose import sigma_compose
from sigmapaths.experiments import _martingale_spec, generate_rows
from sigmapaths.generators import GeneratorSpec
from sigmapaths.grids import Path as GridPath, read_paths_csv
from sigmapaths.reports import reports_equal_ignoring_meta, write_csv_table


@pytest.fixture
def runner():
    return CliRunner()


def test_simulate_writes_csv(runner, tmp_path):
    out = tmp_path / "sim"
    r = runner.invoke(main, [
        "simulate", "--family", "brownian", "--n-steps", "64", "--horizon", "1",
        "--paths", "5", "--seed", "42", "--out", str(out),
    ])
    assert r.exit_code == 0, r.output
    paths = read_paths_csv(out / "paths.csv")
    assert len(paths) == 5
    assert all(p.values[0] == 0.0 for p in paths)
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["schema"] == 1
    assert doc["spec"]["family"] == "brownian"


def test_simulate_same_seed_same_bytes(runner, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(main, [
            "simulate", "--family", "bessel3", "--x0", "1", "--n-steps", "32",
            "--paths", "3", "--seed", "9", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        outs.append((out / "paths.csv").read_bytes())
    assert outs[0] == outs[1]


def test_unknown_command_exits_2(runner):
    r = runner.invoke(main, ["frobnicate"])
    assert r.exit_code == 2


def test_unknown_family_exits_2(runner, tmp_path):
    r = runner.invoke(main, ["simulate", "--family", "levy", "--out", str(tmp_path)])
    assert r.exit_code == 2


def test_unwritable_output_exits_4(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    r = runner.invoke(main, [
        "simulate", "--family", "brownian", "--n-steps", "8", "--paths", "2",
        "--out", str(blocker / "sub"),
    ])
    assert r.exit_code == 4


def test_verify_passes_and_fails_cleanly(runner):
    r = runner.invoke(main, ["verify", "skorokhod"])
    assert r.exit_code == 0
    assert "[PASS] skorokhod" in r.output


def test_experiment_help_lists_registry(runner):
    r = runner.invoke(main, ["experiment", "--help"])
    assert r.exit_code == 0
    for name in ("lemma-balance", "azema-law", "two-infinity", "saturation", "tail"):
        assert name in r.output


def _opt(name, kind, default):
    """The row of an option shown with its default and not required."""
    return (name, (f"--{name.replace('_', '-')}",), kind, default, True, False)


#: The options every command ends with, in --help order.
_COMMON_OPTIONS = [
    ("config", ("--config",), "file", None, None, False),
    ("workers", ("--workers",), "integer range", "computed", None, False),
    _opt("formats", "text", "json,csv"),
    ("out", ("--out",), "directory", "out", True, False),
    _opt("seed", "integer range", 0),
]
_FAMILY_OPTIONS = [
    _opt("stop_line_drift", "float", 0.0), _opt("stop_level", "float", 0.0), _opt("x0", "float", 1.0),
    _opt("b", "float", 1.0), _opt("a", "float", 1.0), _opt("n_steps", "integer", 4096),
    _opt("horizon", "float", 1.0), ("family", ("--family",), "choice", None, None, True),
]
_EXPERIMENT_PATHS = [_opt("paths", "integer range", 10000), *_COMMON_OPTIONS]

#: command -> (help line, None where it is not pinned; each option's name, flags, type, default,
#: show_default and required, in --help order)
OPTION_TABLES = {
    "simulate": (None, [*_FAMILY_OPTIONS, _opt("paths", "integer range", 10),
                        *(row for row in _COMMON_OPTIONS if row[0] != "workers")]),
    "decompose": (None, [*_FAMILY_OPTIONS, *_EXPERIMENT_PATHS]),
    "lemma-balance": ("paired estimates of E[M_T C_T] and 1 + E[sum M dC] with C = 1/I", [
        _opt("family", "text", "exp_martingale"), _opt("horizon", "float", 1.0), _opt("n_steps", "integer", 2048),
        _opt("x0", "float", 1.0), _opt("stop_level", "float", 0.0), _opt("stop_line_drift", "float", 0.0),
        *_EXPERIMENT_PATHS]),
    "azema-law": ("state-binned conditional law of a last visit vs min(y/z, 1)", [
        _opt("family", "text", "bessel3"), _opt("x0", "float", 1.0), _opt("level", "float", 1.0),
        _opt("t", "float", 1.0), _opt("bins", "integer", 20), _opt("horizon", "float", 64.0),
        _opt("n_steps", "integer", 16384), *_EXPERIMENT_PATHS]),
    "two-infinity": ("median |M_T - 2 I_T| across doubling horizons (last-visit construction)", [
        _opt("x0", "float", 1.0), _opt("level", "float", 1.0), _opt("horizon", "float", 64.0),
        _opt("n_steps", "integer", 16384), *_EXPERIMENT_PATHS]),
    "saturation": ("ends of random sets under Brownian paths stopped at level 1", [
        _opt("kind", "text", "nonsaturated_zero_set"), _opt("horizon", "float", 64.0), _opt("dt", "float", 4e-4),
        *_EXPERIMENT_PATHS]),
    "tail": ("heavy tail of T_a / the sigma_b stopped-martingale expectation", [
        _opt("kind", "text", "T_a_heavy_tail"), _opt("a", "float", 1.0), _opt("b", "float", 1.0),
        _opt("horizon", "float", 64.0), _opt("dt", "float", 1e-3), *_EXPERIMENT_PATHS]),
}


def test_every_command_keeps_its_option_table():
    def default(p):
        if callable(p.default):
            return "computed"
        return p.default if isinstance(p.default, (int, float, str)) else None

    experiments = main.commands["experiment"].commands
    commands = {"simulate": main.commands["simulate"], "decompose": main.commands["decompose"], **experiments}
    tables = {name: (cmd.help if name in experiments else None,
                     [(p.name, tuple(p.opts), p.type.name, default(p), p.show_default, p.required)
                      for p in cmd.params])
              for name, cmd in commands.items()}
    assert tables == OPTION_TABLES


def test_experiment_lemma_balance_report(runner, tmp_path):
    out = tmp_path / "rep"
    r = runner.invoke(main, [
        "experiment", "lemma-balance", "--family", "exp_martingale",
        "--horizon", "1", "--n-steps", "128", "--paths", "1000",
        "--seed", "3", "--out", str(out), "--formats", "json,csv",
    ])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "lemma_balance.json").read_text())
    assert doc["schema"] == 1
    assert "ci_agreement" in doc["results"]
    assert (out / "lemma_balance_estimates.csv").exists()
    assert "lemma-balance:" in r.output


def test_experiment_svg_emission(runner, tmp_path):
    out = tmp_path / "svg"
    r = runner.invoke(main, [
        "experiment", "two-infinity", "--horizon", "8", "--n-steps", "512",
        "--paths", "100", "--seed", "4", "--out", str(out),
        "--formats", "json,svg",
    ])
    assert r.exit_code == 0, r.output
    svg = (out / "two_infinity_gaps.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_experiment_rerun_byte_identical_modulo_meta(runner, tmp_path):
    docs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        r = runner.invoke(main, [
            "experiment", "tail", "--kind", "T_a_heavy_tail", "--horizon", "8",
            "--dt", "0.002", "--paths", "500", "--seed", "11", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        docs.append(json.loads((out / "tail.json").read_text()))
    assert reports_equal_ignoring_meta(docs[0], docs[1])


def test_config_file_defaults_and_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "paths = 600\n"
        "seed = 21\n"
        "n-steps = 128\n"
        "horizon = 1.0\n"
    )
    out1 = tmp_path / "c1"
    r = runner.invoke(main, [
        "experiment", "lemma-balance", "--config", str(cfg), "--out", str(out1),
    ])
    assert r.exit_code == 0, r.output
    doc = json.loads((out1 / "lemma_balance.json").read_text())
    assert doc["seed"] == 21
    assert doc["n_paths"] == 600

    out2 = tmp_path / "c2"
    r = runner.invoke(main, [
        "experiment", "lemma-balance", "--config", str(cfg),
        "--seed", "99", "--out", str(out2),
    ])
    assert r.exit_code == 0, r.output
    doc2 = json.loads((out2 / "lemma_balance.json").read_text())
    assert doc2["seed"] == 99  # explicit flag beats the config file


def test_config_file_unknown_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("paths = 4\n# a misspelt option is not silently ignored\nn_step = 100\n")
    out = tmp_path / "o"
    r = runner.invoke(main, ["experiment", "two-infinity", "--config", str(cfg), "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert f"{cfg}:3" in r.output and "'n_step'" in r.output, r.output
    assert not out.exists()


def test_seed_env_var_fallback(runner, tmp_path):
    out = tmp_path / "env"
    r = runner.invoke(main, [
        "experiment", "lemma-balance", "--n-steps", "64", "--paths", "400",
        "--out", str(out),
    ], env={"SIGMA_SEED": "1234"})
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "lemma_balance.json").read_text())
    assert doc["seed"] == 1234


def test_decompose_writes_classd_report(runner, tmp_path):
    out = tmp_path / "dec"
    r = runner.invoke(main, [
        "decompose", "--family", "exp_martingale", "--n-steps", "128",
        "--horizon", "1", "--paths", "500", "--seed", "6", "--out", str(out),
    ])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "classd_report.json").read_text())
    res = doc["results"]
    assert {"e_mc", "e_int", "e_log_inv_i", "e_qv_u"} <= set(res)
    assert res["n_paths"] == 500
    table = (out / "decomposition_path0.csv").read_text().splitlines()
    assert table[0] == "t,M,I,X,A,N"
    assert len(table) == 130


def test_decompose_csv_columns_are_sigma_compose(runner, tmp_path):
    # seed 3 runs 6 rows before M first sets a new minimum, where -log(I) is -0
    out = tmp_path / "dec"
    r = runner.invoke(main, [
        "decompose", "--family", "exp_martingale", "--stop-level", "1", "--n-steps", "64",
        "--paths", "4", "--seed", "3", "--workers", "1", "--out", str(out),
    ])
    assert r.exit_code == 0, r.output
    lines = (out / "decomposition_path0.csv").read_text().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    assert "-0" not in {c for row in cells for c in row}
    table = dict(zip(lines[0].split(","), np.array(cells, dtype=float).T))
    mspec = _martingale_spec(GeneratorSpec.from_config(json.loads((out / "classd_report.json").read_text())["spec"]))
    M = generate_rows(mspec, 3, 0, 1)[0]
    triple = sigma_compose(GridPath(mspec.grid, M))
    expected = {"t": mspec.grid.times, "M": M, "I": running_min(M), "X": triple.submartingale.values,
                "A": triple.increasing_part.values, "N": triple.martingale_part.values}
    assert list(table) == list(expected)
    assert all(table[k].tobytes() == np.asarray(v, dtype=float).tobytes() for k, v in expected.items())


def test_decompose_keys_each_path_once(runner, tmp_path, monkeypatch):
    # path 0 of the CSV comes from the batch that walks it, not from a second draw
    keys = []
    philox = experiments.Philox
    monkeypatch.setattr(experiments, "Philox", lambda seq: keys.append(seq) or philox(seq))
    r = runner.invoke(main, ["decompose", "--family", "exp_martingale", "--stop-level", "1", "--n-steps", "64",
                             "--paths", "5", "--workers", "1", "--out", str(tmp_path / "dec")])
    assert r.exit_code == 0, r.output
    assert len(keys) == 5


def test_pooled_commands_never_import_numpy_ma(tmp_path):
    # numpy's median and quantile import numpy.ma (1.2 MB) on their first call; a fresh interpreter,
    # because this one may have imported it already
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    balance = ["--family", "exp_martingale", "--stop-level", "1", "--horizon", "4", "--n-steps", "4096",
               "--paths", "150"]
    runs = [["experiment", "lemma-balance", *balance], ["decompose", *balance],
            ["experiment", "two-infinity", "--horizon", "4", "--n-steps", "1024", "--paths", "200"],
            ["experiment", "azema-law", "--horizon", "4", "--n-steps", "1024", "--t", "1", "--bins", "5",
             "--paths", "900"]]
    code = ("import json, sys\n"
            "from sigmapaths.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    main.main(args=[*argv, '--workers', '2', '--out', sys.argv[2]], standalone_mode=False)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(tmp_path)], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    assert len(r.stdout.splitlines()) == 4, r.stdout


@pytest.mark.parametrize("command", [["decompose"], ["experiment", "lemma-balance"]])
def test_martingale_that_underflows_to_zero_exits_2(runner, tmp_path, command):
    # exp(B_t - t/2) underflows to 0 well before t = 3000
    r = runner.invoke(main, [*command, "--family", "exp_martingale", "--horizon", "3000", "--n-steps", "1000",
                             "--paths", "4", "--out", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert "every path must stay positive" in r.output


def test_decompose_rejects_non_martingale_family(runner, tmp_path):
    r = runner.invoke(main, [
        "decompose", "--family", "brownian", "--out", str(tmp_path / "x"),
    ])
    assert r.exit_code == 2


def test_simulate_size_cap(runner, tmp_path):
    r = runner.invoke(main, [
        "simulate", "--family", "brownian", "--n-steps", "1000000",
        "--paths", "1000", "--out", str(tmp_path / "big"),
    ])
    assert r.exit_code == 2
    assert "cap" in r.output


def _simulate_csv(runner, out, family, paths, n_steps=64):
    r = runner.invoke(main, ["simulate", "--family", *family, "--n-steps", str(n_steps), "--paths", str(paths),
                             "--seed", "5", "--formats", "csv", "--out", str(out)])
    assert r.exit_code == 0, r.output
    return out / "paths.csv"


@pytest.mark.parametrize("family", [("bessel3", "--x0", "1"), ("brownian_stopped_level", "--a", "0.5")])
def test_simulate_writes_each_pass_in_order(runner, tmp_path, monkeypatch, family):
    whole = _simulate_csv(runner, tmp_path / "whole", family, 7).read_bytes()
    monkeypatch.setattr(experiments, "_BATCH_VALUES", 3 * 65)  # passes of 3, 3 and 1 rows
    passes = _simulate_csv(runner, tmp_path / "passes", family, 7).read_bytes()
    assert passes == whole
    ids = [line.split(",", 1)[0] for line in passes.decode().splitlines()[1:]]
    assert ids == [f"{family[0]}#{i}" for i in range(7) for _ in range(65)]


def _simulate_peak(runner, out, paths):
    tracemalloc.start()
    try:
        _simulate_csv(runner, out, ("bessel3", "--x0", "1"), paths, n_steps=256)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_one_pass(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_BATCH_VALUES", 40 * 257)  # passes of 40 rows
    _simulate_peak(runner, tmp_path / "warm", 40)
    one, four = (_simulate_peak(runner, tmp_path / f"n{n}", n) for n in (40, 160))
    assert four <= 1.1 * one, (one, four)


def test_simulate_json_only_draws_no_path(runner, tmp_path, monkeypatch):
    def no_draws(*args):
        raise AssertionError("simulate --formats json drew a path")

    monkeypatch.setattr(experiments, "_keyed_chunks", no_draws)
    out = tmp_path / "json"
    r = runner.invoke(main, ["simulate", "--family", "brownian", "--paths", "3", "--formats", "json",
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert sorted(p.name for p in out.iterdir()) == ["simulate.json"]


def _strict_json(raw):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(raw, parse_constant=reject)


def test_default_saturation_report_is_strict_json(runner, tmp_path):
    out = tmp_path / "sat"
    r = runner.invoke(main, ["experiment", "saturation", "--paths", "200", "--workers", "1",
                             "--out", str(out), "--formats", "json"])
    assert r.exit_code == 0, r.output
    doc = _strict_json((out / "saturation.json").read_bytes())
    assert doc["results"]["membership_rate"] is None  # undefined for this kind


def test_csv_table_from_a_generator_matches_a_list(tmp_path):
    rows = [{"n": i, "x": 0.1 * i, "ok": i % 2 == 0, "note": None if i else "first"} for i in range(5)]
    write_csv_table(tmp_path / "list.csv", rows)
    write_csv_table(tmp_path / "gen.csv", (dict(row) for row in rows))
    assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
    assert (tmp_path / "list.csv").read_text().splitlines()[:2] == ["n,x,ok,note", "0,0,true,first"]


def test_report_json_encodes_non_finite_as_null():
    from sigmapaths.reports import report_json_bytes

    raw = report_json_bytes({"a": float("nan"), "b": [float("inf"), 1.5], "c": (-float("inf"),)})
    doc = _strict_json(raw)
    assert (doc["a"], doc["b"], doc["c"]) == (None, [None, 1.5], [None])


@pytest.mark.parametrize("argv, env", [
    (["--seed", "-1"], {}),
    (["--seed", str(2**64)], {}),
    ([], {"SIGMA_SEED": "-1"}),
])
def test_seed_outside_domain_exits_2(runner, tmp_path, argv, env):
    r = runner.invoke(main, ["experiment", "lemma-balance", "--n-steps", "16", "--paths", "50",
                             "--out", str(tmp_path / "s"), *argv], env=env)
    assert r.exit_code == 2, r.output
    r = runner.invoke(main, ["verify", "skorokhod", *argv], env=env)
    assert r.exit_code == 2, r.output


def test_largest_seed_is_accepted(runner, tmp_path):
    out = tmp_path / "big"
    r = runner.invoke(main, ["experiment", "lemma-balance", "--n-steps", "16", "--paths", "50",
                             "--seed", str(2**64 - 1), "--out", str(out), "--formats", "json"])
    assert r.exit_code == 0, r.output
    assert json.loads((out / "lemma_balance.json").read_text())["seed"] == 2**64 - 1


#: One path more than the stream keys hold: path indices fill 32 bits of the Philox key.
_UNKEYABLE_PATHS = str((1 << 32) + 1)


@pytest.mark.parametrize("argv,option", [
    (["experiment", "lemma-balance", "--n-steps", "16", "--paths", "50", "--workers", "0"], "--workers"),
    (["experiment", "lemma-balance", "--n-steps", "16", "--paths", "50", "--workers", "-4"], "--workers"),
    (["simulate", "--family", "brownian", "--n-steps", "16", "--paths", "0"], "--paths"),
    (["experiment", "tail", "--paths", "10", "--dt", "0"], "dt"),
    (["experiment", "tail", "--paths", "10", "--horizon", "-1"], "horizon"),
    (["experiment", "saturation", "--paths", "10", "--horizon", "0.001", "--dt", "0.01"], "horizon"),
    (["experiment", "lemma-balance", "--n-steps", "64", "--paths", "64", "--stop-level", "-1"], "stop_level"),
    (["decompose", "--family", "exp_martingale", "--n-steps", "64", "--paths", "64", "--stop-line-drift", "-2"],
     "stop_line_drift"),
    (["experiment", "tail", "--paths", "0"], "--paths"),
    (["experiment", "two-infinity", "--paths", "0"], "--paths"),
    (["experiment", "azema-law", "--paths", "-3"], "--paths"),
    (["decompose", "--family", "exp_martingale", "--paths", "0"], "--paths"),
    (["experiment", "lemma-balance", "--family", "bessel3", "--x0", "4", "--stop-level", "1"], "--stop-level"),
    (["experiment", "azema-law", "--family", "exp_martingale", "--level", "0.5", "--x0", "2"], "--x0"),
    (["simulate", "--family", "brownian", "--n-steps", "16", "--paths", "2", "--a", "2"], "--a"),
    (["decompose", "--family", "scale_martingale", "--x0", "2", "--stop-line-drift", "1"], "--stop-line-drift"),
    (["experiment", "two-infinity", "--paths", "10", "--level", "-1"], "level"),
    (["experiment", "two-infinity", "--paths", "10", "--level", "0"], "level"),
    (["experiment", "tail", "--paths", "10", "--formats", ""], "--formats"),
    (["simulate", "--family", "brownian", "--paths", "2", "--formats", ","], "--formats"),
    (["experiment", "lemma-balance", "--paths", "10", "--horizon", "inf"], "horizon"),
    (["experiment", "two-infinity", "--paths", "10", "--horizon", "2"], "--horizon of at least 4"),
    (["experiment", "azema-law", "--paths", "5"], "--paths"),
    (["experiment", "two-infinity", "--paths", "10", "--n-steps", "8"], "--n-steps"),
    (["experiment", "two-infinity", "--paths", "10", "--n-steps", "1"], "--n-steps"),
    (["simulate", "--family", "bessel3", "--x0", "inf", "--paths", "2", "--n-steps", "4"], "x0"),
    (["experiment", "two-infinity", "--paths", "10", "--level", "inf"], "level"),
    (["experiment", "two-infinity", "--paths", "10", "--x0", "inf"], "x0"),
    (["experiment", "tail", "--paths", "10", "--a", "inf"], "a must be positive and finite"),
    (["experiment", "tail", "--paths", "10", "--kind", "sigma_b_expectation", "--b", "inf"],
     "b must be positive and finite"),
    (["experiment", "azema-law", "--paths", "64", "--level", "inf"], "level"),
    (["experiment", "azema-law", "--paths", "64", "--t", "3.99", "--horizon", "4", "--n-steps", "16"], "--t"),
    (["experiment", "lemma-balance", "--paths", "10", "--stop-level", "inf"], "stop_level"),
    (["experiment", "tail", "--paths", "10", "--a", "nan"], "a must be positive and finite"),
    (["experiment", "tail", "--paths", "10", "--horizon", "1", "--dt", "0.7"], "--dt"),
    (["experiment", "saturation", "--paths", "10", "--horizon", "1", "--dt", "0.3"], "--dt"),
    (["experiment", "tail", "--paths", "10", "--kind", "T_a_heavy_tail", "--horizon", "0.5"], "--horizon"),
    (["simulate", "--family", "brownian", "--paths", "2", "--n-steps", "16", "--formats", "svg"], "--formats"),
    (["decompose", "--family", "exp_martingale", "--paths", "4", "--n-steps", "16", "--formats", "json,svg"],
     "--formats"),
    (["experiment", "saturation", "--horizon", "0.01", "--dt", "0.001", "--paths", "20"], "--horizon"),
    (["experiment", "tail", "--kind", "sigma_b_expectation", "--horizon", "0.01", "--dt", "0.001", "--paths", "20"],
     "--horizon"),
    (["experiment", "tail", "--kind", "T_a_heavy_tail", "--paths", "1"], "--paths of at least 2"),
    (["experiment", "lemma-balance", "--n-steps", "16", "--paths", "1"], "--paths of at least 2"),
    (["decompose", "--family", "exp_martingale", "--n-steps", "16", "--paths", "1"], "--paths of at least 2"),
    (["experiment", "tail", "--paths", "10", "--horizon", "64", "--dt", "4"], "--dt"),
    (["experiment", "tail", "--paths", "10", "--kind", "sigma_b_expectation", "--horizon", "4", "--dt", "1"], "--dt"),
    (["decompose", "--family", "exp_martingale", "--n-steps", "9223372036854775807"], "n_steps"),
    (["experiment", "tail", "--paths", "10", "--dt", "1e-300"], "--dt"),
    (["experiment", "saturation", "--paths", "10", "--dt", "1e-300"], "--dt"),
    (["experiment", "tail", "--horizon", "1", "--dt", "0.5", "--paths", _UNKEYABLE_PATHS], "--paths"),
    (["experiment", "two-infinity", "--horizon", "4", "--n-steps", "64", "--paths", _UNKEYABLE_PATHS], "--paths"),
    (["decompose", "--family", "exp_martingale", "--n-steps", "16", "--paths", _UNKEYABLE_PATHS], "--paths"),
    (["simulate", "--family", "brownian", "--n-steps", "1", "--paths", _UNKEYABLE_PATHS], "--paths"),
    (["experiment", "azema-law", "--bins", "1000000000", "--paths", "64", "--horizon", "4", "--n-steps", "256"],
     "--bins"),
    (["experiment", "tail", "--paths", "10", "--horizon", "4", "--dt", "1e-10"], "--dt"),
    (["experiment", "saturation", "--paths", "10", "--horizon", "4", "--dt", "1e-10"], "--dt"),
    (["experiment", "lemma-balance", "--paths", "10", "--n-steps", "40000000000"], "n_steps"),
], ids=["workers-0", "workers-negative", "simulate-no-paths", "tail-dt-0", "tail-horizon-negative",
        "saturation-zero-steps", "lemma-stop-level-negative", "decompose-stop-line-drift-negative",
        "tail-no-paths", "two-infinity-no-paths", "azema-paths-negative", "decompose-no-paths",
        "lemma-bessel3-stop-level", "azema-exp_martingale-x0", "simulate-brownian-a",
        "decompose-scale_martingale-stop-line-drift", "two-infinity-level-negative", "two-infinity-level-0",
        "formats-empty", "formats-comma", "horizon-inf", "two-infinity-horizon-below-4",
        "azema-every-bin-dropped", "two-infinity-horizon-index-0", "two-infinity-horizons-aliased",
        "simulate-x0-inf", "two-infinity-level-inf", "two-infinity-x0-inf", "tail-a-inf", "tail-b-inf",
        "azema-level-inf", "azema-t-rounds-onto-horizon", "lemma-stop-level-inf", "tail-a-nan",
        "tail-dt-not-dividing-horizon", "saturation-dt-not-dividing-horizon", "tail-horizon-below-every-time",
        "simulate-svg", "decompose-svg", "saturation-too-few-stops", "tail-sigma_b-too-few-stops",
        "tail-one-path", "lemma-one-path", "decompose-one-path", "tail-time-below-one-step",
        "tail-sigma_b-time-below-one-step", "decompose-n-steps-too-large", "tail-dt-too-small",
        "saturation-dt-too-small", "tail-paths-past-keys", "two-infinity-paths-past-keys",
        "decompose-paths-past-keys", "simulate-paths-past-keys", "azema-bins-above-paths",
        "tail-grid-too-large", "saturation-grid-too-large", "lemma-grid-too-large"])
def test_out_of_domain_input_exits_2(runner, tmp_path, monkeypatch, argv, option):
    run_batches = experiments._run_batches

    def keyable_run_batches(fn, n_paths, *rest):
        # a run past the keyed path range fails only at the batch that holds path 2^32, hours in
        assert n_paths <= 1 << 32, f"{n_paths} paths reached the batch runner"
        # a bin count above the path count is refused before any path is drawn
        assert option != "--bins", "a bin count above --paths reached the batch runner"
        return run_batches(fn, n_paths, *rest)

    monkeypatch.setattr(experiments, "_run_batches", keyable_run_batches)
    out = tmp_path / "o"
    r = runner.invoke(main, [*argv, "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert option in r.output, r.output
    assert not out.exists()


_MAX_WORKERS = 4 * (os.cpu_count() or 1)


@pytest.mark.parametrize("workers", [_MAX_WORKERS, _MAX_WORKERS + 1], ids=["at-bound", "above-bound"])
def test_workers_are_bounded_by_the_cpu_count(runner, tmp_path, monkeypatch, workers):
    run_batches, asked = experiments._run_batches, []

    def in_process(fn, n_paths, rows, workers, *common):
        asked.append(workers)  # the pool this would start, which the test does not
        return run_batches(fn, n_paths, rows, 1, *common)

    monkeypatch.setattr(experiments, "_run_batches", in_process)
    r = runner.invoke(main, ["experiment", "tail", "--horizon", "1", "--dt", "0.5", "--paths", "10",
                             "--workers", str(workers), "--formats", "json", "--out", str(tmp_path / "o")])
    if workers <= _MAX_WORKERS:
        assert r.exit_code == 0 and asked == [workers], r.output
    else:
        assert r.exit_code == 2 and "--workers" in r.output and not asked, r.output


def test_tail_sigma_b_runs_where_its_oracle_factor_overflows(runner, tmp_path):
    # exp(2 b) overflows for b above 354.9, where the survival reference is the first term alone
    r = runner.invoke(main, ["experiment", "tail", "--kind", "sigma_b_expectation", "--b", "356", "--paths", "40",
                             "--horizon", "4", "--dt", "0.01", "--workers", "1", "--formats", "json",
                             "--out", str(tmp_path)])
    assert r.exit_code == 0, r.output
    levels = _strict_json((tmp_path / "tail.json").read_bytes())["results"]["levels"]
    assert all(0.0 <= row["reference"] <= 1.0 for row in levels), levels


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: the package must run with it absent
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; sys.modules['scipy'] = None; from sigmapaths.cli import main; main()"
    for argv in (["verify", "all"],
                 ["simulate", "--family", "brownian", "--paths", "2", "--n-steps", "64", "--out", str(tmp_path)]):
        r = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stdout + r.stderr
    assert len(read_paths_csv(tmp_path / "paths.csv")) == 2
