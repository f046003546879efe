import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_runs
from cayley_runs.cli import build_parser, run_cli

from conftest import (FIG_MAPPING, FIG_PARTITION_BLOCKS, FIG_PARTITION_LINKS, FIG_RUN_STARTS,
                      FIG_TREE_PARENT)


@pytest.fixture
def fig_files(tmp_path):
    tree = tmp_path / "tree.txt"
    tree.write_text(" ".join(map(str, FIG_TREE_PARENT)) + "\n")
    mapping = tmp_path / "mapping.txt"
    mapping.write_text(" ".join(map(str, FIG_MAPPING)) + "\n")
    return tree, mapping


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_runs_command(capsys, fig_files):
    _, mapping = fig_files
    code, out = run(capsys, "runs", "--input", str(mapping))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 13
    assert payload["starts"] == sorted(FIG_RUN_STARTS)


def test_runs_command_tree(capsys, fig_files):
    tree, _ = fig_files
    code, out = run(capsys, "runs", "--input", str(tree), "--tree")
    assert code == 0
    assert json.loads(out)["count"] == 13


def test_runs_command_json_input(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "image": [2, 1]}))
    code, out = run(capsys, "runs", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"count": 1, "starts": [1]}


def test_phi_produces_figure_mapping(capsys, fig_files):
    tree, _ = fig_files
    code, out = run(capsys, "phi", "--tree", str(tree), "--mark", "1")
    assert code == 0
    assert out.strip() == " ".join(map(str, FIG_MAPPING))


def test_phi_inverse_recovers_marked_tree(capsys, fig_files):
    _, mapping = fig_files
    code, out = run(capsys, "phi-inv", "--mapping", str(mapping))
    assert code == 0
    payload = json.loads(out)
    assert tuple(payload["parent"]) == FIG_TREE_PARENT
    assert payload["mark"] == 1


def test_partition_round_trip(capsys, tmp_path, fig_files):
    _, mapping = fig_files
    code, out = run(capsys, "partition", "encode", "--mapping", str(mapping))
    assert code == 0
    encoded = tmp_path / "partition.json"
    encoded.write_text(out)
    code, out = run(capsys, "partition", "decode", "--input", str(encoded))
    assert code == 0
    assert out.strip() == " ".join(map(str, FIG_MAPPING))


def test_table_mapping(capsys):
    code, out = run(capsys, "table", "--kind", "mapping", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["3,1,3", "3,2,18", "3,3,6"]


def test_table_oracle_agrees_with_formula(capsys):
    code, formula = run(capsys, "table", "--kind", "tree", "--n", "4")
    assert code == 0
    code, oracle = run(capsys, "table", "--kind", "tree", "--n", "4", "--oracle")
    assert code == 0
    assert formula == oracle


def test_table_connected_series_vs_oracle(capsys):
    code, from_series = run(capsys, "table", "--kind", "connected", "--n", "4")
    assert code == 0
    code, from_oracle = run(capsys, "table", "--kind", "connected", "--n", "4", "--oracle")
    assert code == 0
    assert from_series == from_oracle


def test_table_respects_bound(capsys):
    code, _ = run(capsys, "table", "--kind", "mapping", "--n", "8", "--oracle")
    assert code == 2
    code, _ = run(capsys, "table", "--kind", "mapping", "--n", "8")
    assert code == 0  # closed form has no exhaustive bound


_TABLE = cayley_runs.config.TABLE_BOUND


@pytest.mark.parametrize("kind", ["tree", "mapping"])
def test_closed_form_table_beyond_its_bound_is_a_usage_error(capsys, monkeypatch, kind):
    # past about n = 1,340 a count has more digits than CPython prints, after rows were printed
    def unusable(n):
        raise AssertionError("table computed counts past its bound")

    monkeypatch.setattr(cayley_runs.exact, f"{kind}_run_table", unusable)
    assert run_cli(["table", "--kind", kind, "--n", str(_TABLE + 1)]) == 2
    assert capsys.readouterr() == ("", f"error: n={_TABLE + 1} exceeds table bound {_TABLE}\n")


def test_closed_form_table_at_its_bound(capsys):
    code, out = run(capsys, "table", "--kind", "mapping", "--n", str(_TABLE))
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()] == [
        [str(_TABLE), str(m)] for m in range(1, _TABLE + 1)]


@pytest.mark.parametrize("kind", ["tree", "mapping", "connected"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_table_rejects_non_positive_n(capsys, kind, n):
    for extra in ([], ["--oracle"]):
        assert run_cli(["table", "--kind", kind, "--n", n, *extra]) == 2
        assert capsys.readouterr() == ("", "error: n must be positive\n")


@pytest.mark.parametrize("argv, message", [
    (["--kind", "connected", "--n", "101"], "n=101 exceeds series bound 100"),
    (["--kind", "tree", "--n", "8", "--oracle"], "n=8 exceeds exhaustive bound 7"),
    (["--kind", "mapping", "--n", "8", "--oracle"], "n=8 exceeds exhaustive bound 7"),
    (["--kind", "connected", "--n", "8", "--oracle"], "n=8 exceeds exhaustive bound 7"),
    (["--kind", "tree", "--n", "9", "--oracle", "--max-size", "8"],
     "n=9 exceeds exhaustive bound 8"),
])
def test_table_past_its_bound_names_the_bound(capsys, argv, message):
    # the table bound's message is pinned by the closed-form bound test above
    assert run_cli(["table", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_series_csv(capsys):
    code, out = run(capsys, "series", "--which", "F", "--order", "4")
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in out.splitlines()}
    assert rows[("3", "2")] == ["1", "1"]  # 6 / 3! = 1
    assert rows[("4", "2")] == ["7", "8"]  # 21 / 4!


def test_verify_series(capsys):
    code, out = run(capsys, "verify-series", "--order", "6")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_series_order_24(capsys):
    code, out = run(capsys, "verify-series", "--order", "24")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


_BOUND = cayley_runs.config.SERIES_BOUND
_OVER = str(_BOUND + 1)


@pytest.mark.parametrize("argv, name", [
    (["series", "--which", "C", "--order", _OVER], "order"),
    (["verify-series", "--order", _OVER], "order"),
    (["table", "--kind", "connected", "--n", _OVER], "n"),
], ids=["series", "verify-series", "table-connected"])
def test_series_order_beyond_the_bound_is_a_usage_error(capsys, monkeypatch, argv, name):
    def unusable(order):
        raise AssertionError("a solver ran past the series bound")

    for solver in ("tree_series", "auxiliary_series", "mapping_series", "connected_series",
                   "connected_run_table"):
        monkeypatch.setattr(cayley_runs.series, solver, unusable)
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", f"error: {name}={_OVER} exceeds series bound {_BOUND}\n")


@pytest.mark.parametrize("which", "HRC")
def test_negative_series_order_is_a_usage_error(capsys, which):
    assert run_cli(["series", "--which", which, "--order", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: order must be non-negative\n")


def test_configured_series_order_beyond_the_bound_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"series_order": _BOUND + 1}))
    assert run_cli(["--config", str(cfg), "verify-series"]) == 2
    assert capsys.readouterr() == ("", f"error: series_order={_OVER} exceeds series bound {_BOUND}\n")
    # an explicit --order wins over the configured one
    assert run_cli(["--config", str(cfg), "series", "--which", "F", "--order", "3"]) == 0


_MC_N = cayley_runs.config.MC_N_BOUND
_MC_CELLS = cayley_runs.config.MC_CELLS_BOUND


@pytest.mark.parametrize("argv, message", [
    (["mc", "--n", str(_MC_N + 1), "--samples", "1"],
     f"n={_MC_N + 1} exceeds mc bound {_MC_N}"),
    (["mc", "--n", "1000", "--samples", str(_MC_CELLS // 1000 + 1), "--trees"],
     f"n x samples={_MC_CELLS + 1000} exceeds mc cell bound {_MC_CELLS}"),
], ids=["n", "cells"])
def test_mc_beyond_its_bounds_is_a_usage_error(capsys, monkeypatch, argv, message):
    def unusable(*args, **kwargs):
        raise AssertionError("mc drew samples past its bound")

    monkeypatch.setattr(cayley_runs.montecarlo, "run_statistics", unusable)
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["series", "--which", w, "--order", "16"], f"series_{w}_order16.csv") for w in "HFRC"
] + [(["table", "--kind", "connected", "--n", "12"], "table_connected_n12.csv")])
def test_series_output_matches_golden(capsys, argv, golden):
    # recorded from the fixed-point Fraction engine that the integer sweeps replaced
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify-all", "--n-max", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_prints_each_check_as_it_finishes(capsys, monkeypatch):
    from cayley_runs import exact

    tables = exact.brute_force_tables
    seen = []

    def watched(n, *args, **kwargs):
        seen.append(capsys.readouterr().out)
        return tables(n, *args, **kwargs)

    monkeypatch.setattr(exact, "brute_force_tables", watched)
    assert run_cli(["verify-all", "--n-max", "2"]) == 0
    seen.append(capsys.readouterr().out)
    # the bijection lines of each n are out before its oracle scan starts
    assert [chunk.count("PASS ") for chunk in seen] == [3, 6, 3]


def _swap_first_two_parents(real):
    def wrong(images):
        parents, marks = real(images)
        if parents.shape[1] > 1:
            differ = parents[:, 0] != parents[:, 1]
            parents[differ, :2] = parents[differ, 1::-1]
        return parents, marks
    return wrong


def _flip_last_start(real):
    def wrong(images):
        starts = real(images)
        n = images.shape[1]
        starts[images[:, -1] == n, -1] ^= True  # rows that fix n
        return starts
    return wrong


def _shift_first_link(real):
    def wrong(images):
        blocks, links = real(images)
        links[:, 0] = links[:, 0] % images.shape[1] + 1
        return blocks, links
    return wrong


def _accept_a_forbidden_pair(real):
    def wrong(tables, links):
        images, valid = real(tables, links)
        valid[np.argmin(valid)] = True  # the first rejected pair, if any
        return images, valid
    return wrong


def _reuse_the_first_verdicts(real):
    """Decodes each link array, but hands back the first array's verdicts for the same tables."""
    first = [None, None]  # the last tables seen, and their first verdicts

    def wrong(tables, links):
        images, valid = real(tables, links)
        if first[0] is tables:
            return images, first[1]
        first[:] = tables, valid
        return images, valid
    return wrong


# verify-all decodes through kernels.decode_links, so its mutants sit there
@pytest.mark.parametrize("kernel, mutate, check", [
    ("mapping_to_tree", _swap_first_two_parents, "bijection-round-trip"),
    ("run_starts", _flip_last_start, "run-preservation"),
    ("encode_partition", _shift_first_link, "partition-round-trip"),
    ("decode_links", _accept_a_forbidden_pair, "partition-round-trip"),
    ("decode_links", _reuse_the_first_verdicts, "partition-round-trip"),
])
def test_verify_all_detects_a_wrong_kernel(capsys, monkeypatch, kernel, mutate, check):
    from cayley_runs import kernels

    monkeypatch.setattr(kernels, kernel, mutate(getattr(kernels, kernel)))
    code, out = run(capsys, "verify-all", "--n-max", "4")
    assert code == 1
    assert any(line.startswith(f"FAIL {check} n=") for line in out.splitlines())


def _map_the_last_node_to_itself(real):
    def wrong(*args):
        m = real(*args)
        return type(m)(n=m.n, image=(*m.image[:-1], m.n))
    return wrong


@pytest.mark.parametrize("inverse, check", [
    ("tree_to_mapping", "bijection-round-trip"),
    ("decode_partition", "partition-round-trip"),
])
def test_verify_all_runs_the_scalar_inverses(capsys, monkeypatch, inverse, check):
    # row 0 of each block goes back through the scalar inverse of each bijection
    from cayley_runs import bijections

    monkeypatch.setattr(bijections, inverse, _map_the_last_node_to_itself(
        getattr(bijections, inverse)))
    code, out = run(capsys, "verify-all", "--n-max", "3")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    # row 0 is the all-ones array, which maps n to itself only at n = 1
    assert failed == [f"FAIL {check} n=2", f"FAIL {check} n=3"]


@pytest.mark.parametrize("argv", [
    ["mc", "--n", "10", "--samples", "10", "--workers", "-3"],
    ["table", "--oracle", "--kind", "mapping", "--n", "7", "--workers", "0"],
    ["table", "--kind", "mapping", "--n", "3", "--workers", "0"],
    ["verify-all", "--n-max", "3", "--workers", "0"],
])
def test_workers_below_one_is_a_usage_error(capsys, argv):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --workers: must be at least 1" in captured.err
    assert "Traceback" not in captured.err


def test_negative_seed_is_a_usage_error(capsys):
    # numpy's own message named neither the flag nor the value
    assert run_cli(["mc", "--n", "10", "--samples", "10", "--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be at least 0, not -3" in captured.err


def test_negative_config_seed_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_seed": -1}))
    assert run_cli(["--config", str(cfg), "mc", "--n", "10", "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rng_seed=-1 must be non-negative\n"


def _package_env() -> dict:
    """The environment with the tested package's directory first on PYTHONPATH."""
    src = str(Path(cayley_runs.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _assert_script_rejects(script, argv, message):
    """scripts/<script> with argv prints nothing and exits 2 with a usage message naming message."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, str(root / "scripts" / script), *argv],
                         env=_package_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr
    assert out.stderr.startswith("usage: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flag, value", [("--n-max", "0"), ("--n-max", "-3"), ("--workers", "0")])
def test_exhaustive_tables_script_rejects_counts_below_one(flag, value):
    # it used to compare no table at all and still print that all of them match
    _assert_script_rejects("exhaustive_tables.py", [flag, value],
                           f"argument {flag}: must be at least 1, not {value}")


_WRONG_TABLE_SCRIPT = """
import importlib.util, sys
from cayley_runs import CountTable, brute_force_tables

kind, path = int(sys.argv[1]), sys.argv[2]
spec = importlib.util.spec_from_file_location("exhaustive_tables", path)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)

def wrong(n, workers=1, max_size=7):
    tables = list(brute_force_tables(n, workers, max_size))
    if n == 3:  # one array moved from one run to two in the chosen table
        values = tables[kind].values
        tables[kind] = CountTable(n, {**values, 1: values[1] - 1, 2: values[2] + 1})
    return tuple(tables)

script.brute_force_tables = wrong
sys.argv = [path, "--n-max", "4", "--workers", "1"]
script.main()
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("kind, name", enumerate(["tree", "mapping", "connected"]))
def test_exhaustive_tables_script_exits_1_on_a_wrong_table(optimize, kind, name):
    # it checked with assert: -O stripped the checks, and without -O a mismatch was a traceback;
    # the connected column was never checked
    script = Path(__file__).resolve().parents[1] / "scripts" / "exhaustive_tables.py"
    out = subprocess.run([sys.executable, *optimize, "-c", _WRONG_TABLE_SCRIPT, str(kind),
                          str(script)], env=_package_env(), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 1
    assert out.stderr == f"n=3: the brute-force {name} table does not match its closed form\n"
    assert out.stdout.startswith("n=1 ") and "n=3 " in out.stdout and "n=4 " not in out.stdout
    assert "match the closed forms" not in out.stdout


@pytest.mark.parametrize("argv", [
    ["--workers", "0"], ["--samples", "0"], ["--sizes", "0"], ["--sizes", "10", "-3"],
])
def test_limit_law_sweep_rejects_counts_below_one(argv):
    # --workers 0 ran on one worker, and --samples 0 ended in a traceback
    _assert_script_rejects("limit_law_sweep.py", argv,
                           f"argument {argv[0]}: must be at least 1, not {argv[-1]}")


def test_limit_law_sweep_rejects_a_negative_seed():
    # it used to end in numpy's traceback
    _assert_script_rejects("limit_law_sweep.py", ["--seed", "-1"],
                           "argument --seed: must be at least 0, not -1")


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "10", str(_MC_N + 1), "--samples", "1"],
     f"error: n={_MC_N + 1} exceeds mc bound {_MC_N}"),
    (["--sizes", "1000", "--samples", str(_MC_CELLS // 1000 + 1)],
     f"error: n x samples={_MC_CELLS + 1000} exceeds mc cell bound {_MC_CELLS}"),
], ids=["n", "cells"])
def test_limit_law_sweep_keeps_the_mc_bounds(argv, message):
    # it used to sweep an n that mc refuses with exit 2
    _assert_script_rejects("limit_law_sweep.py", argv, message)


def test_verify_all_is_bounded(capsys):
    # n-max above the exhaustive bound is refused before any check runs
    assert run_cli(["verify-all", "--n-max", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_verify_all_rejects_non_positive_n_max(capsys, n_max):
    # a run with no sizes to check must not report success
    assert run_cli(["verify-all", "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_asymptotics_json(capsys):
    # the constants are the closed forms rounded to 12 places
    code, out = run(capsys, "asymptotics", "--v", "1.0", "--constants")
    assert code == 0
    assert out == (
        '{"v": 1.0, "tau": 1.0, "rho": 0.367879441171, "mu": 0.632120558829, '
        '"sigma2": 0.097208874698, "v_prime0": 0.183939720586, "v_doubleprime0": 0.019063204269}\n')


@pytest.mark.parametrize("v, line", [
    ("0.5", '{"v": 0.5, "tau": 1.278464542761, "rho": 0.556929085522}\n'),
    ("1.7", '{"v": 1.7, "tau": 0.8183454883, "rho": 0.259506445285}\n'),
    ("2.0", '{"v": 2.0, "tau": 0.768039047013, "rho": 0.231960952987}\n'),
])
def test_asymptotics_json_away_from_one(capsys, v, line):
    code, out = run(capsys, "asymptotics", "--v", v)
    assert code == 0
    assert out == line


@pytest.mark.parametrize("v, message", [
    ("0.2", "v=0.2 outside window (0.2, 5.0)"),
    ("5", "v=5.0 outside window (0.2, 5.0)"),
])
def test_asymptotics_window_is_open(capsys, v, message):
    assert run_cli(["asymptotics", "--v", v]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_mc_json_deterministic(capsys):
    code, first = run(capsys, "mc", "--n", "50", "--samples", "2000", "--seed", "5")
    assert code == 0
    code, second = run(capsys, "mc", "--n", "50", "--samples", "2000", "--seed", "5")
    assert code == 0
    assert first == second
    payload = json.loads(first)
    for key in ("mean", "variance", "mean_over_n", "variance_over_n",
                "histogram", "ks_statistic"):
        assert key in payload


def test_mc_tree_flag(capsys):
    code, out = run(capsys, "mc", "--n", "5", "--samples", "500", "--seed", "2", "--trees")
    assert code == 0
    assert json.loads(out)["samples"] == 500


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_seed": 77, "exhaustive_bound": 5}))
    code, with_cfg = run(capsys, "--config", str(cfg),
                         "mc", "--n", "10", "--samples", "100")
    assert code == 0
    assert json.loads(with_cfg)["seed"] == 77
    code, explicit = run(capsys, "mc", "--n", "10", "--samples", "100", "--seed", "77")
    assert json.loads(explicit) == json.loads(with_cfg)
    # the configured bound now blocks the n=6 oracle unless overridden
    code, _ = run(capsys, "--config", str(cfg),
                  "table", "--kind", "mapping", "--n", "6", "--oracle")
    assert code == 2
    code, _ = run(capsys, "--config", str(cfg), "table", "--kind", "mapping",
                  "--n", "6", "--oracle", "--max-size", "6")
    assert code == 0


@pytest.mark.parametrize("doc", [{"nope": 1}, {"series_order": "x"}, [1],
                                 {"rng_seed": True}, {"mc_tolerances": {"ks": "a"}},
                                 {"mc_tolerances": {"nope": 0.1}}])
def test_bad_config_is_a_usage_error(capsys, tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["--config", str(cfg), "series", "--which", "H", "--order", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_cannot_override_the_mc_tolerances(capsys, tmp_path):
    # the Monte Carlo tolerances are pre-registered constants, not config keys
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mc_tolerances": {"ks": 0.5}}))
    assert run_cli(["--config", str(cfg), "series", "--which", "H", "--order", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown config key(s): mc_tolerances\n"


@pytest.mark.parametrize("text, tree", [
    ('{"image": [true]}', False), ('{"parent": [true]}', True), ("true", False), ("true", True),
    ('{"image": 5}', False), ('{"parent": null}', True), ('{"image": [1], "n": true}', False),
])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, text, tree):
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = ["runs", "--input", str(path)] + (["--tree"] if tree else [])
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("doc", [
    [1], {"blocks": 5, "links": []}, {"blocks": [[True]], "links": [1]},
    {"blocks": [[1.0]], "links": [1]}, {"blocks": [[1, 1]], "links": [1]},
])
def test_malformed_partition_is_a_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["partition", "decode", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_DEEP = "[" * 10**5 + "]" * 10**5  # deeper than the JSON decoder's recursion limit


@pytest.mark.parametrize("doc, argv", [
    ('{"image": ' + _DEEP + "}", ["runs", "--input", "{path}"]),
    (_DEEP, ["partition", "decode", "--input", "{path}"]),
    (_DEEP, ["--config", "{path}", "table", "--kind", "mapping", "--n", "3"]),
], ids=["runs", "partition-decode", "config"])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, doc, argv):
    path = tmp_path / "deep.json"
    path.write_text(doc)
    assert run_cli([a.replace("{path}", str(path)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_errors(capsys):
    assert run_cli(["table", "--kind", "nonsense", "--n", "3"]) == 2
    assert run_cli(["phi"]) == 2
    assert run_cli([]) == 2
    assert run_cli(["no-such-command"]) == 2


@pytest.mark.parametrize("command", ["mc", "table"])
def test_workers_help_names_the_default(capsys, command):
    assert run_cli([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default: the CPU count, {os.cpu_count() or 1} here)" in text
    assert "the results do not depend on it" in text


@pytest.mark.parametrize("script", ["exhaustive_tables.py", "limit_law_sweep.py"])
def test_scripts_default_workers_to_the_cpu_count(script):
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, str(root / "scripts" / script), "--help"],
                         env=_package_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert "(default: the CPU count," in " ".join(out.stdout.split())


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_one_process_prints_what_separate_processes_print(capsys, tmp_path):
    # every run_cli call reuses one parser, so no call may see anything of the calls before it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_seed": 77}))
    mc = ["mc", "--n", "30", "--samples", "50"]
    argvs = [
        ["table", "--kind", "nonsense", "--n", "3"],
        ["table", "--kind", "tree", "--n", "5"],
        [*mc, "--seed", "5"],
        mc,
        ["--config", str(cfg), *mc],
        mc,
        ["--config", str(cfg), *mc, "--trees"],
        [*mc, "--workers", "0"],
        ["table", "--oracle", "--kind", "mapping", "--n", "4"],
        ["table", "--kind", "mapping", "--n", "4"],
        ["verify-series", "--order", "8"],
        # no --workers means the CPU count: four 655-row blocks split into slices,
        # and two mapping chunks (2,097 + 3 rows) go to a pool
        ["mc", "--n", "100", "--samples", "2000", "--trees"],
        ["mc", "--n", "100", "--samples", "2000", "--trees", "--workers", "1"],
        ["mc", "--n", "1000", "--samples", "2100"],
        ["mc", "--n", "1000", "--samples", "2100", "--workers", "1"],
    ]
    in_process = [run(capsys, *argv) for argv in argvs]
    processes = [subprocess.run([sys.executable, "-m", "cayley_runs.cli", *argv],
                                env=_package_env(), capture_output=True, text=True, timeout=120)
                 for argv in argvs]
    assert in_process == [(p.returncode, p.stdout) for p in processes]
    assert [code for code, _ in in_process] == [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert [json.loads(in_process[i][1])["seed"] for i in (2, 3, 4, 5, 6)] == [5, 1729, 77, 1729, 77]
    assert in_process[8][1] == in_process[9][1] != ""
    assert in_process[11][1] == in_process[12][1] != ""
    assert in_process[13][1] == in_process[14][1] != ""


def test_missing_file_is_reported(capsys):
    assert run_cli(["runs", "--input", "/nonexistent/path.txt"]) == 2
    assert "error" in capsys.readouterr().err


_KEYS = st.sampled_from(["image", "parent", "n", "blocks", "links", "rng_seed",
                         "series_order", "exhaustive_bound", "mc_tolerances", "ks"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(_KEYS | st.text(max_size=3),
                                                              kids, max_size=4),
    max_leaves=16)
_INPUT = st.one_of(
    st.binary(max_size=40),
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    st.lists(st.integers(-2, 8), max_size=8).map(lambda xs: " ".join(map(str, xs)).encode()),
)


@pytest.mark.parametrize("argv", [
    ["runs", "--input", "{path}"],
    ["runs", "--tree", "--input", "{path}"],
    ["phi", "--tree", "{path}", "--mark", "1"],
    ["phi-inv", "--mapping", "{path}"],
    ["partition", "encode", "--mapping", "{path}"],
    ["partition", "decode", "--input", "{path}"],
    ["--config", "{path}", "mc", "--n", "5", "--samples", "5"],
], ids=["runs", "runs-tree", "phi", "phi-inv", "partition-encode", "partition-decode", "config"])
def test_any_input_file_ends_in_exit_0_or_a_usage_error(tmp_path_factory, argv):
    # exit 0, or exit 2 with an "error: " line: never a traceback, whatever the file holds
    path = tmp_path_factory.mktemp("fuzz") / "input"
    argv = [a.replace("{path}", str(path)) for a in argv]

    @settings(max_examples=60, deadline=None)
    @given(_INPUT)
    def check(data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        assert code in (0, 2), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""

    check()


_START_SCRIPT = """
import contextlib, io, sys
import cayley_runs, cayley_runs.cli
from cayley_runs.cli import run_cli

tree, mapping, partition = sys.argv[1:]
def codes(*argvs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return [run_cli(list(argv)) for argv in argvs]
arrays = {"numpy", "multiprocessing"}
assert codes(
    *(["table", "--kind", k, "--n", "7"] for k in ("tree", "mapping", "connected")),
    ["series", "--which", "C", "--order", "6"],
    ["verify-series", "--order", "6"],
    ["asymptotics", "--constants"],
    ["runs", "--input", mapping], ["runs", "--tree", "--input", tree],
    ["phi", "--tree", tree, "--mark", "1"],
    ["phi-inv", "--mapping", mapping],
    ["partition", "encode", "--mapping", mapping],
    ["partition", "decode", "--input", partition],
    ["--help"],
) == [0] * 13
assert codes(["table", "--kind", "tree", "--n", "0"]) == [2]
assert not arrays & set(sys.modules), arrays & set(sys.modules)
assert codes(["mc", "--n", "5", "--samples", "3"], ["verify-all", "--n-max", "2"],
             ["table", "--oracle", "--kind", "tree", "--n", "3"]) == [0, 0, 0]
assert "numpy" in sys.modules
print("ok")
"""


def test_commands_that_use_no_array_load_no_numpy(tmp_path, fig_files):
    # a fresh interpreter: the pytest process itself has numpy loaded
    tree, mapping = fig_files
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"blocks": [sorted(b) for b in FIG_PARTITION_BLOCKS],
                                     "links": list(FIG_PARTITION_LINKS)}))
    out = subprocess.run([sys.executable, "-c", _START_SCRIPT, str(tree), str(mapping),
                          str(partition)], env=_package_env(), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
