"""Self-tests of the benchmark: tracing changes no output, checks reject wrong output.

    python3 -m pytest -q perfbench

These stay out of the package's own test suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cayley_runs  # noqa: E402
from cayley_runs import exact, montecarlo  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LAYERS, Recorder  # noqa: E402

SMALL_COMMANDS = [
    ("verify-series", "--order", "6"),
    ("series", "--which", "F", "--order", "6"),
    ("table", "--kind", "connected", "--n", "6"),
    ("table", "--oracle", "--kind", "mapping", "--n", "5", "--workers", "2"),
    ("verify-all", "--n-max", "3"),
    ("mc", "--n", "50", "--samples", "3000", "--seed", "7", "--workers", "2"),
    ("mc", "--n", "50", "--samples", "300", "--seed", "7", "--trees"),
    ("asymptotics", "--constants"),
    ("runs", "--input", str(HERE / "test_perfbench.py"), "--tree"),  # input error: exit 2
]


def _public_functions():
    mods = [cayley_runs, *(sys.modules[f"cayley_runs.{layer}"] for layer in LAYERS)]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if inspect.isfunction(v)}


def test_traced_pass_prints_identical_stdout():
    plain = [wl.cli(*argv)() for argv in SMALL_COMMANDS]
    rec = Recorder()
    with rec.instrument():
        traced = [wl.cli(*argv)() for argv in SMALL_COMMANDS]
    assert traced == plain
    assert [code for code, _ in plain] == [0] * (len(SMALL_COMMANDS) - 1) + [2]
    seen = {name.split(".")[0] for name in rec.names}
    assert seen == set(LAYERS)


def test_instrument_restores_every_binding():
    before = _public_functions()
    with Recorder().instrument():
        during = _public_functions()
    assert _public_functions() == before
    assert during.keys() == before.keys()
    # names bound by import elsewhere are wrapped too, not only at home
    assert during[("cayley_runs.montecarlo", "mapping_to_tree")] is not \
        before[("cayley_runs.montecarlo", "mapping_to_tree")]
    assert during[("cayley_runs.cli", "load_config")] is not \
        before[("cayley_runs.cli", "load_config")]


def test_calls_through_imported_names_land_in_their_layer():
    rec = Recorder()
    with rec.instrument():
        montecarlo.run_statistics(30, 20, 3, use_trees=True)
    prof = rec.reduce(0, len(rec))
    trees = prof.ids("bijections.mapping_to_tree")
    assert len(trees) == 20
    assert all(prof.names[prof.name[prof.parent[i]]] == "montecarlo.run_statistics"
               for i in trees)
    assert len(prof.ids("core.make_tree")) == 20  # bijections binds make_tree by name
    assert prof.work == {0: (30 * 20, 1)}


def test_self_time_excludes_children():
    rec = Recorder()
    with rec.span("a.outer"):
        with rec.span("b.inner"):
            sum(range(10_000))
        with rec.span("b.inner"):
            pass
    prof = rec.reduce(0, len(rec))
    outer = prof.ids("a.outer")
    inner = prof.ids("b.inner")
    assert prof.self_total(outer) == pytest.approx(prof.total("a.outer") - prof.total("b.inner"))
    assert prof.self_total(inner) == pytest.approx(prof.total("b.inner"))
    assert list(prof.under(int(outer[0]), inner)) == list(inner)


def test_count_metrics_are_exact_for_a_pass():
    rec = Recorder()
    with rec.instrument():
        with rec.span("task.verify-series") as root:
            wl.cli("verify-series", "--order", "5")()
        wl.cli("table", "--oracle", "--kind", "mapping", "--n", "4")()
    prof = rec.reduce(0, len(rec))
    solvers = prof.ids("series.tree_series", "series.auxiliary_series",
                       "series.mapping_series", "series.connected_series")
    assert len(prof.under(root, solvers)) == 10
    assert sum(w for w, _ in prof.work.values()) == 4 ** 4


def test_work_counts_come_from_the_results():
    # an enumeration that loses one array, or a sampler that loses one sample, shows
    def short_tables(n, workers=1, max_size=exact.DEFAULT_EXHAUSTIVE_BOUND):
        tree, mapp, conn = exact.brute_force_tables(n, workers, max_size)
        return tree, exact.CountTable(n, {**mapp.values, 1: mapp.values[1] - 1}), conn

    def short_stats(n, samples, seed, workers=1, use_trees=False):
        stats = montecarlo.run_statistics(n, samples, seed, workers, use_trees)
        low = min(stats.histogram)
        return dataclasses.replace(stats, samples=samples - 1,
                                   histogram={**stats.histogram, low: stats.histogram[low] - 1})

    rec = Recorder()
    rec._wrap("exact.brute_force_tables", short_tables)(4)
    rec._wrap("montecarlo.run_statistics", short_stats)(30, 20, 3)
    assert list(rec.work.values()) == [(4 ** 4 - 1, 1), (30 * 19, 1)]


def test_runner_calling_convention_parses():
    import run
    args = run.parse_args(["--workload", "mc-limit-law", "--seed", "7",
                           "--seconds", "25", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("mc-limit-law", 7, 25, 1)


@pytest.mark.parametrize("n", range(1, 25))
def test_moment_oracle_matches_library(n):
    m = exact.exact_moments(n)
    assert oracles.run_moments(n) == (m.mean, m.variance)


@pytest.mark.parametrize("n", range(1, 6))
def test_count_oracles_match_enumeration(n):
    maps = list(itertools.product(range(1, n + 1), repeat=n))
    by_runs = {}
    connected = 0
    for img in maps:
        k = len(oracles.run_starts(img))
        by_runs[k] = by_runs.get(k, 0) + 1
        connected += len(oracles.components(img)) == 1
    assert by_runs == oracles.mapping_counts(n)
    assert connected == oracles.connected_total(n)
    trees = exact.brute_force_tables(n)[0].values
    assert trees == oracles.tree_counts(n)


def test_graph_oracles_match_library():
    rng = np.random.Generator(np.random.PCG64(5))
    for n in (1, 2, 7, 60):
        for row in rng.integers(1, n + 1, size=(20, n)):
            img = tuple(int(x) for x in row)
            dec = cayley_runs.components(cayley_runs.make_mapping(img))
            assert frozenset(dec.components) == oracles.components(img)
            assert dec.cyclic == oracles.cyclic_nodes(img)


def _flip_last_digit(text: str) -> str:
    return text[:-2] + str((int(text[-2]) + 1) % 10) + text[-1]


def _fail_last_line(text: str) -> str:
    head, _, last = text.rstrip("\n").rpartition("\n")
    return f"{head}\n{last.replace('PASS', 'FAIL')}\n"


def test_checks_accept_right_and_reject_wrong_output():
    cases = [
        (wl.verify_report(4), ("verify-series", "--order", "5"), _fail_last_line),
        (wl.verify_report(18), ("verify-all", "--n-max", "3"), _fail_last_line),
        (wl.tree_series_check(7), ("series", "--which", "F", "--order", "7"), _flip_last_digit),
        (wl.connected_table_check(7), ("table", "--kind", "connected", "--n", "7"),
         _flip_last_digit),
        (wl.mapping_table_check(5), ("table", "--kind", "mapping", "--n", "5"),
         _flip_last_digit),
    ]
    for check, argv, corrupt in cases:
        code, text = wl.cli(*argv)()
        assert check((code, text)) == []
        assert check((code, corrupt(text))) != []
        assert check((code, text + text.splitlines()[0] + "\n")) != []
        assert check((1, text)) != []


def test_mc_check_compares_histograms_and_mean():
    mean, var = oracles.run_moments(wl.MC_N)
    out = wl.cli("mc", "--n", str(wl.MC_N), "--samples", "400", "--seed", "11")()
    hist = json.loads(out[1])["histogram"]
    assert wl._mc_check(400, 11, mean, var, hist)(out) == []
    wrong = dict(hist)
    first, second = sorted(wrong)[:2]
    wrong[first] -= 1
    wrong[second] += 1
    assert wl._mc_check(400, 11, mean, var, wrong)(out) != []
    assert wl._mc_check(400, 11, mean + 5, var)(out) != []
