"""The four benchmark workloads: inputs, timed tasks and output checks.

A workload is a fixed list of tasks run in order; one run of the list is
a pass.  Every task's output is checked against an oracle from
``oracles.py``, computed before timing starts.  Inputs that depend on
the benchmark seed are generated here and handed to the program as
ordinary arguments or input text.

Tasks look up ``cayley_runs`` functions through their module at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

import oracles

MC_N = 1000
MC_SAMPLES = 100_000
MC_TREE_SAMPLES = 2_000
MC_SE_LIMIT = 5.0  # pre-registered: a sample mean beyond 5 standard errors fails
MC_CHUNK_CELLS = 1 << 21  # sampler chunk size at the seed commit, for the RNG replay
BIJECTION_N = 1000
BIJECTION_MAPPINGS = 20  # about 5 s per pass, dominated by decode_partition


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    group: str | None = None  # "primary" or "secondary": feeds that rate metric


@dataclass
class Workload:
    tasks: list[Task]
    # group -> (items per pass, the task-specific name of that rate, shown as an alias)
    rates: dict[str, tuple[int, str]]
    # exact per-layer counts every traced pass must reproduce
    counts: dict[str, int] = field(default_factory=dict)
    # untraced replays for the traced run: name -> seconds
    replay: Callable[[], dict[str, float]] | None = None


class CliOutput(NamedTuple):
    code: int
    stdout: str


def _mod(layer: str):
    return importlib.import_module(f"cayley_runs.{layer}")


def cli(*argv: str) -> Callable[[], CliOutput]:
    """A task body that runs the CLI in process and returns its exit code and stdout."""
    def run() -> CliOutput:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _mod("cli").run_cli(list(argv))
        return CliOutput(code, buf.getvalue())
    return run


def _exit(out) -> list[str]:
    return [] if out[0] == 0 else [f"exit code {out[0]}"]


def verify_report(lines_expected: int) -> Callable[[object], list[str]]:
    """verify-* output: exit 0, every line a PASS, and the expected number of them."""
    def check(out) -> list[str]:
        lines = out[1].splitlines()
        problems = _exit(out)
        problems += [f"not a PASS line: {ln}" for ln in lines if not ln.startswith("PASS ")]
        if len(lines) != lines_expected:
            problems.append(f"{len(lines)} report lines, expected {lines_expected}")
        return problems
    return check


def _csv_rows(text: str) -> list[list[int]]:
    return [[int(x) for x in ln.split(",")] for ln in text.splitlines()]


def tree_series_check(order: int) -> Callable[[object], list[str]]:
    """n! [z^n v^m] F must equal (n-1)_(m-1) S(n, m) for every 1 <= m <= n <= order."""
    want = {(n, m): c for n in range(1, order + 1) for m, c in oracles.tree_counts(n).items()}

    def check(out) -> list[str]:
        rows = _csv_rows(out[1])
        got = {(n, m): Fraction(p, q) * math.factorial(n) for n, m, p, q in rows}
        ok = got == want and len(rows) == len(want)
        return _exit(out) + ([] if ok else ["tree series coefficients differ from tree counts"])
    return check


def connected_table_check(n: int) -> Callable[[object], list[str]]:
    """Row sum of the connected table must be the number of connected mappings."""
    def check(out) -> list[str]:
        rows = _csv_rows(out[1])
        problems = _exit(out)
        if any(r[0] != n for r in rows) or sum(r[2] for r in rows) != oracles.connected_total(n):
            problems.append(f"connected table does not sum to {oracles.connected_total(n)}")
        return problems
    return check


def mapping_table_check(n: int) -> Callable[[object], list[str]]:
    def check(out) -> list[str]:
        got = {m: c for nn, m, c in _csv_rows(out[1]) if nn == n}
        ok = got == oracles.mapping_counts(n) and len(out[1].splitlines()) == n
        return _exit(out) + ([] if ok else ["oracle table differs from (n)_m S(n, m)"])
    return check


def series_verify(seed: int) -> Workload:
    """Seed-independent: the series engine does essentially all the work."""
    del seed
    return Workload(
        tasks=[
            Task("verify-series", cli("verify-series", "--order", "14"), verify_report(4),
                 group="primary"),
            Task("series-F", cli("series", "--which", "F", "--order", "14"),
                 tree_series_check(14), group="secondary"),
            Task("table-connected", cli("table", "--kind", "connected", "--n", "12"),
                 connected_table_check(12), group="secondary"),
        ],
        rates={"primary": (1, "verify_series_per_s"),
               "secondary": (1, "series_and_table_per_s")},
        counts={"series.solver_calls": 10},
    )


def exhaustive_verify(seed: int) -> Workload:
    """Seed-independent: the brute-force oracle kernel beside per-call bijection overhead."""
    del seed
    n_oracle, n_max = 7, 6

    def replay() -> dict[str, float]:
        t0 = time.perf_counter()
        _mod("exact").brute_force_tables(n_oracle, workers=1)
        return {"brute_force_w1_s": time.perf_counter() - t0}

    return Workload(
        tasks=[
            Task("table-oracle",
                 cli("table", "--oracle", "--kind", "mapping", "--n", str(n_oracle),
                     "--workers", "2"),
                 mapping_table_check(n_oracle), group="primary"),
            Task("verify-all", cli("verify-all", "--n-max", str(n_max)),
                 verify_report(6 * n_max), group="secondary"),
        ],
        rates={"primary": (n_oracle ** n_oracle, "oracle_arrays_per_s"),
               "secondary": (sum(k ** k for k in range(1, n_max + 1)),
                             "verify_all_arrays_per_s")},
        counts={"exact.arrays_scanned": n_oracle ** n_oracle
                + sum(k ** k for k in range(1, n_max + 1))},
        replay=replay,
    )


def _mc_check(samples: int, seed: int, mean: Fraction, variance: Fraction,
              histogram: dict[str, int] | None = None) -> Callable[[object], list[str]]:
    limit = MC_SE_LIMIT * math.sqrt(variance / samples)

    def check(out) -> list[str]:
        problems = _exit(out)
        if problems:
            return problems
        rep = json.loads(out[1])
        hist = rep["histogram"]
        if (rep["n"], rep["samples"], rep["seed"]) != (MC_N, samples, seed):
            problems.append("report echoes the wrong n, samples or seed")
        if sum(hist.values()) != samples:
            problems.append("histogram does not sum to the sample count")
        if abs(rep["mean"] - float(mean)) > limit:
            problems.append(f"mean {rep['mean']} beyond {MC_SE_LIMIT} SE of {float(mean)}")
        if histogram is not None and hist != histogram:
            problems.append("tree histogram differs from the mapping histogram")
        return problems
    return check


def _asymptotics_check(out) -> list[str]:
    problems = _exit(out)
    if problems:
        return problems
    rep = json.loads(out[1])
    e = math.exp(-1.0)
    want = {"tau": (1.0, 1e-10), "rho": (e, 1e-10),
            "mu": (1.0 - e, 1e-5), "sigma2": (e - 2.0 * e * e, 1e-5)}
    return [f"{k}={rep[k]} not within {tol} of {x}" for k, (x, tol) in want.items()
            if abs(rep[k] - x) > tol]


def mc_limit_law(seed: int) -> Workload:
    """Seeded: vectorised mapping sampler, scalar tree sampler, constants, exact moments."""
    mc_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    mean, variance = oracles.run_moments(MC_N)
    # Run starts survive the bijection, so the tree sampler must reproduce
    # the mapping sampler's histogram for the same n, samples and seed.
    code, text = cli("mc", "--n", str(MC_N), "--samples", str(MC_TREE_SAMPLES),
                     "--seed", str(mc_seed))()
    if code != 0:
        raise RuntimeError(f"reference mapping sample exited with {code}")
    tree_hist = json.loads(text)["histogram"]

    def moments_check(out) -> list[str]:
        ok = (out.mean, out.variance) == (mean, variance)
        return [] if ok else ["exact_moments differs from the run-start indicator formula"]

    def replay() -> dict[str, float]:
        t0 = time.perf_counter()
        _mod("montecarlo").run_statistics(MC_N, MC_SAMPLES, mc_seed, workers=1)
        t1 = time.perf_counter() - t0
        rows = MC_CHUNK_CELLS // MC_N
        sizes = [rows] * (MC_SAMPLES // rows) + ([MC_SAMPLES % rows] if MC_SAMPLES % rows else [])
        t0 = time.perf_counter()
        for size, s in zip(sizes, np.random.SeedSequence(mc_seed).spawn(len(sizes))):
            np.random.Generator(np.random.PCG64(s)).integers(1, MC_N + 1, size=(size, MC_N))
        return {"run_statistics_w1_s": t1, "rng_s": time.perf_counter() - t0}

    return Workload(
        tasks=[
            Task("mc-mappings",
                 cli("mc", "--n", str(MC_N), "--samples", str(MC_SAMPLES),
                     "--seed", str(mc_seed), "--workers", "2"),
                 _mc_check(MC_SAMPLES, mc_seed, mean, variance), group="primary"),
            Task("mc-trees",
                 cli("mc", "--n", str(MC_N), "--samples", str(MC_TREE_SAMPLES),
                     "--seed", str(mc_seed), "--trees"),
                 _mc_check(MC_TREE_SAMPLES, mc_seed, mean, variance, tree_hist),
                 group="secondary"),
            Task("asymptotics", cli("asymptotics", "--constants"), _asymptotics_check),
            Task("exact-moments", lambda: _mod("exact").exact_moments(MC_N), moments_check),
        ],
        rates={"primary": (MC_SAMPLES, "mapping_samples_per_s"),
               "secondary": (MC_TREE_SAMPLES, "tree_samples_per_s")},
        counts={"montecarlo.cells": MC_N * (MC_SAMPLES + MC_TREE_SAMPLES)},
        replay=replay,
    )


def bijection_n1000(seed: int) -> Workload:
    """Seeded uniform mappings at n = 1000 through both bijections and back."""
    rng = np.random.Generator(np.random.PCG64(seed))
    images = [tuple(int(x) for x in row)
              for row in rng.integers(1, BIJECTION_N + 1, size=(BIJECTION_MAPPINGS, BIJECTION_N))]
    texts = [" ".join(map(str, img)) for img in images]
    starts = [oracles.run_starts(img) for img in images]
    comps = [oracles.components(img) for img in images]
    cyclic = [oracles.cyclic_nodes(img) for img in images]
    mappings = [_mod("core").make_mapping(img) for img in images]

    def tree_chain():
        core, runs, bij = _mod("core"), _mod("runs"), _mod("bijections")
        out = []
        for text in texts:
            m = core.load_mapping(text)
            dec = core.components(m)
            rs = runs.run_starts_mapping(m)
            mt = bij.mapping_to_tree(m)
            out.append((m, dec, rs, mt, bij.tree_to_mapping(mt)))
        return out

    def tree_check(out) -> list[str]:
        problems = []
        for k, (m, dec, rs, mt, back) in enumerate(out):
            if m.image != images[k]:
                problems.append(f"mapping {k}: parsed image differs from the input")
            if frozenset(dec.components) != comps[k] or dec.cyclic != cyclic[k]:
                problems.append(f"mapping {k}: components or cyclic nodes differ")
            if rs.starts != starts[k] or rs.count != len(starts[k]):
                problems.append(f"mapping {k}: run starts differ")
            if oracles.run_starts(mt.tree.parent) != starts[k]:
                problems.append(f"mapping {k}: tree run starts differ from the mapping's")
            if back != m:
                problems.append(f"mapping {k}: tree round trip does not return the input")
        return problems

    def partition_chain():
        bij = _mod("bijections")
        out = []
        for m in mappings:
            partition, links = bij.encode_partition(m)
            out.append((partition, bij.decode_partition(partition, links)))
        return out

    def partition_check(out) -> list[str]:
        problems = []
        for k, (partition, back) in enumerate(out):
            if back != mappings[k]:
                problems.append(f"mapping {k}: partition round trip does not return the input")
            if len(partition.blocks) != len(starts[k]):
                problems.append(f"mapping {k}: block count differs from the run count")
        return problems

    return Workload(
        tasks=[
            Task("tree-chain", tree_chain, tree_check, group="secondary"),
            Task("partition-chain", partition_chain, partition_check, group="primary"),
        ],
        rates={"primary": (BIJECTION_MAPPINGS, "partition_round_trips_per_s"),
               "secondary": (BIJECTION_MAPPINGS, "tree_round_trips_per_s")},
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "series-verify": series_verify,
    "exhaustive-verify": exhaustive_verify,
    "mc-limit-law": mc_limit_law,
    "bijection-n1000": bijection_n1000,
}
