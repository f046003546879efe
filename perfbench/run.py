"""Benchmark for cayley-runs: end-to-end timings, or a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the package is imported from ``src/`` next to
this directory.  One run builds the workload's inputs from ``--seed``,
then repeats passes over its task list for ``--seconds`` seconds (at
least three passes) and checks every task's output.  With ``--trace 0``
it reports the end-to-end metrics of ``BENCHMARK.json``: seconds per
pass, the workload's two task rates, peak RSS, and the set-up time of a
fresh interpreter, with times calibrated against a fixed kernel (see
``calibration_kernel``).  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  ``--workload all`` runs every
workload in its own process.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines above it are a readable table.  Full
results, with quartiles and the machine, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from spans import LAYERS, Recorder
from workloads import WORKLOADS, CliOutput, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import cayley_runs; "
              "from cayley_runs.cli import build_parser; "
              "from cayley_runs.config import load_config; "
              "load_config(None); build_parser()")
# Per-layer counts with values fixed in advance; each traced pass must reproduce them.
EXACT_COUNTS = ("series.solver_calls", "exact.arrays_scanned", "montecarlo.cells")
SOLVERS = ("series.tree_series", "series.auxiliary_series", "series.mapping_series",
           "series.connected_series")
# Reported times are calibrated: seconds x CALIBRATION_S / (time of the
# calibration kernel run next to them), i.e. seconds at the machine speed
# where the kernel takes CALIBRATION_S.  Raw seconds go to the record file.
CALIBRATION_S = 0.04
COMPUTED = ("montecarlo.rng_s", "montecarlo.count_s", "exact.scaling_eff",
            "montecarlo.scaling_eff", "trace.overhead_s")


class Tally:
    """Attempted and failed checks, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    # counts stay integers; they repeat exactly, so median_low is their median
    exact = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if exact else statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def calibration_kernel() -> float:
    """Seconds for fixed reference work that does not touch cayley_runs.

    Exact rational arithmetic, a pure-Python integer loop and numpy array
    passes, the three kinds of work the workloads do.  On a shared machine
    the speed drifts by tens of percent within minutes; timed next to a
    task, the kernel measures that speed at that moment.
    """
    gc_was_on = gc.isenabled()
    gc.disable()  # a collection of the program's heap would be charged to the kernel
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            acc, box = Fraction(0), {}
            for k in range(1, 800):
                acc += Fraction(1, k) * Fraction(k + 1, k + 2)
                box[k] = (acc.numerator % 97, [k] * 3)
            total = 0
            for i in range(200_000):
                total += i & 7
            cols = np.arange(1, 1001)
            for j in range(30):  # small chunks, so the kernel never sets the peak RSS
                draws = (np.arange(10_000).reshape(10, 1000) * (7919 + j)) % 1000 + 1
                np.bincount((draws > cols).sum(axis=1))
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


@dataclass
class PassResult:
    times: dict[str, float]  # raw seconds per task
    scale: dict[str, float]  # calibration factor per task (1.0 when not calibrated)
    outs: dict[str, object]
    roots: dict[str, int | None]  # root span of each task in a traced pass
    problems: dict[str, list[str]]

    def calibrated(self, names) -> float:
        return sum(self.times[n] * self.scale[n] for n in names)


def run_pass(wl: Workload, rec: Recorder | None = None, calibrate: bool = False) -> PassResult:
    """One pass over the task list, each task bracketed by the calibration kernel if asked."""
    res = PassResult({}, {}, {}, {}, {})
    before = calibration_kernel() if calibrate else None
    for task in wl.tasks:
        span = rec.span(f"task.{task.name}") if rec else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span as sid:
            try:
                out, err = task.run(), None
            except Exception as exc:  # a failing task is counted and the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
        res.times[task.name] = time.perf_counter() - t0
        if calibrate:
            after = calibration_kernel()
            res.scale[task.name] = CALIBRATION_S / ((before + after) / 2)
            before = after
        else:
            res.scale[task.name] = 1.0
        res.outs[task.name], res.roots[task.name] = out, sid
        if err is None:
            try:
                res.problems[task.name] = task.check(out)
            except Exception as exc:  # malformed output that the check cannot parse
                res.problems[task.name] = [f"unreadable output ({type(exc).__name__}: {exc})"]
        else:
            res.problems[task.name] = [err]
    return res


def end_to_end(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        res = run_pass(wl, calibrate=True)
        for name, p in res.problems.items():
            tally.record(name, p)
        res.outs.clear()  # checked already; kept, they would inflate the peak RSS
        passes.append(res)
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, cwd=ROOT)  # byte-compiles once; users do not pay that per run
    setup, setup_scale = [], []
    before = calibration_kernel()
    for _ in range(SETUP_RUNS):
        s0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        setup.append(time.perf_counter() - s0)
        after = calibration_kernel()
        setup_scale.append(CALIBRATION_S / ((before + after) / 2))
        before = after
    names = [t.name for t in wl.tasks]
    samples = {
        "setup_s": [t * k for t, k in zip(setup, setup_scale)],
        "wall_s": [p.calibrated(names) for p in passes],
        "peak_rss_mib": [kib / 1024],
    }
    for group, (items, _) in wl.rates.items():
        members = [t.name for t in wl.tasks if t.group == group]
        samples[f"{group}_per_s"] = [items / p.calibrated(members) for p in passes]
    raw = {
        "setup_s": setup,
        "wall_s": [sum(p.times.values()) for p in passes],
        "calibration_factor": [p.scale[n] for p in passes for n in names] + setup_scale,
        "tasks": {n: [p.times[n] for p in passes] for n in names},
    }
    return samples, raw


def layer_metrics(prof, roots: dict, outs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "config":
            m[f"{layer}.self_s"] = prof.self_total(prof.layer_ids(layer))
    for layer in ("core", "runs", "bijections"):
        m[f"{layer}.calls"] = len(prof.layer_ids(layer))
    m["cli.stdout_bytes"] = sum(len(o.stdout.encode()) for o in outs.values()
                                if isinstance(o, CliOutput))
    m["config.load_s"] = prof.total("config.load_config")
    for name in ("make_mapping", "make_tree", "components", "load_mapping"):
        m[f"core.{name}_us"] = prof.median_us(f"core.{name}")
    m["runs.run_starts_us"] = prof.median_us("runs.run_starts_mapping", "runs.run_starts_tree")
    for name in ("mapping_to_tree", "tree_to_mapping", "encode_partition",
                 "decode_partition", "forbidden_links"):
        m[f"bijections.{name}_us"] = prof.median_us(f"bijections.{name}")
    m["bijections.count_valid_pairs_s"] = prof.total("bijections.count_valid_pairs")
    m["series.tree_series_s"] = prof.total("series.tree_series")
    m["series.auxiliary_series_s"] = prof.total("series.auxiliary_series")
    m["series.check_s"] = prof.self_total(prof.ids(
        "series.pde_residual", "series.check_mapping_from_tree_derivative",
        "series.check_aux_tree_relation", "series.check_exp_connected_is_mapping"))
    root = roots.get("verify-series")
    m["series.solver_calls"] = 0 if root is None else len(prof.under(root, prof.ids(*SOLVERS)))
    bf = [(i, w) for i, w in prof.work.items() if prof.names[prof.name[i]].startswith("exact.")]
    mc = [(i, w) for i, w in prof.work.items() if prof.names[prof.name[i]].startswith("montecarlo.")]
    m["exact.brute_force_s"] = prof.total("exact.brute_force_tables")
    m["exact.arrays_scanned"] = sum(w for _, (w, _) in bf)
    m["exact.pool_wait_s"] = sum(prof.dur[i] for i, (_, k) in bf if k > 1)
    m["exact.moments_s"] = prof.total("exact.exact_moments")
    m["montecarlo.cells"] = sum(w for _, (w, _) in mc)
    m["montecarlo.pool_wait_s"] = sum(prof.dur[i] for i, (_, k) in mc if k > 1)
    m["montecarlo.normality_s"] = prof.total("montecarlo.normality_check")
    m["trace.spans"] = len(prof.name)
    return m


def per_layer(wl: Workload, seconds: float, tally: Tally, spans_path: Path):
    rec = Recorder()
    plain, traced, overhead, passes = [], [], [], []
    t0 = time.perf_counter()
    warm = True  # the first pass fills caches (Stirling rows, imports); only its checks count
    while warm or not passes or time.perf_counter() - t0 < seconds:
        untraced = run_pass(wl, calibrate=True)
        for name, p in untraced.problems.items():
            tally.record(name, p)
        if warm:
            warm = False
            continue
        lo = len(rec)
        with rec.instrument(), rec.span("pass"):
            res = run_pass(wl, rec, calibrate=True)
        for name, p in res.problems.items():
            if res.outs[name] != untraced.outs[name]:
                p = p + ["traced output differs from the untraced pass"]
            tally.record(f"traced {name}", p)
        plain.append(sum(untraced.times.values()))
        traced.append(sum(res.times.values()))
        overhead.append(res.calibrated(res.times) - untraced.calibrated(untraced.times))
        roots = {name: sid - lo for name, sid in res.roots.items()}
        passes.append(layer_metrics(rec.reduce(lo, len(rec)), roots, res.outs))
    rec.save(spans_path)

    samples = {k: [p[k] for p in passes] for k in passes[0]}
    for name in EXACT_COUNTS:
        want = wl.counts.get(name, 0)
        tally.record(f"count {name}", [] if set(samples[name]) == {want}
                     else [f"{samples[name]} per pass, expected {want}"])
    for name, values in samples.items():
        if name.endswith(("calls", "_bytes", "spans")) and len(set(values)) > 1:
            tally.record(f"count {name}", [f"differs between passes: {values}"])

    replay = wl.replay() if wl.replay else {}
    workers = {layer: max([k for sid, (_, k) in rec.work.items()
                           if rec.names[rec.name[sid]].startswith(f"{layer}.")], default=0)
               for layer in ("exact", "montecarlo")}
    pool = {layer: statistics.median(samples[f"{layer}.pool_wait_s"]) for layer in workers}

    def efficiency(layer: str, single: float | None) -> float:
        # single-worker replay time over (workers x pooled time): 1.0 is perfect scaling
        return single / (workers[layer] * pool[layer]) if single and pool[layer] else 0.0

    t1 = replay.get("run_statistics_w1_s")
    samples["exact.scaling_eff"] = [efficiency("exact", replay.get("brute_force_w1_s"))]
    samples["montecarlo.scaling_eff"] = [efficiency("montecarlo", t1)]
    samples["montecarlo.rng_s"] = [replay.get("rng_s", 0.0)]
    samples["montecarlo.count_s"] = [t1 - replay["rng_s"] if t1 else 0.0]
    # calibrated traced minus untraced time of adjacent passes; noise-bound at
    # a few pairs per run, and a negative value means it was not resolved
    samples["trace.overhead_s"] = overhead
    return samples, {"untraced_pass_s": plain, "traced_pass_s": traced, "replay_s": replay}


def run_one(args, spec: dict) -> int:
    wl = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        declared = spec["per_layer"]
        samples, detail = per_layer(wl, args.seconds, tally, OUT / f"{stem}_spans.npz")
    else:
        declared = spec["end_to_end"]
        samples, detail = end_to_end(wl, args.seconds, tally)
    units = {d["name"]: d["unit"] for d in declared}
    if set(samples) != set(units):
        raise RuntimeError(f"metrics {sorted(set(samples) ^ set(units))} "
                           "are not both measured and declared in BENCHMARK.json")
    stats = {name: {**quartiles(samples[name]), "unit": units[name]} for name in units}
    aliases = {f"{g}_per_s": label for g, (_, label) in wl.rates.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in stats.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "aliases": aliases,
              "computed": [c for c in COMPUTED if c in stats], "stats": stats,
              "detail": detail, "problems": tally.problems,
              **{k: result[k] for k in ("correct", "attempted", "failed")}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']}")
    print(f"# {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for name, s in stats.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"# {label:32} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['samples']:3d}  {s['unit']}")
    if not args.trace:
        print(f"# raw (uncalibrated) medians: wall_s {statistics.median(detail['wall_s']):.6g}, "
              f"setup_s {statistics.median(detail['setup_s']):.6g}; calibration factor "
              f"{statistics.median(detail['calibration_factor']):.4g}")
    print(f"# fail_rate = {tally.failed}/{tally.attempted}")
    for p in tally.problems:
        print(f"# FAIL {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS and set-up stay per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit code {proc.returncode})", file=sys.stderr)
            total["correct"] = False
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    # Benchmark runners call the command with --seconds <run_seconds>, so the
    # flag stays; without it, run_seconds from BENCHMARK.json applies.
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    package = SRC / "cayley_runs" / "__init__.py"
    if not spec_path.is_file() or not package.is_file():
        print(f"error: run from a cayley-runs checkout; {spec_path.name} or "
              "src/cayley_runs is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import cayley_runs
    if Path(cayley_runs.__file__).resolve().parent != package.parent:
        print(f"error: imported cayley_runs from {cayley_runs.__file__}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
