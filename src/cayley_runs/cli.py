"""Command-line entry point wiring all modules together.

Structured results go to stdout as JSON or CSV; diagnostics go to
stderr.  Exit codes: 0 success (and all checks passed for the verify
subcommands), 1 check failure, 2 usage errors.  numpy, ``kernels`` and
``montecarlo`` are imported only by ``mc`` and the ``verify-all``
helpers (``table --oracle`` loads them through ``exact``), so every
other command starts without numpy.  ``mc``, ``table --oracle`` and
``verify-all`` share the ``--workers`` flag and ``kernels.pooled_sum``;
their output does not depend on the worker count.

The argument parser is built once per process and reused by every
``run_cli`` call: ``parse_args`` makes a fresh namespace each time, the
count actions only set attributes on it, and no default is mutable, so
a call sees nothing of the calls before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import asymptotics, bijections, core, exact, runs, series
from .config import SERIES_BOUND, TABLE_BOUND, Config, check_mc_bounds, load_config


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class AtLeastOne(argparse.Action):
    """A count flag such as --workers, or a list of them: a value below ``least`` is a usage error."""

    least = 1

    def __call__(self, parser, namespace, values, option_string=None):
        for value in values if isinstance(values, list) else [values]:
            if value < self.least:
                raise argparse.ArgumentError(self, f"must be at least {self.least}, not {value}")
        setattr(namespace, self.dest, values)


class AtLeastZero(AtLeastOne):
    least = 0  # a seed flag: a negative value is a usage error


def add_workers(parser: argparse.ArgumentParser) -> None:
    """The --workers flag of every command and script: the CPU count unless given."""
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1, action=AtLeastOne,
                        help="worker processes, at most the CPUs (default: the CPU count, "
                             "%(default)s here); the results do not depend on it")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cayley-runs",
        description="Ascending runs in Cayley trees and mappings: "
                    "count, transform, verify, sample.",
    )
    p.add_argument("--config", help="JSON config file (flags override it)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("runs", help="run starts and count of a mapping or tree")
    q.add_argument("--input", required=True, help="mapping/tree file (text or JSON)")
    q.add_argument("--tree", action="store_true", help="treat input as a tree")

    q = sub.add_parser("phi", help="map a marked tree to its mapping")
    q.add_argument("--tree", required=True, help="tree file")
    q.add_argument("--mark", required=True, type=int, help="marked node")

    q = sub.add_parser("phi-inv", help="map a mapping back to its marked tree")
    q.add_argument("--mapping", required=True, help="mapping file")

    q = sub.add_parser("partition", help="run-partition encoding of a mapping")
    psub = q.add_subparsers(dest="direction", required=True)
    enc = psub.add_parser("encode")
    enc.add_argument("--mapping", required=True)
    dec = psub.add_parser("decode")
    dec.add_argument("--input", required=True,
                     help='JSON {"blocks": [[...], ...], "links": [...]}')

    q = sub.add_parser("table", help="run-count table as CSV n,m,count")
    q.add_argument("--kind", required=True, choices=["tree", "mapping", "connected"])
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--oracle", action="store_true",
                   help="force exhaustive enumeration instead of formulas")
    add_workers(q)
    q.add_argument("--max-size", type=int, default=None,
                   help="override the exhaustive bound")

    q = sub.add_parser("series", help="series coefficients as CSV n,m,numerator,denominator")
    q.add_argument("--which", required=True, choices=["H", "F", "R", "C"])
    q.add_argument("--order", type=int, default=None)

    q = sub.add_parser("verify-series", help="check the series identities exactly")
    q.add_argument("--order", type=int, default=None)

    q = sub.add_parser("asymptotics", help="singularity data and limit-law constants")
    q.add_argument("--v", type=float, default=1.0)
    q.add_argument("--constants", action="store_true",
                   help="also print the limit-law constants, which are at v = 1 whatever --v is")

    q = sub.add_parser("mc", help="Monte Carlo run statistics as JSON")
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--samples", required=True, type=int)
    q.add_argument("--seed", type=int, default=None, action=AtLeastZero)
    q.add_argument("--trees", action="store_true", help="sample trees instead of mappings")
    add_workers(q)

    q = sub.add_parser("verify-all", help="exhaustive small-size verification suite")
    q.add_argument("--n-max", type=int, default=6)
    add_workers(q)

    return p


def _cmd_runs(args, _cfg: Config) -> int:
    text = _read(args.input)
    if args.tree:
        profile = runs.run_starts_tree(core.load_tree(text))
    else:
        profile = runs.run_starts_mapping(core.load_mapping(text))
    print(json.dumps({"count": profile.count, "starts": sorted(profile.starts)}))
    return 0


def _cmd_phi(args, _cfg: Config) -> int:
    tree = core.load_tree(_read(args.tree))
    mapping = bijections.tree_to_mapping(bijections.MarkedTree(tree, args.mark))
    print(mapping.to_text())
    return 0


def _cmd_phi_inv(args, _cfg: Config) -> int:
    mapping = core.load_mapping(_read(args.mapping))
    mt = bijections.mapping_to_tree(mapping)
    print(json.dumps({"n": mt.tree.n, "parent": list(mt.tree.parent), "mark": mt.mark}))
    return 0


def _cmd_partition(args, _cfg: Config) -> int:
    if args.direction == "encode":
        mapping = core.load_mapping(_read(args.mapping))
        partition, links = bijections.encode_partition(mapping)
        print(json.dumps({
            "blocks": [sorted(b) for b in partition.blocks],
            "links": list(links),
        }))
    else:
        obj = json.loads(_read(args.input))
        if not isinstance(obj, dict) or not isinstance(obj.get("links"), list):
            raise ValueError('partition JSON needs an object with "blocks" and "links" lists')
        partition = bijections.make_partition(obj.get("blocks"))
        mapping = bijections.decode_partition(partition, tuple(obj["links"]))
        print(mapping.to_text())
    return 0


def _cmd_table(args, cfg: Config) -> int:
    n = args.n
    if n < 1:
        raise ValueError("n must be positive")
    # kind -> (oracle slot, table, bound name, bound); connected counts are one Lagrange row
    slot, closed_form, name, bound = {
        "tree": (0, exact.tree_run_table, "table", TABLE_BOUND),
        "mapping": (1, exact.mapping_run_table, "table", TABLE_BOUND),
        "connected": (2, series.connected_run_table, "series", SERIES_BOUND),
    }[args.kind]
    if args.oracle:
        name, bound = "exhaustive", (args.max_size if args.max_size is not None
                                     else cfg.exhaustive_bound)
    if n > bound:
        raise ValueError(f"n={n} exceeds {name} bound {bound}")
    table = (exact.brute_force_tables(n, workers=args.workers, max_size=bound)[slot]
             if args.oracle else closed_form(n))
    for m in sorted(table.values):
        print(f"{n},{m},{table.values[m]}")
    return 0


def _series_order(order: int | None, cfg: Config) -> int:
    """order, or the configured series_order when it is None; ValueError beyond SERIES_BOUND."""
    name = "order"
    if order is None:
        order, name = cfg.series_order, "series_order"
    if order > SERIES_BOUND:
        raise ValueError(f"{name}={order} exceeds series bound {SERIES_BOUND}")
    return order


def _cmd_series(args, cfg: Config) -> int:
    order = _series_order(args.order, cfg)
    solver = {
        "H": series.auxiliary_series,
        "F": series.tree_series,
        "R": series.mapping_series,
        "C": series.connected_series,
    }[args.which]
    fact = 1
    for n, row in enumerate(solver(order).egf):
        fact *= n or 1
        for m, x in enumerate(row):
            if x:
                g = math.gcd(x, fact)  # [z^n v^m] = x / n! in lowest terms, as Fraction prints it
                print(f"{n},{m},{x // g},{fact // g}")
    return 0


def _report(checks) -> int:
    """Print PASS or FAIL for each (name, passed) as it comes; 0 if all passed, else 1."""
    ok = True
    for name, passed in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return 0 if ok else 1


def _cmd_verify_series(args, cfg: Config) -> int:
    order = _series_order(args.order, cfg)
    return _report([
        ("pde-residual-zero", series.pde_residual(series.tree_series(order)).is_zero()),
        ("mapping-equals-1-plus-z-dF", series.check_mapping_from_tree_derivative(order)),
        ("aux-tree-relation", series.check_aux_tree_relation(order)),
        ("exp-connected-equals-mapping", series.check_exp_connected_is_mapping(order)),
    ])


def _cmd_asymptotics(args, _cfg: Config) -> int:
    data = asymptotics.singularity_data(args.v)
    out = {"v": args.v, "tau": round(data.tau, 12), "rho": round(data.rho, 12)}
    if args.constants:
        c = asymptotics.clt_constants()
        out.update({
            "mu": round(c.mu, 12),
            "sigma2": round(c.sigma2, 12),
            "v_prime0": round(c.v_prime0, 12),
            "v_doubleprime0": round(c.v_doubleprime0, 12),
        })
    print(json.dumps(out))
    return 0


def _cmd_mc(args, cfg: Config) -> int:
    check_mc_bounds(args.n, args.samples)  # before anything is drawn or laid out
    from . import montecarlo

    seed = args.seed if args.seed is not None else cfg.rng_seed
    stats = montecarlo.run_statistics(
        args.n, args.samples, seed, workers=args.workers, use_trees=args.trees)
    report = {
        "n": stats.n,
        "samples": stats.samples,
        "seed": seed,
        "mean": stats.mean,
        "variance": stats.variance,
        "mean_over_n": stats.mean / stats.n,
        "variance_over_n": stats.variance / stats.n,
        "histogram": {str(k): v for k, v in sorted(stats.histogram.items())},
        "note": "tolerances around the limit constants are pre-registered "
                "engineering choices; no finite-n correction is available",
    }
    if stats.variance > 0.0:
        report["ks_statistic"] = montecarlo.normality_check(stats).ks_statistic
    print(json.dumps(report))
    return 0


def _cmd_verify_all(args, cfg: Config) -> int:
    return _report(_exhaustive_checks(args.n_max, cfg.exhaustive_bound, args.workers))


_VERIFY_CELLS = 1 << 14  # cells per verify-all block: its checks peak under 1 MiB


def _verify_step(n: int) -> int:
    """Rows in one verify-all block: at most _VERIFY_CELLS cells, and at least one row."""
    return max(1, _VERIFY_CELLS // n)


def _array_blocks(n: int, lo: int = 0, hi: int | None = None):
    """Arrays lo, ..., hi - 1 of [n]^n in ``itertools.product`` order (hi = n^n when None).

    A block holds ``_verify_step(n)`` rows, the last one fewer, so a range
    that starts on a block boundary yields the blocks a whole scan does.
    """
    import numpy as np

    step, hi = _verify_step(n), n ** n if hi is None else hi
    place = n ** np.arange(n - 1, -1, -1)
    for start in range(lo, hi, step):
        rows = np.arange(start, min(start + step, hi))[:, None]
        yield (rows // place % n + 1).astype(np.min_scalar_type(n))


def _labels(mask) -> frozenset[int]:
    import numpy as np

    return frozenset((np.flatnonzero(mask) + 1).tolist())


def _check_block(images) -> tuple[bool, bool, bool]:
    """(tree round trip, run preservation, partition round trip) hold on every row.

    The round trips must give valid trees (one cycle, a fixed point) and
    valid pairs back.  Each link shifted by one gives a second pair per
    row, which the decoder must accept exactly when it re-encodes to
    itself; both link arrays are decoded through one set of partition
    tables.  Row 0 also goes through the scalar functions behind
    ``phi-inv``, ``phi``, ``runs`` and ``partition encode`` and
    ``decode``, which must agree with the kernels and map it back to
    itself.  The blocks of one n are the same for any worker count, so the
    same rows take the scalar path.
    """
    import numpy as np

    from . import kernels

    n = images.shape[1]
    parents, marks = kernels.mapping_to_tree(images)
    # with one cycle, a row with a fixed point has one root
    rooted = kernels.any_per_row(parents == np.arange(1, n + 1, dtype=parents.dtype))
    round_trip = ((kernels.cycles(parents)[1] == 1) & rooted).all() and np.array_equal(
        kernels.tree_to_mapping(parents, marks), images)
    starts = kernels.run_starts(images)
    same_runs = np.array_equal(kernels.run_starts(parents), starts)
    blocks, links = kernels.encode_partition(images)
    tables = kernels.partition_tables(blocks)
    back, valid = kernels.decode_links(tables, links)
    partition = valid.all() and np.array_equal(back, images)
    shifted = links + (links > 0)  # each link moved on by one, n round to 1
    shifted[shifted > n] = 1
    back, valid = kernels.decode_links(tables, shifted)
    again, again_links = kernels.encode_partition(back)
    moved = kernels.any_per_row((again != blocks) | (again_links != shifted))
    partition &= np.array_equal(valid, ~moved)

    m = core.make_mapping(images[0].tolist())
    mt = bijections.mapping_to_tree(m)
    round_trip &= ((mt.tree.parent, mt.mark) == (tuple(parents[0].tolist()), marks[0])
                   and bijections.tree_to_mapping(mt) == m)
    same_runs &= (runs.run_starts_mapping(m).starts == runs.run_starts_tree(mt.tree).starts
                  == _labels(starts[0]))
    scalar_partition, scalar_links = bijections.encode_partition(m)
    partition &= (scalar_links == tuple(links[0, :len(scalar_links)].tolist())
                  and list(scalar_partition.blocks)
                  == [_labels(blocks[0] == b) for b in range(len(scalar_links))]
                  and bijections.decode_partition(scalar_partition, scalar_links) == m)
    return bool(round_trip), bool(same_runs), bool(partition)


def _check_range(n: int, lo: int, hi: int):
    """Blocks of arrays [lo, hi) of [n]^n that fail each ``_check_block`` check, as an int array.

    A pool job: it builds its own arrays from the range, so only three
    integers come back, and ``kernels.pooled_sum`` adds the jobs' counts.
    """
    import numpy as np

    failed = np.zeros(3, dtype=np.int64)
    for images in _array_blocks(n, lo, hi):
        failed += np.logical_not(_check_block(images))
    return failed


def _exhaustive_checks(n_max: int, bound: int, workers: int = 1):
    """(name, passed) for each exhaustive check, yielded as it finishes; n_max is checked first.

    The bijection checks for each n cut its ``_array_blocks`` into one
    contiguous run of whole blocks per process (``kernels.block_runs``, as
    for a ``mc --trees`` chunk), so every block and its scalar row 0 are
    those of a one-process scan.  A check passes when no job counts a
    failed block.  Up to n = 5 one block holds every array, so no pool
    starts; the oracle tables and pair counts run in this process.
    """
    if n_max < 1:
        raise ValueError(f"n-max={n_max} must be positive")
    if n_max > bound:
        raise exact.SizeTooLargeError(f"n-max={n_max} exceeds exhaustive bound {bound}")
    from . import kernels

    for n in range(1, n_max + 1):
        jobs = [(n, lo, hi) for lo, hi in kernels.block_runs(n ** n, _verify_step(n), workers)]
        good = (kernels.pooled_sum(_check_range, jobs, workers) == 0).tolist()
        yield f"bijection-round-trip n={n}", good[0]
        yield f"run-preservation n={n}", good[1]
        yield f"partition-round-trip n={n}", good[2]
        tree_t, map_t, _ = exact.brute_force_tables(n, max_size=bound)
        yield (f"tree-table-matches-formula n={n}",
               tree_t.values == exact.tree_run_table(n).values)
        yield (f"mapping-table-matches-formula n={n}",
               map_t.values == exact.mapping_run_table(n).values)
        yield (f"valid-pairs-match-mapping-counts n={n}",
               all(bijections.count_valid_pairs(n, m_, max_size=bound)
                   == exact.mapping_runs(n, m_) for m_ in range(1, n + 1)))


_COMMANDS = {
    "runs": _cmd_runs,
    "phi": _cmd_phi,
    "phi-inv": _cmd_phi_inv,
    "partition": _cmd_partition,
    "table": _cmd_table,
    "series": _cmd_series,
    "verify-series": _cmd_verify_series,
    "asymptotics": _cmd_asymptotics,
    "mc": _cmd_mc,
    "verify-all": _cmd_verify_all,
}


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (ValueError, ArithmeticError, OSError, KeyError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
