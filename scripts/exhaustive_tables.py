#!/usr/bin/env python3
"""Print run-count tables from brute force next to the Stirling closed forms.

Each size's tree, mapping and connected tables are checked against their
closed forms (the connected one against `table --kind connected`'s
Lagrange row); the first size where one differs is named on stderr, and
the script exits 1 without printing the final line.

The exhaustive scan enumerates all n^n arrays.  n = 8 is about 1.7e7
arrays: `--n-max 8 --workers 2`, which raises the bound to its n-max,
takes about 0.29-0.35 s as a process on a 2-core x86-64 box (numpy 2.4;
median 0.30 s over seven runs), and the script's own timer puts n = 8
itself at about 0.05-0.06 s; its n = 1 line also counts loading numpy,
which the first scan does.  Most of the rest is start-up (a process that
only imports numpy took 0.17-0.19 s there), as in
`cayley-runs table --kind tree --n 8 --oracle --max-size 8 --workers 2`,
which takes about 0.27-0.41 s as a process.  Every size up to 8 is scanned in
this process whatever `--workers` says, because a scan that short ends
before a pool would start; `--n-max 9` is the first that uses a pool.
"""

import argparse
import sys
import time

from cayley_runs import (brute_force_tables, connected_run_table, mapping_run_table,
                         tree_run_table)
from cayley_runs.cli import AtLeastOne, add_workers


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=7, action=AtLeastOne)
    add_workers(ap)
    args = ap.parse_args()

    for n in range(1, args.n_max + 1):
        t0 = time.time()
        tree_t, map_t, conn_t = brute_force_tables(
            n, workers=args.workers, max_size=args.n_max)
        elapsed = time.time() - t0
        print(f"n={n}  ({elapsed:.2f}s, {n ** n} arrays)")
        print(f"  {'m':>3} {'trees':>14} {'formula':>14} "
              f"{'mappings':>16} {'formula':>16} {'connected':>14}")
        tree_f, map_f = tree_run_table(n).values, mapping_run_table(n).values
        for m in range(1, n + 1):
            print(f"  {m:>3} {tree_t.values.get(m, 0):>14} {tree_f[m]:>14} "
                  f"{map_t.values.get(m, 0):>16} {map_f[m]:>16} "
                  f"{conn_t.values.get(m, 0):>14}")
        wrong = [kind for kind, got, want in (
            ("tree", tree_t, tree_f), ("mapping", map_t, map_f),
            ("connected", conn_t, connected_run_table(n).values)) if got.values != want]
        if wrong:
            sys.exit(f"n={n}: the brute-force {' and '.join(wrong)} "
                     "table does not match its closed form")
    print("all brute-force tables match the closed forms")


if __name__ == "__main__":
    main()
