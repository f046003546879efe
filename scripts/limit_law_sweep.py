#!/usr/bin/env python3
"""Sweep the sample size n and watch the run-count law approach its limits.

For each n, prints mean/n and variance/n next to the limit slopes
1 - 1/e and 1/e - 2/e^2, the offsets scaled by n (which should settle
near the constant corrections), and the lattice-corrected KS distance
to the standard normal.
"""

import argparse
import math

from cayley_runs import clt_constants, normality_check, run_statistics
from cayley_runs.asymptotics import MEAN_SLOPE, VARIANCE_SLOPE
from cayley_runs.cli import AtLeastOne, AtLeastZero, add_workers
from cayley_runs.config import check_mc_bounds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", action=AtLeastOne,
                    default=[10, 30, 100, 300, 1000, 3000])
    ap.add_argument("--samples", type=int, default=100_000, action=AtLeastOne)
    ap.add_argument("--seed", type=int, default=1729, action=AtLeastZero)
    add_workers(ap)
    args = ap.parse_args()
    for n in args.sizes:  # mc's bounds, before anything is drawn
        try:
            check_mc_bounds(n, args.samples)
        except ValueError as exc:
            ap.error(str(exc))

    constants = clt_constants()
    print(f"limit slopes: mean {MEAN_SLOPE:.10f}, variance {VARIANCE_SLOPE:.10f}")
    print(f"limit offsets: mean V'(0)={constants.v_prime0:.6f}, "
          f"variance V''(0)={constants.v_doubleprime0:.6f}")
    header = f"{'n':>6} {'mean/n':>10} {'var/n':>10} {'n*(mean/n-mu)':>14} {'n*(var/n-s2)':>14} {'KS':>8}"
    print(header)
    for n in args.sizes:
        stats = run_statistics(n, args.samples, seed=args.seed, workers=args.workers)
        ks = normality_check(stats).ks_statistic if stats.variance > 0 else math.nan
        print(f"{n:>6} {stats.mean / n:>10.6f} {stats.variance / n:>10.6f} "
              f"{stats.mean - MEAN_SLOPE * n:>14.4f} "
              f"{stats.variance - VARIANCE_SLOPE * n:>14.4f} {ks:>8.4f}")


if __name__ == "__main__":
    main()
