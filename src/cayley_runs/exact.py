"""Exact run counting: Stirling-number closed forms, moments, brute-force oracles.

Closed forms and moments are exact big-integer or rational arithmetic.  Stirling
numbers are built one row at a time; the moments are closed forms over the
run-start indicators, with the Stirling sum as their test oracle.  Brute-force
tallies are the ground truth the closed forms are checked against: the array
engine in ``kernels`` classifies every raw array by lookups in tables built
once per suffix (int64 holds n^n at every size the scan reaches).  This module
imports no numpy; ``brute_force_tables`` loads ``kernels`` on its first call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_EXHAUSTIVE_BOUND = 7
# Arrays in one block of whole prefixes, the unit the pool deals out, so a scan of at
# most this many runs in this process.
# In-process on a 2-core x86-64 box (numpy 2.4), one worker against a pool of two:
# n = 7 (8.2e5 arrays) 5-8 ms against 14-27 ms, n = 8 (1.7e7) 0.08-0.12 s against
# 0.06-0.10 s, and n = 9 (3.9e8) 2.7-2.9 s against 1.6 s.  A block holds 2^25 arrays,
# between the sizes of n = 8 and n = 9: n = 8 is one block, and n = 9 is twelve.  As a
# process, `table --kind tree --n 8 --oracle --max-size 8 --workers 2` took a median
# 0.219-0.222 s at 2^25 against 0.209-0.214 s at 2^23 (two jobs), 12 alternating runs
# twice: 1.04-1.05x, too little to pay for a pool start on every n = 8 scan.
_JOB_ARRAYS = 1 << 25


class SizeTooLargeError(ValueError):
    """Requested size exceeds the configured exhaustive-enumeration bound."""


@dataclass(frozen=True)
class CountTable:
    """Counts by number of runs: values[m] objects of size n with m runs."""

    n: int
    values: dict[int, int]

    def total(self) -> int:
        return sum(self.values.values())


@dataclass(frozen=True)
class ExactMoments:
    mean: Fraction
    variance: Fraction


@functools.lru_cache(maxsize=1)
def _stirling_row(n: int) -> tuple[int, ...]:
    """(S(n, 0), ..., S(n, n)) by S(k, j) = j S(k-1, j) + S(k-1, j-1), one row kept."""
    row = [1]
    for k in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k)] + [1]
    return tuple(row)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into m blocks."""
    if m < 0 or n < 0 or m > n:
        return 0
    return _stirling_row(n)[m]


def tree_runs(n: int, m: int) -> int:
    """Number of size-n labelled rooted trees with exactly m ascending runs."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return math.perm(n - 1, m - 1) * stirling2(n, m)


def mapping_runs(n: int, m: int) -> int:
    """Number of size-n mappings with exactly m ascending runs; n times the tree count."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return math.perm(n, m) * stirling2(n, m)


def tree_runs_alternating(n: int, m: int) -> int:
    """Tree count via the alternating sum C(n-1, m-1) sum_l (l+1)^(n-1) (-1)^(m-1-l) C(m-1, l)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    acc = 0
    for ell in range(m):
        term = (ell + 1) ** (n - 1) * math.comb(m - 1, ell)
        acc += term if (m - 1 - ell) % 2 == 0 else -term
    return math.comb(n - 1, m - 1) * acc


def tree_run_table(n: int) -> CountTable:
    """The mapping table over n: the tree bijection takes each (tree, mark) to one mapping, runs kept."""
    values = mapping_run_table(n).values
    return CountTable(n=n, values={m: c // n for m, c in values.items()})


def mapping_run_table(n: int) -> CountTable:
    """n (n-1) ... (n-m+1) S(n, m) for m = 1..n, the falling product kept as m grows."""
    if n < 1:
        raise ValueError("n must be positive")
    row, fall, values = _stirling_row(n), 1, {}
    for m in range(1, n + 1):
        fall *= n - m + 1
        values[m] = fall * row[m]
    return CountTable(n=n, values=values)


def exact_moments(n: int) -> ExactMoments:
    """Mean and variance of the run count under the uniform mapping distribution.

    Node j starts a run w.p. (b/n)^(j-1), b = n - 1, and j < k both do w.p.
    (a/n)^(j-1) (b/n)^(k-j), a = n - 2.  The geometric sums give, over
    d = n^(n-1), d E[X] = n^n - b^n and d E[X(X-1)] = b (n^n - 2 b^n + a^n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    a, b, d = n - 2, n - 1, n ** (n - 1)
    s1 = n * d - b ** n
    s2 = s1 + b * (n * d - 2 * b ** n + a ** n)  # d E[X^2]
    return ExactMoments(mean=Fraction(s1, d), variance=Fraction(s2 * d - s1 * s1, d * d))


def brute_force_tables(
    n: int,
    workers: int = 1,
    max_size: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> tuple[CountTable, CountTable, CountTable]:
    """Exhaustive (tree, mapping, connected-mapping) run tables for size n.

    Enumerates all n^n arrays, so the bound matters; raise it explicitly
    to go beyond the default.  Each array is a prefix of all but the last
    four entries followed by a suffix (2,401 suffixes at n = 7).  The
    prefixes, in ``itertools.product`` order, are cut into blocks of at
    most ``_JOB_ARRAYS`` arrays but at least one prefix, and
    ``kernels.block_runs`` deals the blocks as one contiguous prefix range
    per process that starts, as ``verify-all`` deals its array blocks; so
    every scan up to n = 8 is one block and runs in this process.  Each
    job tabulates the suffixes once and classifies the arrays of its range
    (``kernels._tally_blocks``), and per-job tallies are merged by addition.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > max_size:
        raise SizeTooLargeError(f"n={n} exceeds exhaustive bound {max_size}")
    from . import kernels  # numpy loads here, not with the closed forms

    p = max(1, n - kernels._FREE_ENTRIES)
    runs = kernels.block_runs(n ** p, max(1, _JOB_ARRAYS // n ** (n - p)), workers)
    jobs = [(n, p, lo, hi) for lo, hi in runs]
    tallies = kernels.pooled_sum(kernels._tally_blocks, jobs, workers)

    def table(row) -> CountTable:
        return CountTable(n=n, values={m: int(row[m]) for m in range(1, n + 1) if row[m]})

    return table(tallies[0]), table(tallies[1]), table(tallies[2])
