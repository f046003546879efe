"""Exact run counting: Stirling-number closed forms, moments, brute-force oracles.

Closed forms and moments are exact big-integer or rational arithmetic.  Stirling
numbers are built one row at a time; the moments are closed forms over the
run-start indicators, with the Stirling sum as their test oracle.  Brute-force
tallies scan raw arrays through the numpy kernels (int64 holds n^n at every size
the scan reaches) and are the ground truth the closed forms are checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels

DEFAULT_EXHAUSTIVE_BOUND = 7
# A scan block varies the last 4 entries: n^4 rows, 2,401 at n = 7.  Blocks of n^5 rows
# scan slower: malloc tends to hand the 2 MiB pointer-doubling peak of `connected`
# back to the OS and fault it in again on every block.
_FREE_ENTRIES = 4


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


def falling_factorial(n: int, m: int) -> int:
    """n (n-1) ... (n-m+1); the empty product for m = 0."""
    if m < 0:
        raise ValueError("m must be non-negative")
    out = 1
    for k in range(m):
        out *= n - k
    return out


def tree_runs(n: int, m: int) -> int:
    """Number of size-n labelled rooted trees with exactly m ascending runs."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return falling_factorial(n - 1, m - 1) * stirling2(n, m)


def mapping_runs(n: int, m: int) -> int:
    """Number of size-n mappings with exactly m ascending runs; n times the tree count."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return falling_factorial(n, m) * stirling2(n, m)


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
    if n < 1:
        raise ValueError("n must be positive")
    return CountTable(n=n, values={m: tree_runs(n, m) for m in range(1, n + 1)})


def mapping_run_table(n: int) -> CountTable:
    if n < 1:
        raise ValueError("n must be positive")
    return CountTable(n=n, values={m: mapping_runs(n, m) for m in range(1, n + 1)})


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


def _tally_blocks(n: int, prefixes: list[tuple[int, ...]]) -> np.ndarray:
    """Run-count tallies (tree, mapping, connected) over the given prefix blocks.

    Each block holds every array in [n]^n that starts with its prefix, one
    array per row.  One pass serves all three tables: every array is a
    mapping; the connected ones with a fixed point are exactly the parent
    arrays of valid trees (a connected functional graph has one cycle, and
    a fixed-point cycle makes it a rooted tree), and the self-loop at the
    root never affects the run-start predicate.
    """
    p = len(prefixes[0])
    s = n - p
    block = np.empty((n ** s, n), dtype=np.intp)
    block[:, p:] = np.indices((n,) * s).reshape(s, n ** s).T + 1
    tallies = np.zeros((3, n + 1), dtype=np.int64)
    for prefix in prefixes:
        block[:, :p] = prefix
        runs = kernels.run_counts(block)
        conn = kernels.connected(block)
        tree = conn & kernels.has_fixed_point(block)
        tallies[0] += np.bincount(runs[tree], minlength=n + 1)
        tallies[1] += np.bincount(runs, minlength=n + 1)
        tallies[2] += np.bincount(runs[conn], minlength=n + 1)
    return tallies


def brute_force_tables(
    n: int,
    workers: int = 1,
    max_size: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> tuple[CountTable, CountTable, CountTable]:
    """Exhaustive (tree, mapping, connected-mapping) run tables for size n.

    Enumerates all n^n arrays, so the bound matters; raise it explicitly
    to go beyond the default.  The scan runs over blocks that fix all but
    the last four entries (2,401 arrays each at n = 7); with workers > 1
    the blocks are dealt round-robin into one job per process that starts
    (``kernels.pool_size``), and per-job tallies are merged by addition.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > max_size:
        raise SizeTooLargeError(f"n={n} exceeds exhaustive bound {max_size}")
    prefixes = list(itertools.product(range(1, n + 1), repeat=max(1, n - _FREE_ENTRIES)))
    workers = kernels.pool_size(workers, len(prefixes))
    chunks = [(n, prefixes[w::workers]) for w in range(workers)]
    tallies = kernels.pooled_sum(_tally_blocks, chunks, workers)

    def table(row: np.ndarray) -> CountTable:
        return CountTable(n=n, values={m: int(row[m]) for m in range(1, n + 1) if row[m]})

    return table(tallies[0]), table(tallies[1]), table(tallies[2])
