"""Exact run counting: Stirling-number closed forms, moments, brute-force oracles.

Closed forms and moments are exact big-integer or rational arithmetic.  Stirling
numbers are built one row at a time; the moments are closed forms over the
run-start indicators, with the Stirling sum as their test oracle.  Brute-force
tallies classify every raw array by lookups in tables built once per suffix
(int64 holds n^n at every size the scan reaches) and are the ground truth the
closed forms are checked against.
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
# The suffix is the last 4 entries: each job tabulates its n^4 values, 2,401 at n = 7,
# and the prefixes before it are dealt to the jobs.
_FREE_ENTRIES = 4
_CHUNK_CELLS = 1 << 16  # cells classified at once: 128 KiB uint16 keys at n = 7 and 8
# Arrays one pooled job scans, so a scan of at most this many runs in this process.
# In-process on a 2-core x86-64 box (numpy 2.4), one worker against a pool of two:
# n = 7 (8.2e5 arrays) 6 ms against 22 ms, n = 8 (1.7e7) 0.10 s against 0.13 s, and
# n = 9 (3.9e8) 3.3-4.0 s against 1.9-2.1 s.  So a job holds 2^25 arrays, between the
# sizes of n = 8 and n = 9: n = 8 is one job, and n = 9 is twelve.
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


def _ascent_bits(images: np.ndarray) -> np.ndarray:
    """Per row, the set {f(i) : f(i) > i} over columns i = 1, 2, ..., as bit f(i) - 1."""
    nodes = np.arange(1, images.shape[1] + 1)
    bits = np.where(images > nodes, np.left_shift(1, images - 1), 0)
    return np.bitwise_or.reduce(bits, axis=1)


def _suffix_tables(n: int, p: int) -> tuple[np.ndarray, ...]:
    """Tabulate the n^(n-p) suffixes once, for arrays whose first p entries vary.

    One ``kernels.cycles`` walk over the suffix block, with the p prefix
    nodes held as fixed points, gives for each suffix r and node y the
    first prefix node on the path from y (0 when the path ends on a suffix
    cycle) and the number of cycles inside the suffix.  A cell's key, in
    base q = p + 2, is

        (min(inner cycles, 2) + 3 [the suffix has a fixed point]) q^p
        + sum_i code_i q^(p - 1 - i),

    where code_i is that first prefix node for y = y_i, except that a
    prefix fixed point y_i = i is coded p + 1.  A second walk, over every
    contracted map of {0, ..., p} (0 a sink) that the codes spell, counts
    the cycles through the prefix.

    Returns (codes, classes, ascents, runs).  codes[i, y - 1, r] is prefix
    entry i's share of the key when that entry is y and the suffix is r,
    and codes[0] also carries the suffix's share; classes[key] is
    (n + 1) (conn + tree); ascents[r] holds the suffix's ascent targets as
    bits; runs[b] is n minus the bits set in b.
    """
    s, q = n - p, p + 2
    block = np.empty((n ** s, n), dtype=np.intp)
    block[:, :p] = np.arange(1, p + 1)
    block[:, p:] = np.indices((n,) * s).reshape(s, n ** s).T + 1
    ends, cycles = kernels.cycles(block)
    suffix_fixed = (block[:, p:] == np.arange(p + 1, n + 1)).any(axis=1)
    suffix_share = (np.minimum(cycles - p, 2) + 3 * suffix_fixed) * q ** p

    key_type = np.min_scalar_type(6 * q ** p - 1)
    first_in_prefix = np.where(ends <= p, ends, 0).T
    codes = np.empty((p, n, n ** s), dtype=key_type)
    for i in range(p):
        codes[i] = first_in_prefix
        codes[i, i] = p + 1
        codes[i] *= q ** (p - 1 - i)
    codes[0] += suffix_share.astype(key_type)

    contracted_keys = np.indices((q,) * p).reshape(p, q ** p).T
    own = contracted_keys == p + 1
    contracted = np.ones((q ** p, p + 1), dtype=np.intp)
    contracted[:, 1:] = np.where(own, np.arange(2, p + 2), contracted_keys + 1)
    prefix_cycles = kernels.cycles(contracted)[1] - 1  # the sink's loop is not a cycle
    suffix_cycles = np.arange(3)[:, None]  # 0, 1, or at least 2
    conn = suffix_cycles + prefix_cycles == 1
    suffix_fixed_axis = np.array([False, True])[:, None, None]
    tree = conn & (suffix_fixed_axis | own.any(axis=1))
    # int first: bool + bool would be a logical or
    classes = ((n + 1) * (conn.astype(int) + tree)).astype(np.min_scalar_type(3 * n + 2))

    bits = np.arange(1 << n)
    set_bits = ((bits[:, None] >> np.arange(n)) & 1).sum(axis=1)
    mask_type = np.min_scalar_type((1 << n) - 1)
    return (codes, classes.reshape(-1), _ascent_bits(block).astype(mask_type),
            (n - set_bits).astype(classes.dtype))


def _classes(tables: tuple[np.ndarray, ...], prefixes: np.ndarray) -> np.ndarray:
    """Class runs + (n + 1) (conn + tree) of each (prefix row, suffix) cell.

    Row k holds the cells of prefix k, with the suffixes in the order of
    ``itertools.product``, so cell (k, r) is the array prefix k + suffix r.
    """
    codes, classes, ascents, runs = tables
    key = codes[0][prefixes[:, 0] - 1]
    for i in range(1, prefixes.shape[1]):
        key += codes[i][prefixes[:, i] - 1]
    out = np.take(classes, key)  # np.take gathers faster than fancy indexing
    prefix_ascents = _ascent_bits(prefixes).astype(ascents.dtype)
    out += np.take(runs, ascents | prefix_ascents[:, None])
    return out


def _tally_blocks(n: int, prefixes: list[tuple[int, ...]]) -> np.ndarray:
    """Run-count tallies (tree, mapping, connected) over every array with the given prefixes.

    Split f in [n]^n into its prefix P = (1, ..., p) and suffix S = (p + 1,
    ..., n).  Lemma: the cycles of f are the cycles inside S plus one for
    each cycle of the contracted map i -> c_i on P, where c_i is the first
    node of P on the path f(i), f(f(i)), ... and c_i = 0 when that path
    ends on a cycle inside S (0 is a sink).  A cycle of f either avoids P,
    and lies inside S, or meets P, and its P nodes in order form a cycle
    of the contraction; a contracted cycle comes from exactly one such
    cycle of f.  Every component of a functional graph holds one cycle, so
    f is connected exactly when it has one cycle; a connected f is the
    parent array of a rooted tree exactly when its cycle is a fixed point,
    that is, when P or S has one; and the run starts are the nodes that no
    ascent of P or S targets, the union of the two ascent sets.

    So each job tabulates the suffixes once (``_suffix_tables``) and then
    classifies the cells of ``_CHUNK_CELLS`` at a time by table lookups.
    Every array is still counted once and no formula is called.
    """
    p = len(prefixes[0])
    tables = _suffix_tables(n, p)
    rows = np.array(prefixes, dtype=np.intp)
    step = max(1, _CHUNK_CELLS // n ** (n - p))
    counts = np.zeros(3 * (n + 1), dtype=np.int64)
    for start in range(0, len(rows), step):
        cells = _classes(tables, rows[start:start + step])
        counts += np.bincount(cells.reshape(-1), minlength=3 * (n + 1))
    # rows: not connected, connected but not a tree, tree
    by_class = counts.reshape(3, n + 1)
    return np.stack([by_class[2], by_class.sum(axis=0), by_class[1] + by_class[2]])


def brute_force_tables(
    n: int,
    workers: int = 1,
    max_size: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> tuple[CountTable, CountTable, CountTable]:
    """Exhaustive (tree, mapping, connected-mapping) run tables for size n.

    Enumerates all n^n arrays, so the bound matters; raise it explicitly
    to go beyond the default.  Each array is a prefix of all but the last
    four entries followed by a suffix (2,401 suffixes at n = 7).  A scan
    makes ceil(n^n / ``_JOB_ARRAYS``) jobs, at most one per prefix, and
    ``kernels.pool_size`` starts at most that many processes, so every
    scan up to n = 8 runs in this process.  The prefixes are dealt
    round-robin into one job per process that starts, each job tabulates
    the suffixes once and classifies its arrays (``_tally_blocks``), and
    per-job tallies are merged by addition.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > max_size:
        raise SizeTooLargeError(f"n={n} exceeds exhaustive bound {max_size}")
    prefixes = list(itertools.product(range(1, n + 1), repeat=max(1, n - _FREE_ENTRIES)))
    workers = kernels.pool_size(workers, min(len(prefixes), -(-n ** n // _JOB_ARRAYS)))
    chunks = [(n, prefixes[w::workers]) for w in range(workers)]
    tallies = kernels.pooled_sum(_tally_blocks, chunks, workers)

    def table(row: np.ndarray) -> CountTable:
        return CountTable(n=n, values={m: int(row[m]) for m in range(1, n + 1) if row[m]})

    return table(tallies[0]), table(tallies[1]), table(tallies[2])
