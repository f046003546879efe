"""Reference values the benchmark checks program outputs against.

Everything here is derived independently of ``cayley_runs``: counts from
the Stirling recurrence, moments from the run-start indicator
decomposition, and run starts, components and cyclic nodes from direct
array computations.  None of it imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def stirling2_row(n: int) -> list[int]:
    """[S(n, 0), ..., S(n, n)] by the recurrence S(k, j) = j S(k-1, j) + S(k-1, j-1)."""
    row = [1]
    for k in range(1, n + 1):
        row = [0] + [j * (row[j] if j < k else 0) + row[j - 1] for j in range(1, k + 1)]
    return row


def falling(n: int, m: int) -> int:
    return math.perm(n, m)


def tree_counts(n: int) -> dict[int, int]:
    """Size-n rooted labelled trees by number of ascending runs: (n-1)_(m-1) S(n, m)."""
    s = stirling2_row(n)
    return {m: falling(n - 1, m - 1) * s[m] for m in range(1, n + 1)}


def mapping_counts(n: int) -> dict[int, int]:
    """Size-n mappings by number of ascending runs: (n)_m S(n, m)."""
    s = stirling2_row(n)
    return {m: falling(n, m) * s[m] for m in range(1, n + 1)}


def connected_total(n: int) -> int:
    """Connected mappings on [n]: sum_k (n-1)!/(n-k)! n^(n-k), k = cycle length."""
    return sum(falling(n - 1, k - 1) * n ** (n - k) for k in range(1, n + 1))


def run_moments(n: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the run count of a uniform mapping on [n].

    Node j starts a run iff every i < j avoids j, with probability
    (1 - 1/n)^(j-1); nodes j < k both start runs with probability
    (1 - 2/n)^(j-1) (1 - 1/n)^(k-j).  Summing the inner geometric series
    in closed form leaves O(n) big-integer terms over the denominator
    n^(n-1).
    """
    a, b = n - 2, n - 1
    mean = Fraction(n ** n - b ** n, n ** (n - 1))
    pairs = sum(a ** (j - 1) * b * (n ** (n - j) - b ** (n - j)) for j in range(1, n + 1))
    second = mean + 2 * Fraction(pairs, n ** (n - 1))
    return mean, second - mean * mean


def run_starts(image) -> frozenset[int]:
    """Nodes j (1-based) with no i < j such that image[i-1] = j."""
    img = np.asarray(image, dtype=np.int64)
    n = img.size
    blocked = np.zeros(n + 1, dtype=bool)
    i = np.arange(1, n + 1)
    blocked[img[i < img]] = True
    return frozenset(int(j) for j in np.nonzero(~blocked[1:])[0] + 1)


def components(image) -> frozenset[frozenset[int]]:
    """Weakly connected components of the functional graph i -> image[i-1]."""
    n = len(image)
    root = list(range(n + 1))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for i, j in enumerate(image, start=1):
        ri, rj = find(i), find(j)
        if ri != rj:
            root[max(ri, rj)] = min(ri, rj)
    groups: dict[int, set[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    return frozenset(frozenset(g) for g in groups.values())


def cyclic_nodes(image) -> frozenset[int]:
    """Nodes on a cycle: the image of f^(2^k) for 2^k >= n, by repeated squaring."""
    f = np.asarray(image, dtype=np.int64) - 1
    steps = 1
    while steps < f.size:
        f = f[f]
        steps *= 2
    return frozenset(int(x) + 1 for x in np.unique(f))
