"""Batched functional-graph kernels over (rows, n) arrays of 1-based images.

Row r of ``images`` is one mapping [n] -> [n] (or one parent array, the
root self-parented).  Each kernel answers one question for every row at
once, in numpy, and is cross-checked in the tests against the scalar
per-value functions in ``core`` and ``runs``.  Entries must lie in
[1, n]: callers generate them, and the kernels do not check them.
``pooled_sum`` spreads such batched work over worker processes.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np


def pooled_sum(func, jobs: list[tuple], workers: int):
    """sum(func(*job) for job in jobs), on at most min(workers, len(jobs), CPUs) processes.

    A pool uses the platform's default start method, so ``func`` must be
    a module-level function that any start method can pickle.
    """
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes <= 1:
        return sum(func(*job) for job in jobs)
    with multiprocessing.Pool(processes) as pool:
        return sum(pool.starmap(func, jobs))


def run_counts(images: np.ndarray) -> np.ndarray:
    """Run count of each row: n minus the nodes j that some column i < j maps to."""
    rows, n = images.shape
    blocked = np.zeros((rows, n + 1), dtype=bool)  # column 0 collects the non-ascents
    ascents = np.where(images > np.arange(1, n + 1), images, 0)
    np.put_along_axis(blocked, ascents, True, axis=1)
    return n - np.count_nonzero(blocked[:, 1:], axis=1)


def has_fixed_point(images: np.ndarray) -> np.ndarray:
    """Whether each row has some i with f(i) = i."""
    return (images == np.arange(1, images.shape[1] + 1)).any(axis=1)


def connected(images: np.ndarray) -> np.ndarray:
    """Whether each row's functional graph is weakly connected, by pointer doubling.

    After k = ceil(log2 n) squarings g = f^(2^k) and mn[i] is the
    smallest label among the first 2^k iterates of i.  Since 2^k >= n,
    g[i] lies on the cycle of i's component and mn[g[i]] is that cycle's
    smallest label; a functional graph has one cycle per component, so a
    row is connected exactly when mn[g[i]] is the same for every i.
    Indices are flat offsets into the (rows, n) block, which lets
    ``np.take`` gather without per-axis fancy indexing.
    """
    rows, n = images.shape
    g = images + (np.arange(rows) * n - 1)[:, None]
    # labels in the narrowest dtype: gathering bytes instead of int64 halves the cost
    mn = np.broadcast_to(np.arange(n, dtype=np.min_scalar_type(n - 1)), (rows, n))
    for _ in range((n - 1).bit_length()):
        mn = np.minimum(mn, np.take(mn, g, mode="clip"))
        g = np.take(g, g, mode="clip")
    cycle_min = np.take(mn, g, mode="clip")
    return (cycle_min == cycle_min[:, :1]).all(axis=1)
