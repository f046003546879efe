"""Batched functional-graph kernels over (rows, n) arrays of 1-based images.

Row r of ``images`` is one mapping [n] -> [n] (or one parent array, the
root self-parented).  Each kernel answers one question for every row at
once, in numpy, and is cross-checked in the tests against the scalar
per-value functions in ``core`` and ``runs``.  Entries must lie in
[1, n]: callers generate them, and the kernels do not check them.
``cycles`` is the one pointer-doubling walk: the brute-force oracle in
``exact`` builds its suffix and contracted-prefix tables with it.
``run_counts`` scatters in row blocks of at most ``_BLOCK_CELLS`` cells, so
its temporaries stay in cache and its memory does not grow with the rows.
``pooled_sum`` spreads such batched work over worker processes, and
``pool_size`` says how many it starts.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np

_BLOCK_CELLS = 1 << 16  # cells per run_counts scatter block: its index array is 512 KiB


def pool_size(workers: int, jobs: int) -> int:
    """Processes a pool of ``workers`` starts for ``jobs`` jobs: at most the jobs and the CPUs."""
    return max(1, min(workers, jobs, os.cpu_count() or 1))


def pooled_sum(func, jobs: list[tuple], workers: int):
    """sum(func(*job) for job in jobs), on ``pool_size(workers, len(jobs))`` processes.

    A pool uses the platform's default start method, so ``func`` must be
    a module-level function that any start method can pickle.
    """
    processes = pool_size(workers, len(jobs))
    if processes == 1:
        return sum(func(*job) for job in jobs)
    with multiprocessing.Pool(processes) as pool:
        return sum(pool.starmap(func, jobs))


def run_counts(images: np.ndarray) -> np.ndarray:
    """Run count of each row: n minus the nodes j that some column i < j maps to.

    One flat scatter per block of rows: cell (r, i) of a block with image
    j > i marks flat index r (n + 1) + j of a zeroed bool array of shape
    (block rows, n + 1), and every non-ascent marks flat index 0, which
    is row 0's column 0 and is discarded with the rest of column 0.  A
    block holds at most ``_BLOCK_CELLS`` cells (one row when n exceeds
    it), so the int64 index array and the bool array stay in cache
    however many rows come in.  The block size is a constant, not an
    option: it changes the speed, never the result.
    """
    rows, n = images.shape
    step = max(1, min(rows, _BLOCK_CELLS // max(n, 1)))
    ascent_floor = np.arange(1, n + 1)
    offsets = np.arange(0, step * (n + 1), n + 1)[:, None]
    counts = np.empty(rows, dtype=np.intp)
    for start in range(0, rows, step):
        block = images[start:start + step]
        k = len(block)
        idx = block + offsets[:k]
        np.multiply(idx, block > ascent_floor, out=idx)
        blocked = np.zeros(k * (n + 1), dtype=bool)
        blocked[idx] = True
        del idx  # freed before the next block builds its own
        counts[start:start + k] = n - np.count_nonzero(blocked.reshape(k, n + 1)[:, 1:], axis=1)
    return counts


def cycles(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each node's path ends, and each row's number of cycles, by pointer doubling.

    After k = ceil(log2 n) squarings g = f^(2^k) and mn[i] is the smallest
    label among the first 2^k iterates of i.  Since 2^k >= n, g[i] lies on
    the cycle that the path from i reaches, and mn[g[i]] is that cycle's
    smallest label; so a row has as many cycles as nodes i with
    mn[g[i]] = i.  Returns g as 1-based labels, shaped like ``images``,
    and the cycle counts.  Indices are flat offsets into the (rows, n)
    block, which lets ``np.take`` gather without per-axis fancy indexing.
    """
    rows, n = images.shape
    offsets = (np.arange(rows) * n - 1)[:, None]
    g = images + offsets
    # labels in the narrowest dtype: gathering bytes instead of int64 halves the cost
    labels = np.arange(n, dtype=np.min_scalar_type(n - 1))
    mn = np.broadcast_to(labels, (rows, n))
    for _ in range((n - 1).bit_length()):
        mn = np.minimum(mn, np.take(mn, g, mode="clip"))
        g = np.take(g, g, mode="clip")
    cycle_min = np.take(mn, g, mode="clip")
    return g - offsets, np.count_nonzero(cycle_min == labels, axis=1)
