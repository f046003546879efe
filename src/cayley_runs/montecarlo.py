"""Uniform random mappings and trees, and run-count statistics for the limit law.

Sampling uses numpy's PCG64 generator seeded through SeedSequence.  Work
is laid out in fixed-size chunks whose per-chunk streams are spawned
from the root seed, so a run is bit-identical for any worker count:
histograms are integer tallies merged by addition, and the moments are
derived from exact integer sums over the merged histogram.

A chunk is drawn and counted one block of ``kernels.block_rows`` rows
at a time, at most 2^16 cells (one row when n exceeds that), and the
blocks' histograms are added up, so a chunk's draws never sit in
memory whole.  The chunk's values are unchanged by the split:
consecutive ``Generator.integers`` calls on one PCG64 stream continue
it, because a bound below 2^32 draws 32-bit halves whose spare half
the bit generator itself keeps between calls.

Trees are drawn by pulling a uniform mapping back through the scalar
tree-mapping bijection, row by row, and discarding the mark; each tree
arises from exactly n marked pairs, so the result is uniform.
``kernels.run_counts`` counts every block: a root's self-loop is never
an ascent, so parent arrays count like image arrays.  The bijection
keeps run starts, so a tree run gives the mapping run's statistics for
the same n, samples and seed (CI asserts the same JSON): it re-checks
the bijection at scale, but it does not test the tree law on its own.

A tree row costs about 40 mapping rows, so a tree chunk is split into
``kernels.pool_size(workers, blocks)`` jobs, each a contiguous run of
whole blocks.  A job draws the chunk's stream from row 0 to the end of
its slice and counts only its own rows; the slices' histograms add up
to the chunk's.  ``PCG64.advance`` cannot skip the rows before a slice:
Lemire rejection takes a variable number of 32-bit draws per row.  The
redraw costs about 5 us a row at n = 1000, some 1 % of a tree row.
Mapping chunks stay whole, since there a redraw would cost as much as
the counting it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bijections import mapping_to_tree
from .config import MC_N_BOUND
from .core import CayleyTree, Mapping, make_mapping


class DegenerateVarianceError(ValueError):
    pass


@dataclass(frozen=True)
class RunStatistics:
    n: int
    samples: int
    mean: float
    variance: float
    histogram: dict[int, int]

    def __post_init__(self) -> None:
        if sum(self.histogram.values()) != self.samples:
            raise ValueError("histogram frequencies must sum to the sample count")


@dataclass(frozen=True)
class NormalityReport:
    ks_statistic: float
    samples: int


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def sample_mapping(n: int, seed) -> Mapping:
    """Uniform mapping: n independent uniform draws from [1, n]."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _as_generator(seed)
    return make_mapping(int(x) for x in rng.integers(1, n + 1, size=n))


def sample_tree(n: int, seed) -> CayleyTree:
    """Uniform labelled rooted tree, via the bijection from a uniform mapping."""
    return mapping_to_tree(sample_mapping(n, seed)).tree


def _chunk_layout(n: int, samples: int) -> list[int]:
    rows = max(1, MC_N_BOUND // max(n, 1))  # fixed given n
    sizes = []
    left = samples
    while left > 0:
        take = min(rows, left)
        sizes.append(take)
        left -= take
    return sizes


def _chunk_jobs(n: int, rows: int, seed_seq, use_trees: bool, workers: int) -> list[tuple]:
    """``_chunk_histogram`` jobs for one chunk: whole for mappings, runs of whole blocks for trees."""
    runs = kernels.block_runs(rows, kernels.block_rows(rows, n), workers if use_trees else 1)
    return [(n, stop, seed_seq, use_trees, start) for start, stop in runs]


def _chunk_histogram(n: int, stop: int, seed_seq, use_trees: bool, start: int = 0) -> np.ndarray:
    """Run-count histogram of rows [start, stop) of one chunk, by ``kernels.block_rows`` blocks.

    The rows before ``start`` are drawn and dropped, so the slice sees
    the same values as the whole chunk does.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    hist = np.zeros(n + 1, dtype=np.intp)
    step = kernels.block_rows(stop, n)
    for lo in range(0, start, step):
        rng.integers(1, n + 1, size=(min(step, start - lo), n))
    for lo in range(start, stop, step):
        block = rng.integers(1, n + 1, size=(min(step, stop - lo), n))
        if use_trees:
            for row in block:
                # draws lie in [1, n] by construction, so the Mapping skips make_mapping
                row[:] = mapping_to_tree(Mapping(n, tuple(row.tolist()))).tree.parent
        hist += np.bincount(kernels.run_counts(block), minlength=n + 1)
    return hist


def run_statistics(
    n: int,
    samples: int,
    seed,
    workers: int = 1,
    use_trees: bool = False,
) -> RunStatistics:
    """Histogram, mean and variance of the run count over seeded samples.

    The histogram is exact; mean and variance come from its integer
    power sums, so the output is identical for any worker count.
    """
    if n < 1 or samples < 1:
        raise ValueError("n and samples must be positive")
    sizes = _chunk_layout(n, samples)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [job for rows, s in zip(sizes, seeds)
            for job in _chunk_jobs(n, rows, s, use_trees, workers)]
    hist = kernels.pooled_sum(_chunk_histogram, jobs, workers)
    support = np.nonzero(hist)[0]
    s1 = int((support * hist[support]).sum())
    s2 = int((support.astype(object) ** 2 * hist[support]).sum())
    mean = s1 / samples
    variance = (s2 * samples - s1 * s1) / (samples * samples)
    return RunStatistics(
        n=n,
        samples=samples,
        mean=mean,
        variance=variance,
        histogram={int(m): int(hist[m]) for m in support},
    )


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normality_check(stats: RunStatistics) -> NormalityReport:
    """Sup distance between the standardized run-count ECDF and the normal CDF.

    Run counts sit on an integer lattice, so the ECDF at a support point
    includes the whole atom; the Gaussian is therefore evaluated at the
    upper cell edge c + 1/2 after standardizing.  Without that half-step
    the statistic is floored near phi(0)/(2 sigma) by the lattice alone,
    regardless of how many samples are drawn.
    """
    if stats.variance <= 0.0:
        raise DegenerateVarianceError("variance must be positive to standardize")
    sd = math.sqrt(stats.variance)
    cum = 0
    ks = 0.0
    for c in sorted(stats.histogram):
        cum += stats.histogram[c]
        ecdf = cum / stats.samples
        gauss = _std_normal_cdf((c + 0.5 - stats.mean) / sd)
        ks = max(ks, abs(ecdf - gauss))
    return NormalityReport(ks_statistic=ks, samples=stats.samples)
