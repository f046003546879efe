import math
import multiprocessing
import os
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from test_kernels import _no_pool, _run_counts_reference

from cayley_runs import (
    DegenerateVarianceError,
    RunStatistics,
    exact_moments,
    make_mapping,
    mapping_runs,
    mapping_to_tree,
    montecarlo,
    normality_check,
    run_starts_tree,
    run_statistics,
    sample_mapping,
    sample_tree,
)


def test_sample_mapping_determinism():
    assert sample_mapping(6, 123) == sample_mapping(6, 123)
    assert sample_mapping(1, 0).image == (1,)


def test_sample_mapping_uniform_n2():
    rng = np.random.default_rng(2024)
    freq = Counter(sample_mapping(2, rng).image for _ in range(100_000))
    assert set(freq) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for count in freq.values():
        assert abs(count / 100_000 - 0.25) < 0.01


def test_sample_tree_uniform():
    rng = np.random.default_rng(7)
    freq3 = Counter(sample_tree(3, rng).parent for _ in range(90_000))
    assert len(freq3) == 9
    for count in freq3.values():
        assert abs(count / 90_000 - 1 / 9) < 0.01
    freq2 = Counter(sample_tree(2, rng).parent for _ in range(10_000))
    assert len(freq2) == 2
    for count in freq2.values():
        assert abs(count / 10_000 - 0.5) < 0.01
    assert sample_tree(1, rng).parent == (1,)


def test_run_statistics_trivial():
    stats = run_statistics(1, 100, seed=5)
    assert stats.mean == 1.0 and stats.variance == 0.0
    assert stats.histogram == {1: 100}


def test_run_statistics_deterministic_and_worker_independent():
    a = run_statistics(40, 5000, seed=99)
    b = run_statistics(40, 5000, seed=99)
    c = run_statistics(40, 5000, seed=99, workers=2)
    assert a == b == c
    assert run_statistics(40, 5000, seed=100) != a


def test_run_statistics_tree_mode_deterministic():
    a = run_statistics(6, 2000, seed=11, use_trees=True)
    b = run_statistics(6, 2000, seed=11, use_trees=True, workers=2)
    assert a == b
    assert sum(a.histogram.values()) == 2000


@pytest.mark.parametrize("n, samples", [(50, 2000), (200, 3000)])
def test_tree_sampler_reproduces_mapping_sampler(n, samples):
    # each tree is the bijective image of the sampled mapping, and run starts survive it
    assert run_statistics(n, samples, n, use_trees=True) == run_statistics(n, samples, n)


def test_tree_chunk_counts_match_a_per_row_tally():
    # one chunk: the same seeded rows, each drawn as a tree and counted by the scalar predicate
    n, samples, seed = 30, 400, 8
    (stream,) = np.random.SeedSequence(seed).spawn(1)
    arr = np.random.Generator(np.random.PCG64(stream)).integers(1, n + 1, size=(samples, n))
    tally = Counter(run_starts_tree(mapping_to_tree(make_mapping(row.tolist())).tree).count
                    for row in arr)
    assert run_statistics(n, samples, seed, use_trees=True).histogram == dict(tally)


def test_seeded_histogram_is_pinned():
    # two chunks (69,905 + 95 rows); fixed values pin the per-chunk streams and the counting
    assert run_statistics(30, 70_000, seed=5).histogram == {
        12: 2, 13: 20, 14: 168, 15: 897, 16: 3041, 17: 7321, 18: 12968, 19: 16021,
        20: 14569, 21: 9264, 22: 4116, 23: 1264, 24: 295, 25: 49, 26: 5}


# one row; 21,845-row blocks of 65,535 cells, so a block can end on a spare 32-bit half;
# two chunks of ragged 64,935-cell blocks; one row per block over two chunks of 29 + 11 rows
@pytest.mark.parametrize("n, samples", [(1, 100), (3, 50_001), (999, 3000), (70_000, 40)])
def test_blocked_sampler_equals_the_one_shot_chunk_draw(n, samples):
    sizes = montecarlo._chunk_layout(n, samples)
    expected = np.zeros(n + 1, dtype=np.int64)
    for rows, stream in zip(sizes, np.random.SeedSequence(n).spawn(len(sizes))):
        chunk = np.random.Generator(np.random.PCG64(stream)).integers(1, n + 1, size=(rows, n))
        expected += np.bincount(_run_counts_reference(chunk), minlength=n + 1)
    support = np.nonzero(expected)[0]
    assert run_statistics(n, samples, n).histogram == {int(m): int(expected[m]) for m in support}


@pytest.mark.parametrize("rows, use_trees", [(2097, False), (400, True)])
def test_chunk_memory_stays_small(rows, use_trees):
    (stream,) = np.random.SeedSequence(1).spawn(1)
    # the whole chunk, and its ragged last block alone: the rows before that are drawn and dropped
    for start in (0, rows - rows % 65):
        tracemalloc.start()
        try:
            montecarlo._chunk_histogram(1000, rows, stream, use_trees, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # drawn whole, the chunk peaked at 16.6 MiB for mappings and 3.2-3.7 MiB for trees
        assert peak < 2 << 20


@pytest.mark.parametrize("use_trees", [False, True])
def test_slices_add_up_to_the_whole_chunk(use_trees):
    # at n = 1000 a 2,097-row chunk is 32 blocks of 65 rows and a 17-row tail: cut after
    # the first block, before the ragged last one, and at rows that split no block
    (stream,) = np.random.SeedSequence(4).spawn(1)
    whole = montecarlo._chunk_histogram(1000, 2097, stream, use_trees)
    cuts = [0, 65, 1040, 2080, 2097]
    slices = sum(montecarlo._chunk_histogram(1000, stop, stream, use_trees, start)
                 for start, stop in zip(cuts, cuts[1:]))
    assert whole.sum() == 2097
    assert np.array_equal(slices, whole)


def test_tree_chunks_are_cut_at_blocks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the CPU cap must not bind here
    # 3,000 rows at n = 300 are 14 blocks of 218 rows; mapping chunks stay whole
    jobs = montecarlo._chunk_jobs(300, 3000, None, True, 3)
    assert [(start, stop) for _, stop, _, _, start in jobs] == [(0, 872), (872, 1962), (1962, 3000)]
    assert [job[-1] for job in montecarlo._chunk_jobs(300, 3000, None, False, 3)] == [0]


def test_split_tree_chunks_equal_one_worker_and_the_mapping_run(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so that three workers cut three slices
    mappings = run_statistics(300, 3000, 5)
    for workers in (1, 2, 3):
        assert run_statistics(300, 3000, 5, use_trees=True, workers=workers) == mappings


def test_a_one_block_tree_chunk_starts_no_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    assert (run_statistics(30, 20, 3, use_trees=True, workers=2)
            == run_statistics(30, 20, 3, use_trees=True))


def test_run_statistics_mean_small_n():
    stats = run_statistics(2, 1_000_000, seed=31)
    assert abs(stats.mean - 1.5) < 0.002


@pytest.mark.parametrize("n", range(2, 6))
def test_histogram_matches_exact_distribution(n):
    samples = 200_000
    stats = run_statistics(n, samples, seed=n)
    for m in range(1, n + 1):
        p = mapping_runs(n, m) / n ** n
        se = math.sqrt(p * (1 - p) / samples)
        observed = stats.histogram.get(m, 0) / samples
        assert abs(observed - p) <= 4 * se + 1e-9


def test_mc_mean_matches_exact_moments():
    n, samples = 5, 200_000
    stats = run_statistics(n, samples, seed=17)
    moments = exact_moments(n)
    se = math.sqrt(float(moments.variance) / samples)
    assert abs(stats.mean - float(moments.mean)) <= 3 * se


def test_normality_degenerate():
    with pytest.raises(DegenerateVarianceError):
        normality_check(run_statistics(1, 50, seed=1))


def test_normality_small_n_reports_without_judgement():
    report = normality_check(run_statistics(2, 10_000, seed=3))
    assert 0.0 <= report.ks_statistic <= 1.0
    assert report.samples == 10_000


def test_normality_gaussian_calibration():
    # discretized normal input: the statistic should sit at sampling-noise level
    rng = np.random.default_rng(555)
    draws = np.rint(rng.normal(500.0, 40.0, size=100_000)).astype(int)
    hist = Counter(int(x) for x in draws)
    s1 = sum(k * c for k, c in hist.items())
    s2 = sum(k * k * c for k, c in hist.items())
    samples = sum(hist.values())
    mean = s1 / samples
    var = (s2 * samples - s1 * s1) / (samples * samples)
    stats = RunStatistics(n=1000, samples=samples, mean=mean, variance=var,
                          histogram=dict(hist))
    assert normality_check(stats).ks_statistic <= 0.01


def test_run_statistics_histogram_sum_invariant():
    with pytest.raises(ValueError):
        RunStatistics(n=3, samples=10, mean=1.0, variance=0.0, histogram={1: 3})


def test_input_validation():
    with pytest.raises(ValueError):
        run_statistics(0, 10, seed=1)
    with pytest.raises(ValueError):
        run_statistics(3, 0, seed=1)
    with pytest.raises(ValueError):
        sample_mapping(0, 1)



def test_the_package_resolves_montecarlo_and_kernels_on_access():
    import cayley_runs
    from cayley_runs import (DegenerateVarianceError, NormalityReport, RunStatistics, kernels,
                             montecarlo, normality_check, run_statistics, sample_mapping,
                             sample_tree)

    assert cayley_runs.kernels is sys.modules["cayley_runs.kernels"] is kernels
    assert cayley_runs.montecarlo is sys.modules["cayley_runs.montecarlo"] is montecarlo
    imported = {"DegenerateVarianceError": DegenerateVarianceError,
                "NormalityReport": NormalityReport, "RunStatistics": RunStatistics,
                "normality_check": normality_check, "run_statistics": run_statistics,
                "sample_mapping": sample_mapping, "sample_tree": sample_tree}
    for name, obj in imported.items():
        assert getattr(cayley_runs, name) is obj is getattr(montecarlo, name), name
        # looked up in montecarlo on each access, so a patch there shows here
        assert name not in vars(cayley_runs), name
        assert name in dir(cayley_runs), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cayley_runs.no_such_name
