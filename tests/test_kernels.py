"""The numpy kernels against the scalar per-value functions they batch, and the pool helper."""

import itertools
import multiprocessing
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cayley_runs
from cayley_runs import (InvalidLinkSequenceError, MarkedTree, OrderedSetPartition,
                         brute_force_tables, components, decode_partition, encode_partition,
                         make_mapping, make_tree, mapping_to_tree, run_starts_mapping,
                         run_starts_tree, run_statistics, tree_to_mapping)
from cayley_runs import cli, exact, kernels
from cayley_runs.bijections import _set_partitions
from cayley_runs.kernels import cycles, run_counts


def _assert_rows_match_scalar(images):
    runs = run_counts(images)
    ends, cycle_counts = cycles(images)
    steps = 1 << (images.shape[1] - 1).bit_length()  # the first power of two >= n
    for k, row in enumerate(images.tolist()):
        m = make_mapping(row)
        assert runs[k] == run_starts_mapping(m).count
        assert cycle_counts[k] == len(components(m).components)  # one cycle per component
        for i in range(1, len(row) + 1):
            y = i
            for _ in range(steps):
                y = row[y - 1]
            assert ends[k, i - 1] == y


@pytest.mark.parametrize("n", range(1, 6))
def test_kernels_exhaustive(n):
    images = np.array(list(itertools.product(range(1, n + 1), repeat=n)), dtype=np.int64)
    _assert_rows_match_scalar(images)


@st.composite
def image_blocks(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 8))
    return draw(arrays(np.int64, (rows, n), elements=st.integers(1, n)))


@settings(max_examples=200)
@given(image_blocks())
def test_kernels_random_blocks(images):
    _assert_rows_match_scalar(images)


def _run_counts_reference(images):
    """The unblocked kernel: np.where zeroes the non-ascents, put_along_axis marks the rest."""
    rows, n = images.shape
    blocked = np.zeros((rows, n + 1), dtype=bool)  # column 0 collects the non-ascents
    ascents = np.where(images > np.arange(1, n + 1), images, 0)
    np.put_along_axis(blocked, ascents, True, axis=1)
    return n - np.count_nonzero(blocked[:, 1:], axis=1)


# an mc chunk at n = 1000 (ragged last scatter block), n^5 rows at n = 7 (two
# scatter blocks), and rows longer than a scatter block
@pytest.mark.parametrize("rows, n", [(2097, 1000), (16807, 7), (3, 70000)])
def test_run_counts_across_scatter_blocks(rows, n):
    images = np.random.default_rng(n).integers(1, n + 1, size=(rows, n))
    before = images.copy()
    counts = run_counts(images)
    assert np.array_equal(images, before)
    expected = _run_counts_reference(images)
    assert counts.dtype == expected.dtype
    assert np.array_equal(counts, expected)


def test_run_counts_memory_does_not_grow_with_the_rows():
    images = np.random.default_rng(1).integers(1, 1001, size=(2097, 1000))
    tracemalloc.start()
    try:
        run_counts(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # the unblocked kernel peaks at 20 MiB on this chunk


def _labels(mask_row):
    return frozenset((np.flatnonzero(mask_row) + 1).tolist())


def _assert_bijections_match_scalar(images):
    """Every batched bijection kernel against the scalar functions, row by row."""
    parents, marks = kernels.mapping_to_tree(images)
    back = kernels.tree_to_mapping(parents, marks)
    map_starts, tree_starts = kernels.run_starts(images), kernels.run_starts(parents)
    blocks, links = kernels.encode_partition(images)
    for k, row in enumerate(images.tolist()):
        m = make_mapping(row)
        mt = mapping_to_tree(m)
        assert tuple(parents[k].tolist()) == mt.tree.parent and marks[k] == mt.mark
        assert back[k].tolist() == row
        assert _labels(map_starts[k]) == run_starts_mapping(m).starts
        assert _labels(tree_starts[k]) == run_starts_tree(mt.tree).starts
        partition, scalar_links = encode_partition(m)
        assert [_labels(blocks[k] == b) for b in range(len(partition.blocks))] == \
            list(partition.blocks)
        assert blocks[k].max() == len(partition.blocks) - 1
        assert links[k].tolist() == [*scalar_links, *[0] * (len(row) - len(scalar_links))]


@pytest.mark.parametrize("n", range(1, 6))
def test_bijection_kernels_exhaustive(n):
    # uint8, as verify-all passes them; the random blocks below are int64
    images = np.array(list(itertools.product(range(1, n + 1), repeat=n)), dtype=np.uint8)
    _assert_bijections_match_scalar(images)


def _random_trees(rng, rows, n):
    """Parent arrays grown by attaching each node of a random order below an earlier one."""
    parents = np.empty((rows, n), dtype=np.int64)
    for r in range(rows):
        order = rng.permutation(n) + 1
        parents[r, order[0] - 1] = order[0]
        for k in range(1, n):
            parents[r, order[k] - 1] = order[rng.integers(k)]
    return parents


@pytest.mark.parametrize("rows, n", [(300, 7), (40, 50), (8, 300), (10, 1000)])
def test_bijection_kernels_random_blocks(rows, n):
    rng = np.random.default_rng(n)
    _assert_bijections_match_scalar(rng.integers(1, n + 1, size=(rows, n)))
    # tree_to_mapping on trees and marks of its own, not only on mapping_to_tree's
    parents = _random_trees(rng, rows, n)
    marks = rng.integers(1, n + 1, size=rows)
    images = kernels.tree_to_mapping(parents, marks)
    for k in range(rows):
        mt = MarkedTree(make_tree(parents[k].tolist()), int(marks[k]))
        assert tuple(images[k].tolist()) == tree_to_mapping(mt).image


def _every_pair(n):
    """Every ordering of every set partition of [n], with every link sequence.

    Returns the pairs and their block-index and link rows; forbidden links
    and blocks out of order are included.
    """
    pairs, block_rows, link_rows = [], [], []
    for m in range(1, n + 1):
        for raw in _set_partitions(n, m):
            for ordered in itertools.permutations(frozenset(b) for b in raw):
                index = [0] * n
                for b, block in enumerate(ordered):
                    for x in block:
                        index[x - 1] = b
                for links in itertools.product(range(1, n + 1), repeat=m):
                    pairs.append((OrderedSetPartition(ordered), links))
                    block_rows.append(index)
                    link_rows.append([*links, *[0] * (n - m)])
    return pairs, np.array(block_rows), np.array(link_rows)


@pytest.mark.parametrize("n", range(1, 5))
def test_batched_decoder_matches_scalar_on_every_pair(n):
    pairs, block_rows, link_rows = _every_pair(n)
    images, valid = kernels.decode_partition(block_rows, link_rows)
    for k, (partition, links) in enumerate(pairs):
        try:
            expected = decode_partition(partition, links).image
        except InvalidLinkSequenceError:
            assert not valid[k]
        else:
            assert valid[k]
            assert tuple(images[k].tolist()) == expected
    assert valid.any() and (n == 1 or not valid.all())


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_shared_tables_decode_like_one_call_per_link_array(n, dtype):
    # verify-all builds a block's partition tables once and decodes two link arrays with them
    _, block_rows, link_rows = _every_pair(n)
    block_rows, link_rows = block_rows.astype(dtype), link_rows.astype(dtype)
    used = link_rows > 0
    link_arrays = [link_rows, np.where(used, link_rows % n + 1, 0), used.astype(dtype),
                   np.where(used, n, 0).astype(dtype), np.where(used, link_rows[::-1] % n + 1, 0)]
    tables = kernels.partition_tables(block_rows)
    for links in link_arrays:
        images, valid = kernels.decode_links(tables, links)
        expected_images, expected_valid = kernels.decode_partition(block_rows, links)
        assert images.dtype == expected_images.dtype == links.dtype
        assert np.array_equal(images, expected_images)
        assert np.array_equal(valid, expected_valid)
    # the verdicts differ between the link arrays, so none can stand in for another
    assert n == 1 or len({kernels.decode_links(tables, links)[1].tobytes()
                          for links in link_arrays}) == len(link_arrays)


def _extreme_cycle_rows(n):
    """Rows with n cycles (the identity), one n-cycle both ways round, and the constant maps."""
    labels = np.arange(1, n + 1)
    rows = [labels, labels % n + 1, (labels - 2) % n + 1]
    rows += [np.full(n, c) for c in sorted({1, (n + 1) // 2, n})]
    return np.array(rows)


# every dtype that holds the labels: uint8 does not hold 1000
@pytest.mark.parametrize("n, dtype", [
    (n, dtype) for n in (1, 2, 7, 1000) for dtype in (np.uint8, np.uint16, np.int64)
    if n <= np.iinfo(dtype).max])
def test_peak_relink_at_extreme_cycle_structures(n, dtype):
    block = _extreme_cycle_rows(n).astype(dtype)
    # the whole block, and each row as a block of its own; the identity's trees walk
    # the longest chain of path maxima back
    for images in [block, *block[:, None]]:
        parents, marks = kernels.mapping_to_tree(images)
        assert parents.dtype == marks.dtype == images.dtype
        back = kernels.tree_to_mapping(parents, marks)
        assert back.dtype == images.dtype and np.array_equal(back, images)
        for k, row in enumerate(images.tolist()):
            mt = mapping_to_tree(make_mapping(row))
            assert tuple(parents[k].tolist()) == mt.tree.parent and marks[k] == mt.mark


def test_verify_all_blocks_enumerate_in_product_order():
    for n in (1, 2, 5):
        blocks = list(cli._array_blocks(n))
        assert all(b.size <= cli._VERIFY_CELLS for b in blocks)
        assert np.concatenate(blocks).tolist() == [
            list(row) for row in itertools.product(range(1, n + 1), repeat=n)]


def test_verify_all_checks_memory_stays_small():
    tracemalloc.start()
    try:
        verdicts = [cli._check_block(images) for images in cli._array_blocks(6)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [(True, True, True)] * len(verdicts)
    # 0.6 MiB in 2^14-cell blocks; all 46,656 arrays in one block peak at 7.8 MiB
    assert peak < 2 << 20


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size and job counts, runs in-process."""

    sizes: list[int] = []
    jobs: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, jobs):
        self.jobs.append(len(jobs))
        return [func(*job) for job in jobs]


def test_pool_is_capped_at_the_job_count(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the CPU cap must not bind here
    monkeypatch.setattr(exact, "_JOB_ARRAYS", 1)  # one job per prefix block
    # 2,100 samples at n = 1000 make two chunks of at most 2^21 cells
    assert run_statistics(1000, 2100, seed=5, workers=3) == run_statistics(1000, 2100, seed=5)
    # n = 2 scans two one-entry prefix blocks
    assert brute_force_tables(2, workers=3) == brute_force_tables(2)
    assert brute_force_tables(3, workers=2) == brute_force_tables(3)
    assert _SerialPool.sizes == [2, 2, 2]


@pytest.mark.parametrize("cpus, sizes", [(2, [2, 2]), (1, []), (None, [])])
def test_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, sizes):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(exact, "_JOB_ARRAYS", 1)  # one job per prefix block
    # 10,000 samples at n = 1000 make five chunks; n = 4 scans four prefix blocks
    assert (run_statistics(1000, 10_000, 5, workers=1000)
            == run_statistics(1000, 10_000, 5))
    assert brute_force_tables(4, workers=1000) == brute_force_tables(4)
    # one CPU, or an unknown count, runs the jobs in this process
    assert _SerialPool.sizes == sizes


def test_oracle_deals_one_job_per_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "jobs", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(exact, "_JOB_ARRAYS", 1)  # one job per prefix block
    # n = 4 has four prefix blocks; two processes start, so two jobs share them
    assert brute_force_tables(4, workers=1000) == brute_force_tables(4)
    assert _SerialPool.sizes == [2]
    assert _SerialPool.jobs == [2]


def test_verify_all_deals_runs_of_whole_blocks_one_job_per_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "jobs", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    ranges, check_range = [], cli._check_range

    def watched(n, lo, hi):
        ranges.append((n, lo, hi))
        return check_range(n, lo, hi)

    monkeypatch.setattr(cli, "_check_range", watched)
    assert all(passed for _, passed in cli._exhaustive_checks(6, 7, workers=3))
    # n <= 5 is one block, scanned in this process; n = 6 is 18 blocks of 2,730 rows
    assert ranges == [(n, 0, n ** n) for n in range(1, 6)] + [
        (6, 0, 16_380), (6, 16_380, 32_760), (6, 32_760, 6 ** 6)]
    assert _SerialPool.sizes == [3] and _SerialPool.jobs == [3]
    # the jobs' blocks are the blocks of one whole scan, so each keeps its scalar row 0
    dealt = [b for _, lo, hi in ranges[5:] for b in cli._array_blocks(6, lo, hi)]
    whole = list(cli._array_blocks(6))
    assert len(dealt) == len(whole) == 18
    assert all(np.array_equal(a, b) for a, b in zip(dealt, whole))


@pytest.mark.parametrize("check", range(3))
def test_verify_all_fails_when_only_the_last_pooled_block_fails(monkeypatch, capsys, check):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    check_block = cli._check_block

    def wrong(images):
        verdicts = list(check_block(images))
        if images.shape[1] == 6 and (images[-1] == 6).all():  # the last block of [6]^6
            verdicts[check] = False
        return tuple(verdicts)

    monkeypatch.setattr(cli, "_check_block", wrong)
    assert cli.run_cli(["verify-all", "--n-max", "6", "--workers", "2"]) == 1
    names = ["bijection-round-trip", "run-preservation", "partition-round-trip"]
    assert [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("PASS ")] == [f"FAIL {names[check]} n=6"]
    assert _SerialPool.sizes == [2]


class _PoolStarted(Exception):
    pass


def _no_pool(processes):
    raise _PoolStarted(processes)


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_scans_up_to_n8_in_process(monkeypatch, n):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the CPU cap must not bind here
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    assert brute_force_tables(n, workers=2, max_size=8) == brute_force_tables(n, max_size=8)


@pytest.mark.parametrize("workers, processes", [(2, 2), (1000, 12)])
def test_oracle_pools_twelve_jobs_at_n9(monkeypatch, workers, processes):
    # 9^9 arrays make ceil(9^9 / 2^25) = 12 jobs; the pool is refused before any scan
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    with pytest.raises(_PoolStarted) as started:
        brute_force_tables(9, workers=workers, max_size=9)
    assert started.value.args == (processes,)


def test_pools_work_under_spawn():
    script = textwrap.dedent("""
        import contextlib, io, multiprocessing
        from cayley_runs import brute_force_tables, exact, run_statistics
        from cayley_runs.cli import run_cli

        def verify_all(workers):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_cli(["verify-all", "--n-max", "6", "--workers", workers]) == 0
            return out.getvalue()

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            exact._JOB_ARRAYS = 1  # so that n = 5 still pools
            assert brute_force_tables(5, workers=2) == brute_force_tables(5)
            assert (run_statistics(1000, 5000, seed=9, workers=2)
                    == run_statistics(1000, 5000, seed=9))
            assert (run_statistics(300, 3000, seed=9, workers=2, use_trees=True)
                    == run_statistics(300, 3000, seed=9))
            assert verify_all("2") == verify_all("1")
            print("ok")
    """)
    src = str(Path(cayley_runs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
