"""The numpy kernels against the scalar per-value functions they batch, and the pool helper."""

import itertools
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cayley_runs
from cayley_runs import (brute_force_tables, components, make_mapping, run_starts_mapping,
                         run_statistics)
from cayley_runs.kernels import connected, has_fixed_point, run_counts


def _assert_rows_match_scalar(images):
    runs, conn, fixed = run_counts(images), connected(images), has_fixed_point(images)
    for k, row in enumerate(images.tolist()):
        m = make_mapping(row)
        assert runs[k] == run_starts_mapping(m).count
        assert conn[k] == (len(components(m).components) == 1)
        assert fixed[k] == any(j == i for i, j in enumerate(row, start=1))


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


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, jobs):
        return [func(*job) for job in jobs]


def test_pool_is_capped_at_the_job_count(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the CPU cap must not bind here
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
    # 10,000 samples at n = 1000 make five chunks; n = 4 scans four prefix blocks
    assert (run_statistics(1000, 10_000, 5, workers=1000)
            == run_statistics(1000, 10_000, 5))
    assert brute_force_tables(4, workers=1000) == brute_force_tables(4)
    # one CPU, or an unknown count, runs the jobs in this process
    assert _SerialPool.sizes == sizes


def test_pools_work_under_spawn():
    script = textwrap.dedent("""
        import multiprocessing
        from cayley_runs import brute_force_tables, run_statistics

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            assert brute_force_tables(5, workers=2) == brute_force_tables(5)
            assert (run_statistics(1000, 5000, seed=9, workers=2)
                    == run_statistics(1000, 5000, seed=9))
            print("ok")
    """)
    src = str(Path(cayley_runs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
