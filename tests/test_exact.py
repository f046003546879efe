import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_runs import (
    SizeTooLargeError,
    brute_force_tables,
    components,
    connected_series,
    exact_moments,
    make_mapping,
    mapping_run_table,
    mapping_runs,
    run_starts_mapping,
    series_count_table,
    stirling2,
    tree_run_table,
    tree_runs,
    tree_runs_alternating,
)
from cayley_runs import exact, kernels, series
from cayley_runs.bijections import _set_partitions


# minimal test-local oracle, independent of the library internals
def _oracle_tables(n):
    tree = {}
    mapp = {}
    for image in itertools.product(range(1, n + 1), repeat=n):
        starts = sum(
            1 for j in range(1, n + 1)
            if all(i >= j for i in range(1, n + 1) if image[i - 1] == j))
        mapp[starts] = mapp.get(starts, 0) + 1
        roots = [v for v in range(1, n + 1) if image[v - 1] == v]
        if len(roots) == 1:
            ok = True
            for v in range(1, n + 1):
                seen, u = set(), v
                while u != roots[0] and u not in seen:
                    seen.add(u)
                    u = image[u - 1]
                ok &= u == roots[0]
            if ok:
                tree[starts] = tree.get(starts, 0) + 1
    return tree, mapp


def test_stirling_examples():
    for n in range(1, 9):
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(4, 0) == 0
    assert stirling2(3, 5) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_stirling_against_partition_enumeration(n):
    for m in range(1, n + 1):
        assert stirling2(n, m) == sum(1 for _ in _set_partitions(n, m))


@given(st.integers(0, 40), st.integers(0, 40))
def test_stirling_inclusion_exclusion(n, m):
    if m > n:
        assert stirling2(n, m) == 0
        return
    acc = sum((-1) ** (m - ell) * math.comb(m, ell) * ell ** n
              for ell in range(m + 1))
    assert stirling2(n, m) == acc // math.factorial(m)


def test_tree_runs_examples():
    assert tree_runs(1, 1) == 1
    assert [tree_runs(3, m) for m in (1, 2, 3)] == [1, 6, 2]
    assert tree_runs(4, 2) == 21
    with pytest.raises(ValueError):
        tree_runs(3, 0)


def test_mapping_runs_examples():
    assert mapping_runs(1, 1) == 1
    assert mapping_runs(2, 1) == 2 and mapping_runs(2, 2) == 2
    assert mapping_runs(3, 2) == 18


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_forms_against_local_oracle(n):
    tree, mapp = _oracle_tables(n)
    assert tree == {m: tree_runs(n, m) for m in range(1, n + 1) if tree_runs(n, m)}
    assert mapp == {m: mapping_runs(n, m) for m in range(1, n + 1) if mapping_runs(n, m)}


def test_one_pass_tables_equal_the_per_m_formulas():
    for n in [*range(1, 61), 1000]:
        tree, mapp = tree_run_table(n).values, mapping_run_table(n).values
        assert tree == {m: tree_runs(n, m) for m in range(1, n + 1)}
        assert mapp == {m: mapping_runs(n, m) for m in range(1, n + 1)}
        assert all(mapp[m] == n * tree[m] for m in range(1, n + 1))


def test_mapping_equals_n_times_tree():
    for n in range(1, 51):
        for m in range(1, n + 1):
            assert mapping_runs(n, m) == n * tree_runs(n, m)


def test_alternating_sum_matches_product_form():
    assert tree_runs_alternating(1, 1) == 1
    assert tree_runs_alternating(3, 2) == 6
    for n in range(1, 31):
        for m in range(1, n + 1):
            assert tree_runs_alternating(n, m) == tree_runs(n, m)


def test_row_sums():
    for n in range(1, 51):
        assert sum(tree_runs(n, m) for m in range(1, n + 1)) == n ** (n - 1)
        assert sum(mapping_runs(n, m) for m in range(1, n + 1)) == n ** n


def test_exact_moments_examples():
    m1 = exact_moments(1)
    assert m1.mean == 1 and m1.variance == 0
    m2 = exact_moments(2)
    assert m2.mean == Fraction(3, 2) and m2.variance == Fraction(1, 4)
    assert exact_moments(3).mean == Fraction(19, 9)
    assert exact_moments(12).variance > 0


@pytest.mark.parametrize("n", range(1, 81))
def test_exact_moments_match_stirling_power_sums(n):
    # the closed form against the mean and variance of the Stirling-number run table
    values = mapping_run_table(n).values
    s1 = sum(m * c for m, c in values.items())
    s2 = sum(m * m * c for m, c in values.items())
    mean = Fraction(s1, n ** n)
    assert exact_moments(n) == exact.ExactMoments(mean, Fraction(s2, n ** n) - mean * mean)


def test_exact_moments_second_order_lines():
    # mean = (1 - 1/e) n + 1/(2e) + O(1/n), variance = (1/e - 2/e^2) n + 3/(2e^2) - 1/(2e) + O(1/n)
    n, e = 1000, math.e
    m = exact_moments(n)
    assert abs(float(m.mean) - ((1 - 1 / e) * n + 1 / (2 * e))) < 1e-3
    assert abs(float(m.variance)
               - ((1 / e - 2 / e ** 2) * n + 3 / (2 * e ** 2) - 1 / (2 * e))) < 1e-3


def test_stirling_memory_is_one_row():
    # only the previous row is kept while building, so the table's peak stays O(n) integers
    exact._stirling_row.cache_clear()
    tracemalloc.start()
    try:
        mapping_run_table(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_exact_moments_approach_limit_slopes():
    m = exact_moments(50)
    assert abs(m.mean / 50 - (1 - math.exp(-1))) < 0.01
    assert abs(m.variance / 50 - (math.exp(-1) - 2 * math.exp(-2))) < 0.01


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_tables_match_closed_forms(n):
    tree_t, map_t, conn_t = brute_force_tables(n, max_size=8)
    assert tree_t.values == tree_run_table(n).values
    assert map_t.values == mapping_run_table(n).values
    assert conn_t.values == series_count_table(connected_series(n), n).values
    assert tree_t.total() == n ** (n - 1)
    assert map_t.total() == n ** n


def test_brute_force_connected_totals():
    # hand-checkable small cases: all mappings of sizes 1 and 2 but the identity
    assert brute_force_tables(1)[2].values == {1: 1}
    assert brute_force_tables(2)[2].values == {1: 2, 2: 1}


def test_brute_force_workers_merge():
    for n in range(1, 7):
        single = brute_force_tables(n)
        for workers in (2, 3, 7):
            assert brute_force_tables(n, workers=workers) == single
    assert brute_force_tables(8, workers=2, max_size=8) == brute_force_tables(8, max_size=8)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_array_is_classified_as_the_scalar_checks_say(n):
    # the decomposition lemma in _tally_blocks, array by array, for every prefix length
    want = []
    for image in itertools.product(range(1, n + 1), repeat=n):
        m = make_mapping(image)
        conn = len(components(m).components) == 1
        tree = conn and any(j == i for i, j in enumerate(image, start=1))
        want.append(run_starts_mapping(m).count + (n + 1) * (conn + tree))
    for p in range(1, n + 1):
        prefixes = np.array(list(itertools.product(range(1, n + 1), repeat=p)))
        got = kernels._classes(kernels._suffix_tables(n, p), prefixes)
        assert got.reshape(-1).tolist() == want, p


def _connected(images):
    """Pointer doubling as the per-block scan did it: one cycle minimum for every node."""
    rows, n = images.shape
    g = images + (np.arange(rows) * n - 1)[:, None]
    mn = np.broadcast_to(np.arange(n, dtype=np.min_scalar_type(n - 1)), (rows, n))
    for _ in range((n - 1).bit_length()):
        mn = np.minimum(mn, np.take(mn, g, mode="clip"))
        g = np.take(g, g, mode="clip")
    cycle_min = np.take(mn, g, mode="clip")
    return (cycle_min == cycle_min[:, :1]).all(axis=1)


def _has_fixed_point(images):
    return (images == np.arange(1, images.shape[1] + 1)).any(axis=1)


def _tally_blocks_reference(n, prefixes):
    """The per-block scan: every array of each prefix block through three full kernels."""
    p = len(prefixes[0])
    s = n - p
    block = np.empty((n ** s, n), dtype=np.intp)
    block[:, p:] = np.indices((n,) * s).reshape(s, n ** s).T + 1
    tallies = np.zeros((3, n + 1), dtype=np.int64)
    for prefix in prefixes:
        block[:, :p] = prefix
        runs = kernels.run_counts(block)
        conn = _connected(block)
        tree = conn & _has_fixed_point(block)
        tallies[0] += np.bincount(runs[tree], minlength=n + 1)
        tallies[1] += np.bincount(runs, minlength=n + 1)
        tallies[2] += np.bincount(runs[conn], minlength=n + 1)
    return tallies


@pytest.mark.parametrize("n", [7, 8])
def test_brute_force_tables_match_the_per_block_scan(n):
    prefixes = list(itertools.product(range(1, n + 1), repeat=n - kernels._FREE_ENTRIES))
    want = _tally_blocks_reference(n, prefixes)
    assert np.array_equal(kernels._tally_blocks(n, prefixes), want)
    tables = brute_force_tables(n, max_size=8)
    assert [t.values for t in tables] == [
        {m: int(c) for m, c in enumerate(row) if c} for row in want]


def test_tally_blocks_on_sixteen_bit_masks():
    # n = 9 is the first size whose ascent masks are uint16; a full scan is too slow here
    n = 9
    drawn = np.random.default_rng(26).integers(1, n + 1, size=(24, n - kernels._FREE_ENTRIES))
    sample = [tuple(row) for row in drawn.tolist()]
    sample += [(1, 1, 1, 1, 1), (1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (9, 9, 9, 9, 9)]
    assert kernels._suffix_tables(n, 5)[2].dtype == np.uint16
    assert np.array_equal(kernels._tally_blocks(n, sample), _tally_blocks_reference(n, sample))


def test_brute_force_calls_no_formula(monkeypatch):
    n = 6
    want = (tree_run_table(n), mapping_run_table(n),
            series_count_table(connected_series(n), n))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not call a formula")

    for name in ("_stirling_row", "stirling2", "mapping_runs", "tree_runs",
                 "tree_run_table", "mapping_run_table"):
        monkeypatch.setattr(exact, name, forbidden)
    for name in ("auxiliary_series", "tree_series", "mapping_series", "connected_series"):
        monkeypatch.setattr(series, name, forbidden)
    assert brute_force_tables(n) == want


def test_brute_force_bound():
    with pytest.raises(SizeTooLargeError):
        brute_force_tables(8)
    with pytest.raises(ValueError):
        brute_force_tables(0)
