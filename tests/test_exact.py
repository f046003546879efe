import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_runs import (
    SizeTooLargeError,
    brute_force_tables,
    connected_series,
    exact_moments,
    falling_factorial,
    mapping_run_table,
    mapping_runs,
    series_count_table,
    stirling2,
    tree_run_table,
    tree_runs,
    tree_runs_alternating,
)
from cayley_runs import exact, series
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


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(0, 0) == 1
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_brute_force_tables_match_closed_forms(n):
    tree_t, map_t, conn_t = brute_force_tables(n)
    assert tree_t.values == tree_run_table(n).values
    assert map_t.values == mapping_run_table(n).values
    assert tree_t.total() == n ** (n - 1)
    assert map_t.total() == n ** n
    assert conn_t.total() <= n ** n
    assert all(conn_t.values[m] <= map_t.values[m] for m in conn_t.values)


def test_brute_force_connected_totals():
    # hand-checkable small cases: all mappings of sizes 1 and 2 but the identity
    assert brute_force_tables(1)[2].values == {1: 1}
    assert brute_force_tables(2)[2].values == {1: 2, 2: 1}


def test_brute_force_workers_merge():
    for n in range(1, 7):
        single = brute_force_tables(n)
        for workers in (2, 3, 7):
            assert brute_force_tables(n, workers=workers) == single


def test_brute_force_calls_no_formula(monkeypatch):
    n = 6
    want = (tree_run_table(n), mapping_run_table(n),
            series_count_table(connected_series(n), n))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not call a formula")

    for name in ("stirling2", "mapping_runs", "tree_runs"):
        monkeypatch.setattr(exact, name, forbidden)
    for name in ("auxiliary_series", "tree_series", "mapping_series", "connected_series"):
        monkeypatch.setattr(series, name, forbidden)
    assert brute_force_tables(n) == want


def test_brute_force_bound():
    with pytest.raises(SizeTooLargeError):
        brute_force_tables(8)
    with pytest.raises(ValueError):
        brute_force_tables(0)
