"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report
lines and per-criterion timings.  Tolerances are fixed here, not tuned:
exact equality for everything combinatorial and series-related, stated
numeric windows for the floating-point and Monte Carlo criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.stats

from cayley_runs import (
    MarkedTree,
    McTolerances,
    brute_force_tables,
    check_aux_tree_relation,
    check_exp_connected_is_mapping,
    check_mapping_from_tree_derivative,
    clt_constants,
    connected_series,
    count_valid_pairs,
    decode_partition,
    encode_partition,
    exact_moments,
    make_mapping,
    make_tree,
    mapping_run_table,
    mapping_runs,
    mapping_series,
    mapping_to_tree,
    normality_check,
    pde_residual,
    run_starts_mapping,
    run_starts_tree,
    run_statistics,
    series_count_table,
    singularity_data,
    tree_run_table,
    tree_runs,
    tree_runs_alternating,
    tree_series,
    tree_to_mapping,
)

from conftest import (
    FIG_MAPPING,
    FIG_PARTITION_BLOCKS,
    FIG_PARTITION_LINKS,
    FIG_RUN_STARTS,
    FIG_TREE_PARENT,
)

SEED = 20210917


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _all_mappings(n):
    for image in itertools.product(range(1, n + 1), repeat=n):
        yield make_mapping(image)


def _all_trees(n):
    for parent in itertools.product(range(1, n + 1), repeat=n):
        try:
            yield make_tree(parent)
        except ValueError:
            continue


def test_criterion_01_exhaustive_formula_check():
    t0 = time.time()
    ok = True
    for n in range(1, 8):
        tree_t, map_t, _ = brute_force_tables(n)
        ok &= tree_t.values == tree_run_table(n).values
        ok &= map_t.values == mapping_run_table(n).values
    _report(1, "exhaustive tables equal Stirling closed forms for n <= 7",
            ok, f"{time.time() - t0:.1f}s single worker")


def test_criterion_02_bijection_round_trips():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        for m in _all_mappings(n):
            ok &= tree_to_mapping(mapping_to_tree(m)) == m
        for t in _all_trees(n):
            for w in range(1, n + 1):
                mt = MarkedTree(t, w)
                ok &= mapping_to_tree(tree_to_mapping(mt)) == mt
    rng = np.random.default_rng(SEED)
    n = 1000
    for _ in range(10_000):
        m = make_mapping(int(x) for x in rng.integers(1, n + 1, size=n))
        mt = mapping_to_tree(m)
        ok &= tree_to_mapping(mt) == m
        mt2 = MarkedTree(mt.tree, int(rng.integers(1, n + 1)))
        ok &= mapping_to_tree(tree_to_mapping(mt2)) == mt2
    _report(2, "round trips exact: exhaustive n <= 6 and 10^4 cases at n = 1000",
            ok, f"{time.time() - t0:.1f}s")


def test_criterion_03_run_preservation():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        for t in _all_trees(n):
            profile = run_starts_tree(t)
            for w in range(1, n + 1):
                image = tree_to_mapping(MarkedTree(t, w))
                ok &= run_starts_mapping(image) == profile
    _report(3, "run profile (starts and count) preserved for all (T, w), n <= 6",
            ok, f"{time.time() - t0:.1f}s")


def test_criterion_04_partition_bijection():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        for m in _all_mappings(n):
            partition, links = encode_partition(m)
            ok &= decode_partition(partition, links) == m
        for m_blocks in range(1, n + 1):
            ok &= count_valid_pairs(n, m_blocks) == mapping_runs(n, m_blocks)
    _report(4, "decode(encode) = id and valid-pair counts match, n <= 6",
            ok, f"{time.time() - t0:.1f}s")


def test_criterion_05_worked_example():
    mapping = tree_to_mapping(MarkedTree(make_tree(FIG_TREE_PARENT), 1))
    ok = mapping.image == FIG_MAPPING
    profile = run_starts_mapping(mapping)
    ok &= profile.count == 13 and profile.starts == FIG_RUN_STARTS
    partition, links = encode_partition(mapping)
    ok &= partition.blocks == FIG_PARTITION_BLOCKS and links == FIG_PARTITION_LINKS
    _report(5, "19-node worked example reproduced verbatim", ok)


def test_criterion_06_series_identities_order_12():
    t0 = time.time()
    order = 12
    f = tree_series(order)
    r = mapping_series(order)
    ok = pde_residual(f).is_zero()
    ok &= check_mapping_from_tree_derivative(order)
    ok &= check_aux_tree_relation(order)
    ok &= check_exp_connected_is_mapping(order)
    for n in range(1, order + 1):
        for m in range(1, n + 1):
            ok &= f.count(n, m) == tree_runs(n, m)
            ok &= r.count(n, m) == mapping_runs(n, m)
    c = connected_series(order)
    for n in range(1, 8):
        ok &= series_count_table(c, n).values == brute_force_tables(n)[2].values
    _report(6, "all order-12 series identities hold exactly",
            ok, f"{time.time() - t0:.1f}s")


def test_criterion_07_alternating_sum_formula():
    ok = all(
        tree_runs_alternating(n, m) == tree_runs(n, m)
        for n in range(1, 31) for m in range(1, n + 1))
    _report(7, "alternating-sum formula equals product form for n <= 30", ok)


def test_criterion_08_asymptotic_constants():
    # the variance slope is 1/e - 2/e^2 = 0.0972088746...; asserted from the formula
    constants = clt_constants()
    mu_target = 1.0 - math.exp(-1.0)
    sigma_target = math.exp(-1.0) - 2.0 * math.exp(-2.0)
    ok = abs(constants.mu - mu_target) <= 1e-8
    ok &= abs(constants.sigma2 - sigma_target) <= 1e-8
    at_one = singularity_data(1.0)
    ok &= abs(at_one.tau - 1.0) <= 1e-12
    ok &= abs(at_one.rho - math.exp(-1.0)) <= 1e-12
    grid = [0.3 + 0.1 * k for k in range(45)]
    for v in grid:
        # (1 - v) rho e^(rho (1 - v)) = (1 - v)/(e v), the functional equation of rho
        rho = singularity_data(v).rho
        ok &= abs((1.0 - v) * rho * math.exp(rho * (1.0 - v)) - (1.0 - v) / (math.e * v)) <= 1e-10
    _report(8, "limit constants within 1e-8, singularity data within 1e-12/1e-10",
            ok, f"mu={constants.mu:.10f} sigma2={constants.sigma2:.10f}")


def test_criterion_09_monte_carlo_limit_law():
    t0 = time.time()
    n, samples = 1000, 100_000
    stats = run_statistics(n, samples, seed=SEED, workers=2)
    mean_err = abs(stats.mean / n - 0.6321)
    var_err = abs(stats.variance / n - 0.0972)
    ks = normality_check(stats).ks_statistic
    tol = McTolerances()  # the pre-registered values
    ok = mean_err <= tol.mean_over_n and var_err <= tol.variance_over_n and ks <= tol.ks
    _report(9, f"n=1000 sample: |mean/n-0.6321|<={tol.mean_over_n}, "
               f"|var/n-0.0972|<={tol.variance_over_n}, KS<={tol.ks}",
            ok, f"mean_err={mean_err:.4f} var_err={var_err:.4f} ks={ks:.4f} "
                f"{time.time() - t0:.1f}s")


def test_criterion_10_finite_n_moment_oracle():
    t0 = time.time()
    ok = True
    samples = 1_000_000
    for n in range(1, 8):
        stats = run_statistics(n, samples, seed=SEED + n)
        moments = exact_moments(n)
        se = math.sqrt(float(moments.variance) / samples)
        ok &= abs(stats.mean - float(moments.mean)) <= 3 * se + 1e-12
    # distributional identity of the two samplers, two-sample on histograms
    k = 100_000
    tree_stats = run_statistics(7, k, seed=SEED, use_trees=True, workers=2)
    map_stats = run_statistics(7, k, seed=SEED + 1000)
    support = sorted(set(tree_stats.histogram) | set(map_stats.histogram))
    table = [[tree_stats.histogram.get(m, 0) for m in support],
             [map_stats.histogram.get(m, 0) for m in support]]
    p_value = scipy.stats.chi2_contingency(table).pvalue
    ok &= p_value >= 1e-3
    _report(10, "MC means within 3 SE of exact moments; samplers indistinguishable",
            ok, f"chi2 p={p_value:.3f} {time.time() - t0:.1f}s")


def test_criterion_11_row_sums():
    ok = True
    for n in range(1, 51):
        ok &= sum(tree_runs(n, m) for m in range(1, n + 1)) == n ** (n - 1)
        ok &= sum(mapping_runs(n, m) for m in range(1, n + 1)) == n ** n
    _report(11, "row sums equal n^(n-1) and n^n exactly for n <= 50", ok)
