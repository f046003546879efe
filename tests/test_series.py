import math
from fractions import Fraction

import pytest

from cayley_runs import (
    BivariateSeries,
    VPoly,
    auxiliary_series,
    brute_force_tables,
    check_aux_tree_relation,
    check_exp_connected_is_mapping,
    check_mapping_from_tree_derivative,
    connected_series,
    mapping_runs,
    mapping_series,
    pde_residual,
    series_count_table,
    tree_runs,
    tree_runs_alternating,
    tree_series,
)

F = Fraction


def test_vpoly_arithmetic():
    v = VPoly.v()
    p = 2 * v * v + v - 1
    assert p[2] == 2 and p[1] == 1 and p[0] == -1
    assert p(2) == 9
    assert p.deriv() == 4 * v + 1
    assert (v - v).is_zero()
    assert VPoly((F(1, 2),)) * 2 == VPoly.const(1)
    assert (v * v).degree == 2
    assert VPoly().degree == -1


def test_series_arithmetic_identities():
    order = 8
    z = BivariateSeries.z(order)
    v = BivariateSeries.v(order)
    s = z * v + z * z * VPoly((0, 0, F(1, 2)))
    assert s.exp().log() == s
    u = BivariateSeries.one(order) + s
    assert (u * u.inverse() - 1).is_zero()
    assert (u / u - 1).is_zero()
    assert s.integrate_z().diff_z() == s
    assert s.diff_v().coefficient(1) == VPoly.const(1)


def test_series_guards():
    order = 4
    one = BivariateSeries.one(order)
    z = BivariateSeries.z(order)
    with pytest.raises(ValueError):
        (one + z).exp()  # nonzero constant term
    with pytest.raises(ValueError):
        (z + z * z).log()  # constant term not 1
    with pytest.raises(ValueError):
        (2 * one).inverse()  # normalization is rejected, not silent
    with pytest.raises(ValueError):
        z.truncate(9)
    with pytest.raises(ValueError):
        BivariateSeries.zero(0).diff_z()


def test_count_requires_integrality():
    s = BivariateSeries(2, [VPoly(), VPoly((F(1, 3),))])
    with pytest.raises(ValueError):
        s.count(1, 0)


def test_auxiliary_series_hand_coefficients():
    h = auxiliary_series(5)
    assert h.coefficient(0).is_zero()
    assert h.coefficient(1) == VPoly.const(1)
    assert h.coefficient(2) == VPoly.v()
    assert h.coefficient(3) == VPoly((0, F(1, 2), 1))  # v/2 + v^2


def test_auxiliary_series_matches_lagrange_inversion():
    # A = z phi(A) with phi(u) = v e^u + 1 - v, so n [z^n] A = [u^(n-1)] phi(u)^n and
    # n! [z^n] A = sum_k C(n, k) k^(n-1) v^k (1 - v)^(n-k), expanded here in integers only.
    order = 30
    h = auxiliary_series(order)
    for n in range(1, order + 1):
        expected = [0] * (n + 1)
        for k in range(n + 1):
            c = math.comb(n, k) * k ** (n - 1)
            for i in range(n - k + 1):  # (1 - v)^(n-k)
                expected[k + i] += c * math.comb(n - k, i) * (-1) ** i
        assert [h.count(n, m) for m in range(n + 1)] == expected


def test_tree_series_counts():
    f = tree_series(10)
    assert f.count(1, 1) == 1
    assert f.count(3, 2) == 6
    assert f.count(4, 2) == 21
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert f.count(n, m) == tree_runs(n, m)
        assert f.coefficient(n).degree <= n


def test_mapping_series_counts():
    r = mapping_series(10)
    assert r.coefficient(0) == VPoly.const(1)
    assert r.count(2, 1) == 2 and r.count(2, 2) == 2
    assert r.count(3, 2) == 18
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert r.count(n, m) == mapping_runs(n, m)


def test_lagrange_alternating_consistency():
    f = tree_series(12)
    for n in range(1, 13):
        for m in range(1, n + 1):
            assert f.count(n, m) == tree_runs_alternating(n, m)


def test_marker_set_to_one_gives_plain_counts():
    f = tree_series(9)
    r = mapping_series(9)
    for n in range(1, 10):
        assert f.eval_v(1)[n] * math.factorial(n) == n ** (n - 1)
        assert r.eval_v(1)[n] * math.factorial(n) == n ** n


def test_pde_residual_zero():
    assert pde_residual(tree_series(10)).is_zero()
    assert pde_residual(tree_series(1)).is_zero()  # both sides are v at z^0


def test_pde_residual_negative_control():
    residual = pde_residual(auxiliary_series(6))
    assert not residual.is_zero()
    low = next(k for k, c in enumerate(residual.coeffs) if not c.is_zero())
    assert low <= 2


def test_structural_checks():
    assert check_mapping_from_tree_derivative(12)
    assert check_aux_tree_relation(12)
    assert check_exp_connected_is_mapping(12)


def test_connected_series_counts_match_brute_force():
    c = connected_series(6)
    assert c.coefficient(0).is_zero()
    assert c.count(2, 1) == 2 and c.count(2, 2) == 1
    for n in range(1, 7):
        conn = brute_force_tables(n)[2]
        assert series_count_table(c, n).values == conn.values


def test_naive_connected_guess_is_falsified():
    # ln(1/(1 - F)) does not count connected mappings by runs
    order = 4
    naive = -((BivariateSeries.one(order) - tree_series(order)).log())
    conn = brute_force_tables(2)[2]
    naive_n2 = {m: naive.count(2, m) for m in (1, 2)}
    assert naive_n2 == {1: 1, 2: 2}
    assert conn.values == {1: 2, 2: 1}
    assert naive_n2 != conn.values


def test_connected_series_at_one_counts_connected_mappings():
    c = connected_series(6)
    for n in range(1, 7):
        total = c.eval_v(1)[n] * math.factorial(n)
        assert total == brute_force_tables(n)[2].total()
