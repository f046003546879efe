import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_runs import (
    BivariateSeries,
    auxiliary_series,
    brute_force_tables,
    check_aux_tree_relation,
    check_exp_connected_is_mapping,
    check_mapping_from_tree_derivative,
    connected_run_table,
    connected_series,
    make_mapping,
    mapping_run_table,
    mapping_runs,
    mapping_series,
    pde_residual,
    run_starts_mapping,
    series_count_table,
    tree_runs,
    tree_run_table,
    tree_runs_alternating,
    tree_series,
)
from cayley_runs import series
from cayley_runs.cli import run_cli

F = Fraction


def test_v_polynomial_arithmetic():
    # at z-order 0 a series is a polynomial in v: p = 2 v^2 + v - 1
    v = BivariateSeries.v(0)
    p = 2 * v * v + v - 1
    assert p.egf == ((-1, 1, 2),)
    assert p.count(0, 2) == 2 and p.count(0, 3) == 0 and p.count(0, -1) == 0
    assert p.diff_v() == 4 * v + 1
    assert (v - v).is_zero()
    assert (v * v).egf == ((0, 0, 1),)
    assert BivariateSeries(0, [(0, 0)]).egf == ((),)  # trailing zeros are trimmed


def test_series_arithmetic_identities():
    order = 8
    z = BivariateSeries.z(order)
    v = BivariateSeries.v(order)
    a = z * v + z * z * v * v
    b = z * z * z * (1 - v)
    assert (z * z).egf[2] == (2,)  # 2! [z^2] z^2
    assert z.exp().egf == ((1,),) * (order + 1)  # n! [z^n] e^z = 1
    assert (a + b).exp() == a.exp() * b.exp()
    low = order - 1
    assert (a * b).diff_z() == a.diff_z() * b.truncate(low) + a.truncate(low) * b.diff_z()
    assert (a * b).diff_v() == a.diff_v() * b + a * b.diff_v()
    assert a.diff_v().count(1, 0) == 1
    assert [a.count(2, m) for m in range(4)] == [0, 0, 2, 0]


def test_series_guards():
    order = 4
    one = BivariateSeries.one(order)
    z = BivariateSeries.z(order)
    with pytest.raises(ValueError):
        (one + z).exp()  # nonzero constant term
    with pytest.raises(ValueError):
        z.truncate(9)
    with pytest.raises(ValueError):
        BivariateSeries(0).diff_z()
    with pytest.raises(ValueError):
        BivariateSeries(-1)
    with pytest.raises(IndexError):
        z.count(order + 1, 0)
    with pytest.raises(IndexError):
        z.count(-1, 0)


def test_constructor_requires_integers():
    for bad in (F(1, 3), F(2), True, 1.0):
        with pytest.raises(TypeError):
            BivariateSeries(2, [(), (0, bad)])


def test_auxiliary_series_hand_coefficients():
    h = auxiliary_series(5)
    assert h.egf[0] == ()
    assert h.egf[1] == (1,)
    assert h.egf[2] == (0, 2)  # 2! v
    assert h.egf[3] == (0, 3, 6)  # 3! (v/2 + v^2)
    assert [h.count(3, m) for m in range(-1, 5)] == [0, 0, 3, 6, 0, 0]


def test_auxiliary_series_matches_lagrange_inversion():
    # A = z phi(A) with phi(u) = v e^u + 1 - v, so n [z^n] A = [u^(n-1)] phi(u)^n and
    # n! [z^n] A = sum_k C(n, k) k^(n-1) v^k (1 - v)^(n-k), expanded here in integers only;
    # the top rows come within a few bits of the packing width
    order = 60
    h = auxiliary_series(order)
    for n in range(1, order + 1):
        expected = [0] * (n + 1)
        for k in range(n + 1):
            c = math.comb(n, k) * k ** (n - 1)
            for i in range(n - k + 1):  # (1 - v)^(n-k)
                expected[k + i] += c * math.comb(n - k, i) * (-1) ** i
        assert [h.count(n, m) for m in range(n + 1)] == expected


def test_auxiliary_series_solves_its_equation():
    # A = z (v e^A + 1 - v) in the series class's own arithmetic, which shares no
    # code with the Lagrange closed form but the codec; at order 60 the top rows
    # come within a few bits of the packing width
    for order in (*range(31), 60):
        a = auxiliary_series(order)
        z, v, one = BivariateSeries.z(order), BivariateSeries.v(order), BivariateSeries.one(order)
        assert a == z * (v * a.exp() + one - v), order


def test_tree_series_counts():
    f = tree_series(10)
    assert f.count(1, 1) == 1
    assert f.count(3, 2) == 6
    assert f.count(4, 2) == 21
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert f.count(n, m) == tree_runs(n, m)
        assert len(f.egf[n]) <= n + 1


def test_mapping_series_counts():
    r = mapping_series(10)
    assert r.egf[0] == (1,)
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
        assert sum(f.egf[n]) == n ** (n - 1)
        assert sum(r.egf[n]) == n ** n


def test_pde_residual_zero():
    assert pde_residual(tree_series(10)).is_zero()
    assert pde_residual(tree_series(1)).is_zero()  # both sides are v at z^0


def test_pde_residual_negative_control():
    residual = pde_residual(auxiliary_series(6))
    assert not residual.is_zero()
    low = next(k for k, p in enumerate(residual.egf) if p)
    assert low <= 2


def _three_term_residual(f):
    """(1 - z v e^F) F_z - v (1 - v) e^F F_v - v e^F, one order lower, in seven products."""
    order = f.order
    z = BivariateSeries.z(order)
    v = BivariateSeries.v(order)
    one = BivariateSeries.one(order)
    ef = f.exp()
    lhs = (one - z * v * ef).truncate(order - 1) * f.diff_z()
    rhs = (v * (one - v) * ef * f.diff_v() + v * ef).truncate(order - 1)
    return lhs - rhs


def test_pde_residual_is_the_three_term_form():
    # F_z - e^F G is the three-term residual gathered, so the two are the same series,
    # not merely zero together: on solutions, on non-solutions and on a perturbed F
    for order in range(1, 21):
        f = tree_series(order)
        assert pde_residual(f) == _three_term_residual(f), order
    for order in range(2, 9):
        a = auxiliary_series(order)
        residual = pde_residual(a)
        assert residual == _three_term_residual(a) and not residual.is_zero(), order
    rows = [list(p) for p in tree_series(8).egf]
    rows[4][2] += 1
    f = BivariateSeries(8, rows)
    residual = pde_residual(f)
    assert residual == _three_term_residual(f) and not residual.is_zero()


def test_structural_checks():
    assert check_mapping_from_tree_derivative(12)
    assert check_aux_tree_relation(12)
    assert check_exp_connected_is_mapping(12)


def test_connected_series_counts_match_brute_force():
    c = connected_series(6)
    assert c.egf[0] == ()
    assert c.count(2, 1) == 2 and c.count(2, 2) == 1
    for n in range(1, 7):
        conn = brute_force_tables(n)[2]
        assert series_count_table(c, n).values == conn.values


def test_naive_connected_guess_is_falsified():
    # ln(1/(1 - F)) does not count connected mappings by runs
    order = 4
    w = series._solver_width(order)  # ln(1/(1 - F)) = sum F^k / k: n! [z^n] sums to <= n^n at v = 1
    one_minus_f = [1] + [-series._pack(p, w) for p in tree_series(order).egf[1:]]
    naive = BivariateSeries(order, [series._unpack(-x, w) for x in _log(one_minus_f, order)])
    conn = brute_force_tables(2)[2]
    naive_n2 = {m: naive.count(2, m) for m in (1, 2)}
    assert naive_n2 == {1: 1, 2: 2}
    assert conn.values == {1: 2, 2: 1}
    assert naive_n2 != conn.values


def test_connected_series_at_one_counts_connected_mappings():
    c = connected_series(6)
    for n in range(1, 7):
        assert sum(c.egf[n]) == brute_force_tables(n)[2].total()


def test_connected_run_table_matches_the_sweep():
    c = connected_series(100)  # each row of a truncation is that row of any higher one
    for n in (*range(1, 61), 100):
        assert connected_run_table(n) == series_count_table(c, n), n


def test_connected_run_table_matches_brute_force():
    for n in range(1, 8):
        assert connected_run_table(n) == brute_force_tables(n)[2], n


def test_connected_run_table_sums_to_the_connected_mappings():
    for n in range(1, 301):
        closed = sum(math.factorial(n - 1) // math.factorial(n - k) * n ** (n - k)
                     for k in range(1, n + 1))
        assert connected_run_table(n).total() == closed, n


def test_the_row_formula_stops_at_fixed_point_free_mappings():
    # e^(-T) / (1 - T), g_k = (k - 1)^k, counts them only at v = 1:
    # a cycle longer than 1 can block a run start
    for n, formula, brute in [(2, {2: 1}, {1: 1}), (3, {2: 6, 3: 2}, {1: 2, 2: 6})]:
        w = series._solver_width(n)
        row = series._unpack(series._lagrange_row(
            n, lambda n, k: math.comb(n, k) * (k - 1) ** k * k ** (n - k), w), w)
        assert {m: x for m, x in enumerate(row) if x} == formula
        runs = Counter(run_starts_mapping(make_mapping(list(f))).count
                       for f in itertools.product(range(1, n + 1), repeat=n)
                       if all(x != i for i, x in enumerate(f, 1)))
        assert runs == brute


def _fraction_csv(s):
    """The ``series`` CSV through Fraction, as it was printed before."""
    return "".join(f"{n},{m},{x.numerator},{x.denominator}\n"
                   for n in range(s.order + 1)
                   for m, x in enumerate(F(c, math.factorial(n)) for c in s.egf[n]) if x)


@pytest.mark.parametrize("which, solver", [
    ("H", auxiliary_series), ("F", tree_series), ("R", mapping_series), ("C", connected_series)])
def test_series_csv_matches_the_fraction_path(capsys, which, solver):
    for order in range(which == "F", 31):  # F needs order >= 1
        assert run_cli(["series", "--which", which, "--order", str(order)]) == 0
        assert capsys.readouterr().out == _fraction_csv(solver(order)), order


def _plain_conv(k, a, b, js):
    """The solvers' packed convolution without its binomial weights C(k, j)."""
    return sum(a[j] * b[k - j] for j in js)


def _mapping_series_without_the_shift_term(order):
    """``mapping_series`` with the (n - m + 1) a_(n,m-1) term of its identity dropped."""
    rows = [(1,)] + [[m * x for m, x in enumerate(a)] for a in auxiliary_series(order).egf[1:]]
    return BivariateSeries(order, rows)


def test_checks_are_independent_of_the_solvers(capsys, monkeypatch):
    # the identity checks run on BivariateSeries arithmetic, not on the solvers'
    # helpers, so a fault in those helpers must fail the checks of what it computes:
    # the convolution is C's sweep alone, and R's identity reaches both checks of R
    assert run_cli(["verify-series", "--order", "8"]) == 0
    assert capsys.readouterr().out.count("PASS ") == 4
    f = tree_series(8)
    with monkeypatch.context() as m:
        m.setattr(series, "_binomial_conv", _plain_conv)
        assert run_cli(["verify-series", "--order", "8"]) == 1
        assert capsys.readouterr().out == (
            "PASS pde-residual-zero\n"
            "PASS mapping-equals-1-plus-z-dF\n"
            "PASS aux-tree-relation\n"
            "FAIL exp-connected-equals-mapping\n")
    monkeypatch.setattr(series, "mapping_series", _mapping_series_without_the_shift_term)
    assert run_cli(["verify-series", "--order", "8"]) == 1
    assert capsys.readouterr().out == (
        "PASS pde-residual-zero\n"
        "FAIL mapping-equals-1-plus-z-dF\n"
        "PASS aux-tree-relation\n"
        "FAIL exp-connected-equals-mapping\n")

    def unusable(*args):
        raise AssertionError("the series arithmetic called a solver helper")

    for name in ("_binomial_conv", "_lagrange_series", "_lagrange_row"):
        monkeypatch.setattr(series, name, unusable)
    assert pde_residual(f).is_zero()


@pytest.mark.parametrize("mutant, lines", [
    # F summed with A's weights C(n, k) k^(n-1): F = A, which breaks every check of F
    (lambda n, k: math.comb(n, k) * k ** (n - 1), ("FAIL", "FAIL", "FAIL", "PASS")),
    # A's and F's weights with k^n in place of k^(n-1) and k^n / n
    (lambda n, k: math.comb(n, k) * k ** n, ("FAIL", "FAIL", "FAIL", "FAIL")),
], ids=["F-with-A-weights", "k-to-the-n"])
def test_the_checks_see_a_wrong_lagrange_weight(capsys, monkeypatch, mutant, lines):
    lagrange = series._lagrange_series
    monkeypatch.setattr(series, "_lagrange_series", lambda order, weight: lagrange(order, mutant))
    assert run_cli(["verify-series", "--order", "8"]) == 1
    names = ("pde-residual-zero", "mapping-equals-1-plus-z-dF", "aux-tree-relation",
             "exp-connected-equals-mapping")
    assert capsys.readouterr().out == "".join(f"{x} {name}\n" for x, name in zip(lines, names))


def _exp_of(a, order):
    """Packed rows of e^S up to z^order from the packed rows a of S.

    From E' = S' E: e_k = sum_{j=1..k} C(k-1, j-1) s_j e_{k-j}.
    """
    e = [1]
    for k in range(1, order + 1):
        e.append(series._binomial_conv(k - 1, a[1:], e, range(k)))
    return e


def _log(p, order):
    """Packed rows of ln P up to z^order from the packed rows p of a P with constant term 1.

    From P' = L' P: l_k = p_k - sum_{j=1..k-1} C(k-1, j-1) l_j p_{k-j}.
    """
    out = [0]
    for k in range(1, order + 1):
        out.append(p[k] - series._binomial_conv(k - 1, out[1:], p, range(k - 1)))
    return out


def _reference_mapping_series(order):
    """1 / (1 - z v e^A) with e^A recomputed from A's rows."""
    w = series._solver_width(order)
    e = _exp_of([series._pack(p, w) for p in auxiliary_series(order).egf], order - 1)
    t = [0] + [j * e[j - 1] << w for j in range(1, order + 1)]
    r = [1]
    for n in range(1, order + 1):
        r.append(series._binomial_conv(n, t, r, range(1, n + 1)))
    return BivariateSeries(order, [series._unpack(x, w) for x in r])


def _reference_connected_series(order):
    """ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)) with e^A recomputed from A's rows."""
    w = series._solver_width(order)
    a = [series._pack(p, w) for p in auxiliary_series(order).egf]
    e = _exp_of(a, order)
    numer = [1] + [e[k] << w for k in range(1, order + 1)]
    a_e = [series._binomial_conv(k, a, e, range(1, k + 1)) for k in range(order + 1)]
    denom = [1] + [e[k] - a_e[k] << w for k in range(1, order + 1)]
    logs = _log(numer, order), _log(denom, order)
    return BivariateSeries(order, [series._unpack(p - q, w) for p, q in zip(*logs)])


def test_solvers_match_the_exponential_reference():
    # R read off A's rows gives the series that recomputing e^A gives, and ln 1/(1 - T)
    # the paper's two-log form; at order 60 the top rows come within a few bits of the
    # packing width
    for order in (*range(31), 60):
        assert mapping_series(order) == _reference_mapping_series(order)
        assert connected_series(order) == _reference_connected_series(order)


def test_a_wrong_auxiliary_series_fails_checks_2_3_and_4(capsys, monkeypatch):
    # R is read off A through an identity of the true A's rows, so exp(C) = R sees a
    # wrong A as well as the checks that re-derive A's relations; only the PDE, which
    # reads F alone, passes
    aux = series.auxiliary_series

    def perturbed(order):
        rows = [list(p) for p in aux(order).egf]
        if order >= 3:
            rows[3][1] += 3
        return BivariateSeries(order, rows)

    monkeypatch.setattr(series, "auxiliary_series", perturbed)
    assert run_cli(["verify-series", "--order", "8"]) == 1
    assert capsys.readouterr().out == (
        "PASS pde-residual-zero\n"
        "FAIL mapping-equals-1-plus-z-dF\n"
        "FAIL aux-tree-relation\n"
        "FAIL exp-connected-equals-mapping\n")


def test_exp_connected_check_catches_a_wrong_denominator():
    # ln(A/z) - ln(A/z -+ (v e^A) A): the minus sign is connected_series, the
    # (1 + A) mutant of its denominator must make exp(C) differ from R
    order = 8
    a = auxiliary_series(order + 1)
    numer = BivariateSeries(order, [[x // (k + 1) for x in a.egf[k + 1]]
                                    for k in range(order + 1)])
    v_ea = numer - 1 + BivariateSeries.v(order)
    r = mapping_series(order)
    w = 4 * series._solver_width(order)  # wide enough for the mutant's signed coefficients
    for sign, is_connected in ((-1, True), (1, False)):
        denom = numer + sign * v_ea * a.truncate(order)
        logs = [_log([series._pack(p, w) for p in s.egf], order) for s in (numer, denom)]
        c = BivariateSeries(order, [series._unpack(p - q, w) for p, q in zip(*logs)])
        assert (c == connected_series(order)) is is_connected
        assert (c.exp() - r).is_zero() is is_connected


@st.composite
def _rows_and_width(draw):
    w = draw(st.integers(2, 200))
    top = (1 << (w - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    return draw(st.lists(coeff, max_size=12)), w


@given(_rows_and_width())
def test_codec_round_trips_signed_rows(row_w):
    # balanced digits hold every coefficient of absolute value below 2^(w-1)
    row, w = row_w
    assert series._unpack(series._pack(row, w), w) == series._trimmed(row)
    assert series._pack([], w) == 0 and series._unpack(0, w) == ()


def _naive_vpoly_sum(terms):
    """Sum of c p q over the (c, p, q) in terms, coefficient by coefficient."""
    out = []
    for c, p, q in terms:
        if not p or not q:
            continue
        out += [0] * (len(p) + len(q) - 1 - len(out))
        for i, x in enumerate(p):
            for l, y in enumerate(q):
                out[i + l] += c * x * y
    return out


def _naive_mul(a, b):
    order = min(a.order, b.order)
    return BivariateSeries(order, [
        _naive_vpoly_sum((math.comb(k, j), a.egf[j], b.egf[k - j]) for j in range(k + 1))
        for k in range(order + 1)])


def _naive_exp(s):
    e = [(1,)]
    for k in range(1, s.order + 1):
        e.append(_naive_vpoly_sum((math.comb(k - 1, j - 1), s.egf[j], e[k - j])
                                  for j in range(1, k + 1)))
    return BivariateSeries(s.order, e)


_signed_rows = st.lists(st.lists(st.integers(-10 ** 40, 10 ** 40), max_size=6), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_signed_rows, _signed_rows)
def test_product_and_exp_match_the_naive_loops(rows_a, rows_b):
    order = max(len(rows_a), len(rows_b), 1) - 1
    a, b = BivariateSeries(order, rows_a), BivariateSeries(order, rows_b)
    assert a * b == _naive_mul(a, b)
    s = BivariateSeries(order, [()] + rows_a[1:])
    assert s.exp() == _naive_exp(s)


def _sparse_operands(order):
    """z, v, 1 - v, v (1 - v), z v and zero, written out as rows."""
    return [BivariateSeries(order, rows) for rows in (
        [(), (1,)], [(0, 1)], [(1, -1)], [(0, 1, -1)], [(), (0, 1)], [])]


def test_sparse_products_match_the_definition():
    # the product skips zero rows; the definition sums over every j.  R has a nonzero row 0
    for order in (0, 1, 5, 12):
        dense = [tree_series(max(order, 1)).truncate(order), auxiliary_series(order),
                 mapping_series(order)]
        operands = _sparse_operands(order) + dense
        for a, b in itertools.product(operands, repeat=2):
            assert a * b == _naive_mul(a, b) == b * a
    for (p, a), (q, b) in itertools.combinations([
            (9, tree_series), (6, BivariateSeries.z), (5, auxiliary_series), (8, BivariateSeries.v)], 2):
        x, y = a(p), b(q)
        assert (x * y).order == min(p, q)
        assert x * y == _naive_mul(x, y) == y * x


def test_a_one_row_operand_makes_one_term_per_row(monkeypatch):
    calls = []
    vpoly_sum = series._vpoly_sum
    monkeypatch.setattr(series, "_vpoly_sum",
                        lambda terms, a, b: calls.append(len(terms)) or vpoly_sum(terms, a, b))
    f = tree_series(30)
    for one_row in _sparse_operands(30):
        for left, right in ((one_row, f), (f, one_row)):
            calls.clear()
            left * right
            assert sum(calls) <= 30, one_row  # the definition has 496 terms


def test_the_lagrange_row_of_r_is_the_mapping_stirling_table():
    # R = 1/(1 - T) has g_k = k^k, so row n of R is one Lagrange row, and
    # mapping_series reads the same rows off A
    r = mapping_series(100)  # each row of a truncation is that row of any higher one
    for n in (*range(1, 41), 100):
        w = series._solver_width(n)
        row = series._unpack(series._lagrange_row(n, lambda n, k: math.comb(n, k) * k ** n, w), w)
        table = mapping_run_table(n)
        assert row == (0, *(table.values[m] for m in range(1, n + 1))), n
        assert series_count_table(r, n) == table, n


def test_solvers_at_orders_near_the_width_match_closed_forms():
    # the top mapping row of each order, whose sum n^n is the bound the packing width is
    # proved for, comes within 3 bits of that width
    orders = range(31, 61)
    for order in orders:
        top = mapping_series(order).egf[order]
        assert top == (0, *(mapping_runs(order, m) for m in range(1, order + 1)))
        assert series._solver_width(order) - 1 - max(top).bit_length() <= 3
    c = connected_series(60)  # A's rows: the Lagrange and equation tests above
    for n in orders:
        assert sum(c.egf[n]) == sum(math.factorial(n - 1) // math.factorial(k) * n ** k
                                    for k in range(n))
    f = tree_series(100)  # the series bound
    for n in range(1, 101):
        values = tree_run_table(n).values
        assert f.egf[n] == (0, *(values.get(m, 0) for m in range(1, n + 1))), n


def test_a_narrower_width_is_seen(monkeypatch):
    # packing 8 bits narrower than the proved width garbles the order-40 top rows
    order = 40
    exact = mapping_series(order), connected_series(order)
    width = series._solver_width
    monkeypatch.setattr(series, "_solver_width", lambda n: width(n) - 8)
    assert mapping_series(order) != exact[0]
    assert connected_series(order) != exact[1]
