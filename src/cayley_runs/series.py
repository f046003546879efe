"""Exact truncated bivariate power series and the run-counting functional equations.

Every series here counts labelled objects, so it is held in one format:
its EGF integers.  A series truncated at order N in the size variable z
stores, for each n <= N, the integers n! [z^n v^m] as a polynomial in the
run-marking variable v.  No floating point and no rational arithmetic
enters this module; fractions appear only where ``coefficient`` returns
[z^n v^m] itself, for output.

The solvers never iterate to a fixed point.  They compute each
coefficient once, in increasing n, from lower ones by binomial
convolutions (online evaluation of the functional equation), and return
their integer rows as a BivariateSeries.  The identity checks use the
BivariateSeries arithmetic, whose EGF product and exponential are coded
apart from the solvers' helpers: a second, independent implementation.

The four generating functions handled here, with counts recovered as
n! [z^n v^m]:

* auxiliary_series   solves  A = z (v e^A + 1 - v),
* tree_series        solves  dF/dz = (e^F - 1 + v) / (1 - z (e^F - 1 + v)),
  so n! [z^n v^m] counts size-n trees with m ascending runs,
* mapping_series     is  1 / (1 - z v e^A),  counting mappings by runs,
* connected_series   is  ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)),
  counting connected mappings by runs; its exp is the mapping series.
  Both read v e^A = A/z - (1 - v) off A, so only A's sweep computes e^A.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import CountTable


def _vpoly_sum(terms) -> list[int]:
    """Sum of c p q over the (c, p, q) in terms, for integer polynomials p, q in v.

    Kept apart from the solvers' ``_binomial_conv`` so that the identity
    checks share no arithmetic with the solvers they check.
    """
    out: list[int] = []
    for c, p, q in terms:
        if not p or not q:
            continue
        out += [0] * (len(p) + len(q) - 1 - len(out))
        for i, x in enumerate(p):
            if x:
                x *= c
                for l, y in enumerate(q):
                    out[i + l] += x * y
    return out


class BivariateSeries:
    """Power series in z truncated at a fixed order, held as its EGF integers.

    ``egf[n]`` is the tuple of n! [z^n v^m] for m = 0, 1, ..., with
    trailing zeros trimmed.  Products are EGF products, so a series is
    multiplied without ever leaving the integers.
    """

    __slots__ = ("order", "egf")

    def __init__(self, order: int, rows=()):
        if order < 0:
            raise ValueError("order must be non-negative")
        egf = []
        for row in list(rows)[: order + 1]:
            row = list(row)
            if any(type(x) is not int for x in row):  # bool is an int subclass
                raise TypeError("EGF coefficients must be integers")
            while row and row[-1] == 0:
                row.pop()
            egf.append(tuple(row))
        egf += [()] * (order + 1 - len(egf))
        self.order = order
        self.egf: tuple[tuple[int, ...], ...] = tuple(egf)

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls(order, [(1,)])

    @classmethod
    def z(cls, order: int) -> "BivariateSeries":
        return cls(order, [(), (1,)])

    @classmethod
    def v(cls, order: int) -> "BivariateSeries":
        return cls(order, [(0, 1)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariateSeries)
                and self.order == other.order and self.egf == other.egf)

    def __repr__(self) -> str:
        return f"BivariateSeries({self.order}, {self.egf})"

    def is_zero(self) -> bool:
        return not any(self.egf)

    def coefficient(self, n: int) -> tuple[Fraction, ...]:
        """[z^n v^m] for m = 0, 1, ..., as exact rationals."""
        row = self._row(n)
        fact = math.factorial(n)
        return tuple(Fraction(x, fact) for x in row)

    def count(self, n: int, m: int) -> int:
        """n! [z^n v^m]."""
        row = self._row(n)
        return row[m] if 0 <= m < len(row) else 0

    def _row(self, n: int) -> tuple[int, ...]:
        if not 0 <= n <= self.order:
            raise IndexError(f"z-order {n} outside truncation {self.order}")
        return self.egf[n]

    def _lift(self, other) -> "BivariateSeries":
        return BivariateSeries(self.order, [(other,)]) if isinstance(other, int) else other

    def __add__(self, other) -> "BivariateSeries":
        other = self._lift(other)
        rows = []
        for p, q in zip(self.egf, other.egf):
            if len(p) < len(q):
                p, q = q, p
            rows.append([x + q[i] if i < len(q) else x for i, x in enumerate(p)])
        return BivariateSeries(min(self.order, other.order), rows)

    __radd__ = __add__

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries(self.order, [[-x for x in p] for p in self.egf])

    def __sub__(self, other) -> "BivariateSeries":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "BivariateSeries":
        return (-self) + other

    def __mul__(self, other) -> "BivariateSeries":
        """EGF product: k! [z^k] of AB is sum_j C(k, j) a_j b_{k-j}."""
        other = self._lift(other)
        order = min(self.order, other.order)
        a, b = self.egf, other.egf
        return BivariateSeries(order, [
            _vpoly_sum((math.comb(k, j), a[j], b[k - j]) for j in range(k + 1))
            for k in range(order + 1)])

    __rmul__ = __mul__

    def exp(self) -> "BivariateSeries":
        """Exponential; requires zero constant term.

        From E' = S' E: e_k = sum_{j=1..k} C(k-1, j-1) s_j e_{k-j}.
        """
        s = self.egf
        if s[0]:
            raise ValueError("exp needs zero constant term")
        e = [(1,)]
        for k in range(1, self.order + 1):
            e.append(_vpoly_sum((math.comb(k - 1, j - 1), s[j], e[k - j])
                                for j in range(1, k + 1)))
        return BivariateSeries(self.order, e)

    def diff_z(self) -> "BivariateSeries":
        """d/dz, one order lower: n! [z^n] S' = (n+1)! [z^(n+1)] S, a shift of the rows."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return BivariateSeries(self.order - 1, self.egf[1:])

    def diff_v(self) -> "BivariateSeries":
        return BivariateSeries(self.order, [[m * x for m, x in enumerate(p)][1:]
                                            for p in self.egf])

    def truncate(self, order: int) -> "BivariateSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return BivariateSeries(order, self.egf[: order + 1])


def _add(p: list[int], q: list[int], c: int = 1) -> list[int]:
    """p + c q for integer polynomials in v."""
    if len(p) < len(q):
        p = p + [0] * (len(q) - len(p))
    return [x + c * q[i] if i < len(q) else x for i, x in enumerate(p)]


def _binomial_conv(k: int, a: list, b: list, js: range) -> list[int]:
    """Sum over j in js of C(k, j) a[j] b[k - j]: k! [z^k] of a product of EGFs."""
    out: list[int] = []
    for j in js:
        p, q = a[j], b[k - j]
        if not p or not q:
            continue
        c = math.comb(k, j)
        if len(out) < len(p) + len(q) - 1:
            out += [0] * (len(p) + len(q) - 1 - len(out))
        for i, x in enumerate(p):
            if x:
                x *= c
                for l, y in enumerate(q):
                    out[i + l] += x * y
    return out


def _exp_next(a: list, e: list) -> list[int]:
    """e_k for k = len(e), from E' = S' E: sum_{j=1..k} C(k-1, j-1) a_j e_{k-j}."""
    k = len(e)
    return _binomial_conv(k - 1, a[1:], e, range(k))


def _log(p: list, order: int) -> list:
    """ln P for P with constant term 1, from P' = L' P.

    l_k = p_k - sum_{j=1..k-1} C(k-1, j-1) l_j p_{k-j}.
    """
    out: list = [[]]
    for k in range(1, order + 1):
        out.append(_add(p[k], _binomial_conv(k - 1, out[1:], p, range(k - 1)), -1))
    return out


def auxiliary_series(order: int) -> BivariateSeries:
    """Unique zero-at-origin solution of A = z (v e^A + 1 - v).

    With a_n = n! [z^n] A and e_n = n! [z^n] e^A, the equation reads
    a_1 = 1 and a_n = n v e_{n-1} for n >= 2, while
    e_k = sum_{j=1..k} C(k-1, j-1) a_j e_{k-j} needs only a_1..a_k.
    One sweep in n alternates the two.
    """
    a: list = [[], [1]][: order + 1]
    e: list = [[1]]
    for n in range(2, order + 1):
        e.append(_exp_next(a, e))
        a.append([0] + [n * x for x in e[n - 1]])
    return BivariateSeries(order, a)


def tree_series(order: int) -> BivariateSeries:
    """Run-marked tree series: n! [z^n v^m] counts size-n trees with m runs.

    Solved through its z derivative, which is rational in the series
    itself: dF/dz = g / (1 - z g) with g = e^F - 1 + v, i.e.
    F_z = g + z g F_z.  With f_n = n! [z^n] F and g_k = k! [z^k] g
    (g_0 = v, g_k = k! [z^k] e^F for k >= 1), this is
    f_{k+1} = g_k + k sum_{j<k} C(k-1, j) g_j f_{k-j},
    and g_k needs only f_1..f_k, so one sweep in k settles F.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    f: list = [[], [0, 1]]
    ef: list = [[1]]
    g: list = [[0, 1]]
    for k in range(1, order):
        ef.append(_exp_next(f, ef))
        g.append(ef[k])
        f.append(_add(g[k], _binomial_conv(k - 1, g, f[1:], range(k)), k))
    return BivariateSeries(order, f)


def mapping_series(order: int) -> BivariateSeries:
    """Run-marked mapping series 1 / (1 - z v e^A) with A the auxiliary series.

    By A's equation T = z v e^A = A - (1 - v) z, so t_j = j! [z^j] T is v for j = 1
    and a_j for j >= 2.  R = 1 + T R gives r_n = sum_{j=1..n} C(n, j) t_j r_{n-j}.
    """
    t = [[], [0, 1], *auxiliary_series(order).egf[2:]]
    r: list = [[1]]
    for n in range(1, order + 1):
        r.append(_binomial_conv(n, t, r, range(1, n + 1)))
    return BivariateSeries(order, r)


def connected_series(order: int) -> BivariateSeries:
    """Run-marked connected-mapping series.

    ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)) = ln(A/z) - ln(A/z - (v e^A) A)
    by A's equation.  Row k of A/z is a_{k+1} / (k+1), and so is row k >= 1 of
    v e^A (row 0 is v): exact, as the A sweep sets a_{k+1} = (k+1) v e_k.  Both
    logs have constant term 1 and follow from P' = L' P over the EGF integers.
    """
    a = auxiliary_series(order + 1).egf
    numer = [[x // (k + 1) for x in a[k + 1]] for k in range(order + 1)]
    ve = [[0, 1]] + numer[1:]
    denom = [_add(numer[k], _binomial_conv(k, a, ve, range(1, k + 1)), -1)
             for k in range(order + 1)]
    c = [_add(p, q, -1) for p, q in zip(_log(numer, order), _log(denom, order))]
    return BivariateSeries(order, c)


def pde_residual(f: BivariateSeries) -> BivariateSeries:
    """Residual of (1 - z v e^F) F_z - v (1 - v) e^F F_v - v e^F, one order lower.

    Identically zero exactly when f solves the run-marked tree equation.
    """
    order = f.order
    z = BivariateSeries.z(order)
    v = BivariateSeries.v(order)
    one = BivariateSeries.one(order)
    ef = f.exp()
    lhs = (one - z * v * ef).truncate(order - 1) * f.diff_z()
    rhs = (v * (one - v) * ef * f.diff_v() + v * ef).truncate(order - 1)
    return lhs - rhs


def check_mapping_from_tree_derivative(order: int) -> bool:
    """Mapping series = 1 + z dF/dz: n! [z^n] z F' = n f_n, so each mapping count is n times the tree count."""
    f = tree_series(order)
    r = mapping_series(order)
    z_fz = BivariateSeries(order, [[k * x for x in p] for k, p in enumerate(f.egf)])
    return (r - 1 - z_fz).is_zero()


def check_aux_tree_relation(order: int) -> bool:
    """v e^A = e^F - 1 + v, linking the auxiliary and tree series."""
    f = tree_series(order)
    a = auxiliary_series(order)
    v = BivariateSeries.v(order)
    one = BivariateSeries.one(order)
    return (v * a.exp() - f.exp() + one - v).is_zero()


def check_exp_connected_is_mapping(order: int) -> bool:
    """exp(C) = R.  Both read v e^A off one A, so this tests the formulas, not A itself."""
    return (connected_series(order).exp() - mapping_series(order)).is_zero()


def series_count_table(s: BivariateSeries, n: int) -> CountTable:
    """CountTable of n! [z^n v^m] for m = 1..n, for any of the counting series."""
    values = {}
    for m in range(1, n + 1):
        x = s.count(n, m)
        if x:
            values[m] = x
    return CountTable(n=n, values=values)
