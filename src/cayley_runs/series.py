"""Exact truncated bivariate power series and the run-counting functional equations.

Series are truncated at a fixed order N in the size variable z; each z
coefficient is a polynomial in the run-marking variable v with exact
rational coefficients.  No floating point enters this module: every
identity check below is an exact coefficient-wise comparison.

The solvers never iterate to a fixed point.  They hold a series S as
its EGF-scaled integers n! [z^n] S (polynomials in v with integer
coefficients) and compute each coefficient once, in increasing n, from
lower ones by binomial convolutions (online evaluation of the
functional equation); the result is converted to a Fraction
BivariateSeries once, on return.  The identity checks use the
BivariateSeries arithmetic, a second and independent implementation.

The four generating functions handled here, with counts recovered as
n! [z^n v^m]:

* auxiliary_series   solves  A = z (v e^A + 1 - v),
* tree_series        solves  dF/dz = (e^F - 1 + v) / (1 - z (e^F - 1 + v)),
  so n! [z^n v^m] counts size-n trees with m ascending runs,
* mapping_series     is  1 / (1 - z v e^A),  counting mappings by runs,
* connected_series   is  ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)),
  counting connected mappings by runs; its exp is the mapping series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import CountTable

Rational = int | Fraction


class VPoly:
    """Polynomial in the marking variable v with Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c: tuple[Fraction, ...] = tuple(c)

    @classmethod
    def const(cls, x: Rational) -> "VPoly":
        return cls((x,))

    @classmethod
    def v(cls) -> "VPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def __getitem__(self, k: int) -> Fraction:
        return self.c[k] if 0 <= k < len(self.c) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = VPoly((other,))
        return isinstance(other, VPoly) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __add__(self, other) -> "VPoly":
        if isinstance(other, (int, Fraction)):
            other = VPoly((other,))
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return VPoly([x + (b[k] if k < len(b) else 0) for k, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self) -> "VPoly":
        return VPoly([-x for x in self.c])

    def __sub__(self, other) -> "VPoly":
        return self + (-other if isinstance(other, VPoly) else VPoly((-Fraction(other),)))

    def __rsub__(self, other) -> "VPoly":
        return (-self) + other

    def __mul__(self, other) -> "VPoly":
        if isinstance(other, (int, Fraction)):
            return VPoly([x * other for x in self.c])
        out = [Fraction(0)] * (len(self.c) + len(other.c))
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return VPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "VPoly":
        return VPoly([x / other for x in self.c])

    def deriv(self) -> "VPoly":
        return VPoly([k * x for k, x in enumerate(self.c)][1:])

    def __call__(self, value: Rational) -> Fraction:
        acc = Fraction(0)
        for a in reversed(self.c):
            acc = acc * value + a
        return acc

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for k, a in enumerate(self.c):
            if a:
                parts.append(f"{a}" if k == 0 else (f"{a}*v^{k}" if k > 1 else f"{a}*v"))
        return " + ".join(parts)


_ZERO = VPoly()
_ONE = VPoly((1,))


class BivariateSeries:
    """Power series in z truncated at a fixed order, with VPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        cs = list(coeffs) if coeffs is not None else []
        cs = [c if isinstance(c, VPoly) else VPoly.const(c) for c in cs[: order + 1]]
        cs += [_ZERO] * (order + 1 - len(cs))
        self.coeffs: tuple[VPoly, ...] = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "BivariateSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls(order, [_ONE])

    @classmethod
    def z(cls, order: int) -> "BivariateSeries":
        return cls(order, [_ZERO, _ONE])

    @classmethod
    def v(cls, order: int) -> "BivariateSeries":
        return cls(order, [VPoly.v()])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariateSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def coefficient(self, n: int, m: int | None = None):
        """[z^n] as a VPoly, or the exact rational [z^n v^m] when m is given."""
        if not 0 <= n <= self.order:
            raise IndexError(f"z-order {n} outside truncation {self.order}")
        return self.coeffs[n] if m is None else self.coeffs[n][m]

    def count(self, n: int, m: int) -> int:
        """n! [z^n v^m], which must be an integer for counting series."""
        x = self.coefficient(n, m) * math.factorial(n)
        if x.denominator != 1:
            raise ValueError(f"n![z^{n}v^{m}] = {x} is not an integer")
        return x.numerator

    def _lift(self, other) -> "BivariateSeries":
        if isinstance(other, BivariateSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return BivariateSeries(self.order, [VPoly.const(other)])
        if isinstance(other, VPoly):
            return BivariateSeries(self.order, [other])
        return NotImplemented

    def __add__(self, other) -> "BivariateSeries":
        other = self._lift(other)
        order = min(self.order, other.order)
        return BivariateSeries(
            order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other) -> "BivariateSeries":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "BivariateSeries":
        return (-self) + other

    def __mul__(self, other) -> "BivariateSeries":
        if isinstance(other, (int, Fraction, VPoly)):
            return BivariateSeries(self.order, [c * other for c in self.coeffs])
        order = min(self.order, other.order)
        out = [_ZERO] * (order + 1)
        for i in range(order + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BivariateSeries(order, out)

    __rmul__ = __mul__

    def inverse(self) -> "BivariateSeries":
        """Reciprocal; requires the z^0 coefficient to be the constant 1."""
        if self.coeffs[0] != _ONE:
            raise ValueError("reciprocal needs constant term 1")
        out = [_ONE] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            acc = _ZERO
            for j in range(1, k + 1):
                if not self.coeffs[j].is_zero():
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -acc
        return BivariateSeries(self.order, out)

    def __truediv__(self, other) -> "BivariateSeries":
        if isinstance(other, (int, Fraction)):
            return BivariateSeries(self.order, [c / other for c in self.coeffs])
        return self * other.inverse()

    def exp(self) -> "BivariateSeries":
        """Exponential; requires zero constant term.  e_k = (1/k) sum j a_j e_{k-j}."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp needs zero constant term")
        out = [_ONE] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            acc = _ZERO
            for j in range(1, k + 1):
                if not self.coeffs[j].is_zero():
                    acc = acc + (self.coeffs[j] * j) * out[k - j]
            out[k] = acc / k
        return BivariateSeries(self.order, out)

    def log(self) -> "BivariateSeries":
        """Logarithm; requires constant term 1.  l_k = a_k - (1/k) sum j l_j a_{k-j}."""
        if self.coeffs[0] != _ONE:
            raise ValueError("log needs constant term 1")
        out = [_ZERO] * (self.order + 1)
        for k in range(1, self.order + 1):
            acc = _ZERO
            for j in range(1, k):
                if not out[j].is_zero():
                    acc = acc + (out[j] * j) * self.coeffs[k - j]
            out[k] = self.coeffs[k] - acc / k
        return BivariateSeries(self.order, out)

    def diff_z(self) -> "BivariateSeries":
        """d/dz; drops the truncation order by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return BivariateSeries(
            self.order - 1,
            [self.coeffs[k + 1] * (k + 1) for k in range(self.order)])

    def integrate_z(self) -> "BivariateSeries":
        """Antiderivative with zero constant term, at order one higher."""
        return BivariateSeries(
            self.order + 1,
            [_ZERO] + [self.coeffs[k] / (k + 1) for k in range(self.order + 1)])

    def diff_v(self) -> "BivariateSeries":
        return BivariateSeries(self.order, [c.deriv() for c in self.coeffs])

    def eval_v(self, value: Rational) -> tuple[Fraction, ...]:
        """Substitute a rational for v, leaving exact univariate z coefficients."""
        return tuple(c(value) for c in self.coeffs)

    def truncate(self, order: int) -> "BivariateSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return BivariateSeries(order, self.coeffs[: order + 1])

    def __repr__(self) -> str:
        terms = [f"({c!r}) z^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


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


def _to_series(s: list, order: int) -> BivariateSeries:
    """The public Fraction form [z^n] = s[n] / n! of the EGF integers s."""
    coeffs = []
    fact = 1
    for n, p in enumerate(s):
        fact *= n or 1
        coeffs.append(VPoly([Fraction(x, fact) for x in p]))
    return BivariateSeries(order, coeffs)


def _from_series(s: BivariateSeries) -> list:
    """The EGF-scaled integers n! [z^n v^m] of a counting series."""
    return [[s.count(n, m) for m in range(s.coefficient(n).degree + 1)]
            for n in range(s.order + 1)]


def _exp_of(a: list, order: int) -> list:
    """e^S up to z^order from the EGF integers a of S (zero constant term)."""
    e: list = [[1]]
    while len(e) <= order:
        e.append(_exp_next(a, e))
    return e


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
    return _to_series(a, order)


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
    return _to_series(f, order)


def mapping_series(order: int) -> BivariateSeries:
    """Run-marked mapping series 1 / (1 - z v e^A) with A the auxiliary series.

    With t_j = j! [z^j] z v e^A = j v e_{j-1}, the reciprocal R = 1 + T R
    gives r_0 = 1 and r_n = sum_{j=1..n} C(n, j) t_j r_{n-j}.
    """
    e = _exp_of(_from_series(auxiliary_series(order)), order - 1)
    t = [[]] + [[0] + [j * x for x in e[j - 1]] for j in range(1, order + 1)]
    r: list = [[1]]
    for n in range(1, order + 1):
        r.append(_binomial_conv(n, t, r, range(1, n + 1)))
    return _to_series(r, order)


def connected_series(order: int) -> BivariateSeries:
    """Run-marked connected-mapping series.

    ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)); both factors have
    constant term 1, so each log follows from P' = L' P coefficient by
    coefficient over the EGF integers, and the series is their difference.
    """
    a = _from_series(auxiliary_series(order))
    e = _exp_of(a, order)
    numer = [[1]] + [[0] + e[k] for k in range(1, order + 1)]
    denom = [[1]] + [[0] + _add(e[k], _binomial_conv(k, a, e, range(1, k + 1)), -1)
                     for k in range(1, order + 1)]
    c = [_add(p, q, -1) for p, q in zip(_log(numer, order), _log(denom, order))]
    return _to_series(c, order)


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
    """Mapping series = 1 + z dF/dz coefficient-wise, i.e. each mapping count is n times the tree count."""
    f = tree_series(order)
    r = mapping_series(order)
    z_fz = BivariateSeries(order, [c * k for k, c in enumerate(f.coeffs)])
    return (r - 1 - z_fz).is_zero()


def check_aux_tree_relation(order: int) -> bool:
    """v e^A = e^F - 1 + v, linking the auxiliary and tree series."""
    f = tree_series(order)
    a = auxiliary_series(order)
    v = BivariateSeries.v(order)
    one = BivariateSeries.one(order)
    return (v * a.exp() - f.exp() + one - v).is_zero()


def check_exp_connected_is_mapping(order: int) -> bool:
    """exp of the connected series reproduces the mapping series."""
    return (connected_series(order).exp() - mapping_series(order)).is_zero()


def series_count_table(s: BivariateSeries, n: int) -> CountTable:
    """CountTable of n! [z^n v^m] for m = 1..n, for any of the counting series."""
    values = {}
    for m in range(1, n + 1):
        x = s.count(n, m)
        if x:
            values[m] = x
    return CountTable(n=n, values=values)
