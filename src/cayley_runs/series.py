"""Exact truncated bivariate power series and the run-counting functional equations.

Every series here counts labelled objects, so it is held in one format:
its EGF integers.  A series truncated at order N in the size variable z
stores, for each n <= N, the integers n! [z^n v^m] as a polynomial in the
run-marking variable v.  No floating point and no rational arithmetic
enters this module.

Polynomials in v are multiplied by Kronecker substitution: a row p is
packed as the integer p(2^w), so p q is one big-integer product, and the
coefficients are read back off in base 2^w as balanced digits in
[-2^(w-1), 2^(w-1)).  ``_pack`` and ``_unpack`` are that codec.  Packing
v -> 2^w is a ring homomorphism Z[v] -> Z, so any sum of products packs
to the packed sum of packed products; reading a packed row back is exact
when every coefficient of that row is below 2^(w-1) in absolute value,
which ``_width`` guarantees for a bound on them.

Two width rules apply.

* The solvers hold every row packed at one width per call,
  w = _width(N^N), and unpack only the rows they return.  So only the
  returned rows must fit, and each has nonnegative coefficients summing
  to at most n^n <= N^N: trees sum to n^(n-1), A at v = 1 is the tree
  function, and connected mappings sum to at most n^n.  The signed
  Horner intermediates of A's and F's closed forms are never unpacked,
  so their sizes do not matter; C's sweep holds returned rows only.
  A, F and C are sweeps over packed rows run by ``_solved``; R packs
  nothing, as it is read off A's unpacked rows, and
  ``connected_run_table`` packs its one row n at the width of order n.
* The checks' product and exponential pack each output row k at its own
  width, from the operands' 1-norms: every coefficient of row k of AB
  is at most sum_j C(k, j) |a_j|_1 |b_(k-j)|_1 in absolute value.  Row k
  of e^S is a product sum over rows s_j and e_(k-j) already computed, so
  the same bound holds with their norms.  Operand coefficients need not
  fit, as packing is only evaluation, and results may be signed, hence
  the balanced digits.  Widths are rounded up to whole 32-bit steps, so
  that neighbouring rows share their operands' packs; one width for a
  whole product would pad every low row to the size of the top one.
  Both take terms only over pairs of nonzero operand rows, so a product
  with a one-row operand such as z, v or 1 - v makes one term per row.

The solvers never iterate to a fixed point.  A and F are Lagrange
inversion closed forms, each row a sum over k of integer weights times
v^k (1 - v)^(n-k).  R is read off A's rows, two terms per coefficient.
C computes each coefficient once, in increasing n, from lower ones by a
binomial convolution over T read off A (online evaluation of the
functional equation).  All return their integer rows as a
BivariateSeries.  The identity checks use the BivariateSeries arithmetic,
whose EGF product and exponential are coded apart from the solvers'
helpers, with their own width rule: a second, independent implementation
that shares only the codec.

The four generating functions handled here, with counts recovered as
n! [z^n v^m]:

* auxiliary_series   solves  A = z (v e^A + 1 - v),
* tree_series        solves  dF/dz = (e^F - 1 + v) / (1 - z (e^F - 1 + v)),
  so n! [z^n v^m] counts size-n trees with m ascending runs; as
  e^F = v e^A + 1 - v, F is a function of A, and both come from one
  Lagrange inversion step per coefficient,
* mapping_series     is  1 / (1 - z v e^A),  counting mappings by runs,
  read off A as 1 + v (1 - v) dA/dv + v z dA/dz,
* connected_series   is  ln 1 / (1 - z v e^A),  counting connected mappings by
  runs: the paper's ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)) reduced.
  It reads T = z v e^A = A - (1 - v) z off A, so no solver computes e^A.
  ``connected_run_table`` computes one row of C as a Lagrange row, as
  for A and F, without the sweep.
"""

from __future__ import annotations

import math

from .exact import CountTable

_CHECK_STEP = 32  # bits; the checks round their widths up to whole steps


def _width(bound: int) -> int:
    """Digit width w whose balanced digits hold every integer of absolute value <= bound."""
    return bound.bit_length() + 1


def _pack(row, w: int) -> int:
    """row(2^w) for the integer polynomial in v with coefficients row."""
    x = 0
    for c in reversed(row):
        x = (x << w) + c
    return x


def _unpack(x: int, w: int) -> tuple[int, ...]:
    """The coefficients of x in base 2^w as balanced digits, without trailing zeros."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    row = []
    while x:
        x += half
        row.append((x & mask) - half)
        x >>= w
    return tuple(row)


def _trimmed(row) -> tuple[int, ...]:
    if row and not row[-1]:
        end = len(row) - 1
        while end and not row[end - 1]:
            end -= 1
        row = row[:end]
    return tuple(row)


class _Rows:
    """The rows of one operand of a product, with their 1-norms, packed on demand.

    ``nonzero`` lists the indices of the nonzero rows in increasing order.
    Packs are kept for the last width asked for, which neighbouring output
    rows often share.
    """

    __slots__ = ("rows", "norms", "nonzero", "_w", "_packed")

    def __init__(self, rows) -> None:
        self.rows, self.norms, self.nonzero = [], [], []
        for row in rows:
            self.append(row)
        self._w, self._packed = 0, {}

    def append(self, row) -> None:
        norm = sum(map(abs, row))
        if norm:
            self.nonzero.append(len(self.rows))
        self.rows.append(row)
        self.norms.append(norm)

    def pairs(self, other: "_Rows", k: int) -> list[tuple[int, int]]:
        """The (j, k - j) with row j here and row k - j of other both nonzero.

        Walks the side with fewer nonzero rows, so that a product with a
        one-row operand such as z, v or 1 - v makes O(1) terms per row.
        """
        if len(self.nonzero) <= len(other.nonzero):
            return [(j, k - j) for j in self.nonzero if j <= k and other.norms[k - j]]
        return [(k - l, l) for l in other.nonzero if l <= k and self.norms[k - l]]

    def packed(self, j: int, w: int) -> int:
        if w != self._w:
            self._w, self._packed = w, {}
        x = self._packed.get(j)
        if x is None:
            x = self._packed[j] = _pack(self.rows[j], w)
        return x


def _vpoly_sum(terms, a: _Rows, b: _Rows) -> tuple[int, ...]:
    """Sum of c a_j b_l over the (c, j, l) in terms, for rows a_j, b_l of integer polynomials in v.

    Every coefficient of the sum is at most sum c |a_j|_1 |b_l|_1 in
    absolute value, and the whole sum is one Kronecker product per term
    at the width that bound needs, rounded up to a whole step so that
    neighbouring rows reuse their packs.  Kept apart from the solvers'
    ``_binomial_conv``, so that the identity checks share no arithmetic
    with the solvers they check beyond the codec.  Callers pass only
    nonzero rows (``_Rows.pairs``).
    """
    if not terms:
        return ()
    na, nb = a.norms, b.norms
    w = -(-_width(sum(c * na[j] * nb[l] for c, j, l in terms)) // _CHECK_STEP) * _CHECK_STEP
    return _unpack(sum(c * a.packed(j, w) * b.packed(l, w) for c, j, l in terms), w)


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
        rows = [list(row) for row in list(rows)[: order + 1]]
        if any(type(x) is not int for row in rows for x in row):  # bool is an int subclass
            raise TypeError("EGF coefficients must be integers")
        self._set(order, rows)

    def _set(self, order: int, rows) -> None:
        egf = [_trimmed(row) for row in rows]
        egf += [()] * (order + 1 - len(egf))
        self.order = order
        self.egf: tuple[tuple[int, ...], ...] = tuple(egf)

    @classmethod
    def _of(cls, order: int, rows) -> "BivariateSeries":
        """The series with at most order + 1 integer rows, trimmed but not re-validated."""
        s = cls.__new__(cls)
        s._set(order, rows)
        return s

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

    def count(self, n: int, m: int) -> int:
        """n! [z^n v^m]."""
        if not 0 <= n <= self.order:
            raise IndexError(f"z-order {n} outside truncation {self.order}")
        row = self.egf[n]
        return row[m] if 0 <= m < len(row) else 0

    def _lift(self, other) -> "BivariateSeries":
        return BivariateSeries(self.order, [(other,)]) if isinstance(other, int) else other

    def __add__(self, other) -> "BivariateSeries":
        other = self._lift(other)
        rows = []
        for p, q in zip(self.egf, other.egf):
            if len(p) < len(q):
                p, q = q, p
            rows.append([x + q[i] if i < len(q) else x for i, x in enumerate(p)])
        return BivariateSeries._of(min(self.order, other.order), rows)

    __radd__ = __add__

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries._of(self.order, [[-x for x in p] for p in self.egf])

    def __sub__(self, other) -> "BivariateSeries":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "BivariateSeries":
        return (-self) + other

    def __mul__(self, other) -> "BivariateSeries":
        """EGF product: k! [z^k] of AB is sum_j C(k, j) a_j b_{k-j}."""
        other = self._lift(other)
        order = min(self.order, other.order)
        a, b = _Rows(self.egf), _Rows(other.egf)
        return BivariateSeries._of(order, [
            _vpoly_sum([(math.comb(k, j), j, l) for j, l in a.pairs(b, k)], a, b)
            for k in range(order + 1)])

    __rmul__ = __mul__

    def exp(self) -> "BivariateSeries":
        """Exponential; requires zero constant term.

        From E' = S' E: e_k = sum_{j=1..k} C(k-1, j-1) s_j e_{k-j}.
        """
        s = self.egf
        if s[0]:
            raise ValueError("exp needs zero constant term")
        s, e = _Rows(s), _Rows([(1,)])
        for k in range(1, self.order + 1):
            e.append(_vpoly_sum([(math.comb(k - 1, j - 1), j, l) for j, l in s.pairs(e, k)], s, e))
        return BivariateSeries._of(self.order, e.rows)

    def diff_z(self) -> "BivariateSeries":
        """d/dz, one order lower: n! [z^n] S' = (n+1)! [z^(n+1)] S, a shift of the rows."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return BivariateSeries._of(self.order - 1, self.egf[1:])

    def diff_v(self) -> "BivariateSeries":
        return BivariateSeries._of(self.order, [[m * x for m, x in enumerate(p)][1:]
                                                for p in self.egf])

    def truncate(self, order: int) -> "BivariateSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return BivariateSeries._of(order, self.egf[: order + 1])


def _solver_width(order: int) -> int:
    """The one packing width of a solver call truncated at z^order (module docstring)."""
    return _width(order ** order)


def _solved(order: int, sweep, rows=()) -> BivariateSeries:
    """The series whose rows, packed at v, ``sweep(v, packed)`` returns from ``rows`` packed at v.

    The sweep runs once, at v = 2^w with w = _solver_width(order).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    w = _solver_width(order)
    return BivariateSeries._of(order, [_unpack(x, w) for x in
                                       sweep(1 << w, [_pack(p, w) for p in rows])])


def _binomial_conv(k: int, a: list[int], b: list[int], js: range) -> int:
    """Sum over j in js of C(k, j) a[j] b[k - j] for packed rows: k! [z^k] of a product of EGFs."""
    return sum(math.comb(k, j) * a[j] * b[k - j] for j in js)


def _lagrange_row(n: int, weight, w: int) -> int:
    """sum_{k=0..n} weight(n, k) v^k (1 - v)^(n-k), packed at v = 2^w.

    Homogeneous Horner in (v, 1 - v): h <- (1 - v) h + c_k v^k for
    k = 0..n, which at v = 2^w is one shift, one subtraction and one
    addition per step.  Packing is a ring homomorphism, so the signed
    intermediates are never unpacked: only the returned row must fit the
    width (module docstring).
    """
    h = 0
    for k in range(n + 1):
        h += (weight(n, k) << k * w) - (h << w)
    return h


def _lagrange_series(order: int, weight) -> BivariateSeries:
    """The series with row 0 zero and row n >= 1 sum_{k=0..n} weight(n, k) v^k (1 - v)^(n-k)."""
    def sweep(v, _):
        w = v.bit_length() - 1
        return [0, *(_lagrange_row(n, weight, w) for n in range(1, order + 1))]
    return _solved(order, sweep)


def auxiliary_series(order: int) -> BivariateSeries:
    """Unique zero-at-origin solution of A = z (v e^A + 1 - v), by Lagrange inversion.

    A = z phi(A) with phi(u) = v e^u + 1 - v, so Lagrange-Buermann,
    n [z^n] H(A) = [u^(n-1)] H'(u) phi(u)^n (Flajolet and Sedgewick,
    Analytic Combinatorics, Thm A.2), gives with H(u) = u
    n [z^n] A = [u^(n-1)] phi(u)^n.  Expanding
    phi(u)^n = sum_k C(n, k) v^k (1 - v)^(n-k) e^(ku), whose [u^(n-1)] has
    the factor k^(n-1) / (n-1)!, this is
    n! [z^n] A = sum_{k=0..n} C(n, k) k^(n-1) v^k (1 - v)^(n-k),
    with 0^0 = 1, so that a_1 = 1.
    """
    return _lagrange_series(order, lambda n, k: math.comb(n, k) * k ** (n - 1))


def tree_series(order: int) -> BivariateSeries:
    """Run-marked tree series: n! [z^n v^m] counts size-n trees with m runs.

    F solves dF/dz = g / (1 - z g) with g = e^F - 1 + v, and e^F = phi(A)
    for the auxiliary series A = z phi(A), phi(u) = v e^u + 1 - v (the
    identity ``check_aux_tree_relation`` tests).  So F = H(A) with
    H = ln phi, and H' phi^n = phi' phi^(n-1) = (phi^n)' / n, so
    Lagrange-Buermann as in ``auxiliary_series`` gives
    n [z^n] F = [u^(n-1)] (phi(u)^n)' / n = [u^n] phi(u)^n.  Expanding
    phi(u)^n as there, with [u^n] e^(ku) = k^n / n!,
    n! [z^n] F = sum_{k=1..n} C(n, k) k^n / n v^k (1 - v)^(n-k),
    where C(n, k) k^n / n = C(n-1, k-1) k^(n-1) is an integer.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    return _lagrange_series(order, lambda n, k: math.comb(n, k) * k ** n // n)


def mapping_series(order: int) -> BivariateSeries:
    """Run-marked mapping series 1 / (1 - z v e^A) with A the auxiliary series.

    R = 1 + v (1 - v) dA/dv + v z dA/dz, so r_0 = 1 and, for n >= 1,
    n! [z^n v^m] R = m a_(n,m) + (n - m + 1) a_(n,m-1).  Proof: row n of A
    is sum_k w_k v^k (1 - v)^(n-k) with w_k = C(n, k) k^(n-1)
    (``auxiliary_series``).  R = 1/(1 - T) is a function of T with
    g_k = k! [y^k] R = k^k, so as in ``connected_run_table`` its row n is
    sum_k C(n, k) k^n v^k (1 - v)^(n-k): A's row with weights k w_k.  For
    h = v^k (1 - v)^(n-k), v (1 - v) h' = k h - n v h, so
    v (1 - v) h' + n v h = k h multiplies each weight by k, and
    n! [z^n] of v z dA/dz is n v times row n of A.  Reading off v^m gives
    the identity.
    """
    rows = [(1,)]
    for n, a in enumerate(auxiliary_series(order).egf[1:], 1):
        a = (0, *a, 0)  # a[m] is a_(n,m-1)
        rows.append([m * a[m + 1] + (n - m + 1) * a[m] for m in range(len(a) - 1)])
    return BivariateSeries._of(order, rows)


def connected_series(order: int) -> BivariateSeries:
    """Run-marked connected-mapping series ln 1 / (1 - T), each component a cycle of trees.

    By A's equation A = z (v e^A + 1 - v), the paper's form
    ln((v e^A + 1 - v) / (v e^A (1 - A) + 1 - v)) has numerator A/z and
    denominator A/z - v e^A A = (A/z) (1 - T), T = z v e^A.  So (1 - T) C' = T',
    and by A's equation again T = A - (1 - v) z, so t_j = j! [z^j] T is v
    for j = 1 and a_j for j >= 2, and
    c_k = t_k + sum_{j=1..k-1} C(k-1, j) t_j c_{k-j}.
    """
    def sweep(v, a):
        t = [0, v, *a]
        c = []  # c[i] is c_(i+1)
        for k in range(1, order + 1):
            c.append(t[k] + _binomial_conv(k - 1, t, c, range(1, k)))
        return [0, *c]
    return _solved(order, sweep, auxiliary_series(order).egf[2:])


def pde_residual(f: BivariateSeries) -> BivariateSeries:
    """Residual of (1 - z v e^F) F_z - v (1 - v) e^F F_v - v e^F, one order lower.

    Identically zero exactly when f solves the run-marked tree equation.
    Gathering the three e^F terms, the residual is F_z - e^F G with
    G = z v F_z + v (1 - v) F_v + v.  Truncation at z^(order - 1) is a
    ring homomorphism and every step is exact integer arithmetic, so this
    is the same series as the three-term form, term by term, for any f:
    e^F G is its one dense product, and the products by z v and
    v (1 - v) act on one-row operands.
    """
    fz = f.diff_z()
    low = f.truncate(f.order - 1)
    v = BivariateSeries.v(low.order)
    g = BivariateSeries.z(low.order) * v * fz + v * (1 - v) * low.diff_v() + v
    return fz - low.exp() * g


def check_mapping_from_tree_derivative(order: int) -> bool:
    """Mapping series = 1 + z dF/dz: n! [z^n] z F' = n f_n, so each mapping count is n times the tree count."""
    f = tree_series(order)
    r = mapping_series(order)
    z_fz = BivariateSeries._of(order, [[k * x for x in p] for k, p in enumerate(f.egf)])
    return r == 1 + z_fz


def check_aux_tree_relation(order: int) -> bool:
    """v e^A = e^F - 1 + v, linking the auxiliary and tree series."""
    f = tree_series(order)
    a = auxiliary_series(order)
    v = BivariateSeries.v(order)
    return v * a.exp() + (1 - v) == f.exp()


def check_exp_connected_is_mapping(order: int) -> bool:
    """exp(C) = R.  C sweeps over the 1 - T read off A, and R is A's rows through an
    identity of the true A, so this tests C's log sweep against ``BivariateSeries.exp``
    and R's identity, and a wrong A fails it too."""
    return connected_series(order).exp() == mapping_series(order)


def _connected_mappings(k: int) -> int:
    """c_k = (k-1)! sum_{i<k} k^i / i!, the connected mappings of size k >= 1:
    P_0 = 1, P_i = i P_(i-1) + k^i, c_k = P_(k-1)."""
    p = power = 1
    for i in range(1, k):
        power *= k
        p = i * p + power
    return p


def connected_run_table(n: int) -> CountTable:
    """CountTable of size-n connected mappings by runs, from one Lagrange row.

    C = ln 1/(1 - T) is a function of T alone, and by A's equation
    T = A - (1 - v) z = y e^T with y = z v e^((1 - v) z): T is the Cayley
    tree function at y, so k! [y^k] C = c_k, the number of connected
    mappings of size k.  As n! [z^n] y^k = C(n, k) k^(n-k) v^k (1 - v)^(n-k),
    n! [z^n] C = sum_{k=1..n} C(n, k) c_k k^(n-k) v^k (1 - v)^(n-k),
    the row shape of ``auxiliary_series``.  It is nonnegative and sums to
    at most n^n, so it is unpacked exactly at the solver width of order n.

    The formula needs the run-marked class to be a function of the
    run-marked T as a whole, as R and C are.  Fixed-point-free mappings,
    e^(-T) / (1 - T) with g_k = (k - 1)^k, are so only at v = 1: at n = 2
    the row gives v^2, but the one such mapping, 2 1, has 1 run; at n = 3
    it gives {2: 6, 3: 2} against {1: 2, 2: 6} by brute force.  A cycle
    longer than 1 can block a run start, which the marking of T does not see.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    c = [0, *(_connected_mappings(k) for k in range(1, n + 1))]
    w = _solver_width(n)
    row = _unpack(_lagrange_row(n, lambda n, k: math.comb(n, k) * c[k] * k ** (n - k), w), w)
    return CountTable(n=n, values={m: x for m, x in enumerate(row) if x})


def series_count_table(s: BivariateSeries, n: int) -> CountTable:
    """CountTable of n! [z^n v^m] for m = 1..n, for any of the counting series."""
    values = {}
    for m in range(1, n + 1):
        x = s.count(n, m)
        if x:
            values[m] = x
    return CountTable(n=n, values=values)
