import math
from decimal import Decimal, localcontext

import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from cayley_runs import clt_constants, exact_moments, lambert_w, singularity_data
from cayley_runs.asymptotics import (
    MEAN_SLOPE,
    TAU_WINDOW,
    VARIANCE_SLOPE,
    DomainError,
    tau_derivatives,
)


def _newton_tau(v):
    """Newton's method on g(tau) = tau - 1 - (1 - v) e^(-tau) / v from tau = 1.

    The oracle for the Lambert-W closed form: it shares nothing with
    lambert_w.  It stops once a step is below 1e-14 relative to
    max(1, |tau|), for at most 80 steps.
    """
    tau = 1.0
    for _ in range(80):
        e_neg = math.exp(-tau)
        step = (tau - 1.0 - (1.0 - v) * e_neg / v) / (1.0 + (1.0 - v) * e_neg / v)
        tau -= step
        if abs(step) <= 1e-14 * max(1.0, abs(tau)):
            return tau
    raise AssertionError(f"Newton for tau({v}) did not converge")


# The finite-difference oracle: the limit-law constants as derivatives at s = 0
# of the quasi-power exponents U and V, from singularity_data alone.

def _mgf_exponent_slope(s):
    """U(s) = -1 + s + tau(e^s)."""
    return -1.0 + s + singularity_data(math.exp(s)).tau


def _mgf_exponent_offset(s):
    """V(s) = -ln sqrt(1 + rho (1 - e^s)), via the cancellation-free rho = e^(-s-tau)."""
    tau = singularity_data(math.exp(s)).tau
    return -0.5 * math.log1p(math.exp(-s - tau) * (1.0 - math.exp(s)))


def _central_derivatives(fn, h):
    """Richardson-extrapolated central first and second differences at 0.

    One extrapolation level turns the O(h^2) central formulas into
    O(h^4), which keeps truncation below the round-off floor at h = 1e-3.
    """
    f0 = fn(0.0)

    def d1(step):
        return (fn(step) - fn(-step)) / (2.0 * step)

    def d2(step):
        return (fn(step) - 2.0 * f0 + fn(-step)) / (step * step)

    return (4.0 * d1(h / 2.0) - d1(h)) / 3.0, (4.0 * d2(h / 2.0) - d2(h)) / 3.0


def test_lambert_w_anchor_points():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) < 1e-12
    assert lambert_w(-math.exp(-1.0)) == -1.0


@given(st.floats(-0.367879, 50.0, allow_nan=False))
def test_lambert_w_defining_identity(x):
    w = lambert_w(x)
    assert abs(w * math.exp(w) - x) <= 1e-11 * max(1.0, abs(x))


@given(st.floats(-0.36, 50.0))
def test_lambert_w_against_scipy(x):
    assert abs(lambert_w(x) - scipy.special.lambertw(x).real) < 1e-9


@pytest.mark.parametrize("x", [1e-3, -1e-3, 1e-8, -1e-8, 1e-12, -1e-12])
def test_lambert_w_near_zero_is_relatively_accurate(x):
    # tau(v) near v = 1 is 1 + W(x) at tiny x, so W must hold its relative accuracy there
    w = scipy.special.lambertw(x).real
    assert abs(lambert_w(x) - w) <= 1e-14 * abs(w)


def test_lambert_w_domain():
    for x in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lambert_w(x)


def test_singularity_at_one():
    data = singularity_data(1.0)
    assert abs(data.tau - 1.0) <= 1e-12
    assert abs(data.rho - math.exp(-1.0)) <= 1e-12


def test_singularity_at_half_against_fixed_point_oracle():
    tau = 1.0
    for _ in range(200):
        tau = 1.0 + math.exp(-tau)
    data = singularity_data(0.5)
    assert abs(data.tau - tau) < 1e-14
    assert abs(data.tau - 1.2785) < 1e-4


@given(st.floats(0.25, 4.9))
def test_rho_defining_product(v):
    data = singularity_data(v)
    assert abs(data.rho * v * math.exp(data.tau) - 1.0) <= 1e-10
    # rho's product holds by construction; tau must also solve the characteristic equation
    tau = data.tau
    assert abs(tau - 1.0 - (1.0 - v) * math.exp(-tau) / v) <= 4 * math.ulp(tau)


def test_tau_matches_newton_oracle_on_window_grid():
    lo, hi = TAU_WINDOW
    for k in range(1, 1001):
        v = lo + (hi - lo) * k / 1001
        tau = singularity_data(v).tau
        assert abs(tau - _newton_tau(v)) <= 4 * math.ulp(tau), v


def test_rho_functional_equation_on_grid():
    # (1 - v) rho e^(rho (1 - v)) = (1 - v)/(e v), the functional equation of rho
    for v in [0.3 + 0.2 * k for k in range(22)]:
        rho = singularity_data(v).rho
        residual = (1.0 - v) * rho * math.exp(rho * (1.0 - v)) - (1.0 - v) / (math.e * v)
        assert abs(residual) <= 1e-10


def test_rho_window():
    with pytest.raises(DomainError):
        singularity_data(0.1)
    with pytest.raises(DomainError):
        singularity_data(6.0)


def test_lambert_form_tends_to_one_over_e():
    prev = None
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        v = 1.0 + eps
        val = lambert_w((1.0 - v) / (math.e * v)) / (1.0 - v)
        err = abs(val - math.exp(-1.0))
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-5


def _closed_forms():
    """e and the closed forms of mu, sigma2, V'(0) and V''(0), to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(1).exp()
        return e, (1 - 1 / e, 1 / e - 2 / e ** 2, 1 / (2 * e), (3 - e) / (2 * e ** 2))


def test_clt_constants_match_closed_forms():
    c = clt_constants()
    assert c.sigma2 > 0.0  # variability condition
    values = (c.mu, c.sigma2, c.v_prime0, c.v_doubleprime0)
    for value, closed in zip(values, _closed_forms()[1]):
        assert abs(Decimal(value) - closed) <= Decimal("1e-15") * closed  # a few ulps


def test_clt_constants_match_finite_differences():
    c = clt_constants()
    mu, sigma2 = _central_derivatives(_mgf_exponent_slope, 1e-3)
    v1, v2 = _central_derivatives(_mgf_exponent_offset, 1e-3)
    assert abs(c.mu - mu) <= 1e-8
    assert abs(c.sigma2 - sigma2) <= 1e-8
    assert abs(c.v_prime0 - v1) <= 1e-9
    assert abs(c.v_doubleprime0 - v2) <= 1e-9


@pytest.mark.parametrize("n", [100, 1000, 3000])
def test_exact_moments_expand_to_the_limit_constants(n):
    # With t = 1/n, p = (1 - t)^n = e^(-1) exp(-t/2 - t^2/3 - t^3/4 - ...) and
    # q = (1 - 2t)^n = e^(-2) exp(-2t - 8t^2/3 - 4t^3 - ...).  Expanding
    # E[X] = n (1 - p) and Var X = n^2 (q - p^2) + n (p - q) in t gives
    #   E[X]  = n mu + 1/(2e) + 5/(24e) t + 5/(48e) t^2 + 337/(5760e) t^3 + ...
    #   Var X = n sigma2 + (3 - e)/(2e^2) + (16 - 5e)/(24e^2) t
    #           + (22 - 5e)/(48e^2) t^2 + (2640 - 337e)/(5760e^2) t^3 + ...
    # so n (E[X] - n mu - V'(0)) = c1 + c2 t + c3 t^2 + O(t^3), and likewise for
    # Var X.  The logarithms put the nearest singularity at t = 1 (mean) and
    # t = 1/2 (variance), so the coefficients grow no faster than about 2^k, and at
    # t <= 1/100 the t^3 and later terms add less than c3 t^2:
    # |n * remainder - c1 - c2 t| <= 2 c3 t^2.
    e, (mu, sigma2, v1, v2) = _closed_forms()
    with localcontext() as ctx:
        ctx.prec = 50
        m = exact_moments(n)
        mean = Decimal(m.mean.numerator) / Decimal(m.mean.denominator)
        var = Decimal(m.variance.numerator) / Decimal(m.variance.denominator)
        expansions = [
            (mean - n * mu - v1, [5 / (24 * e), 5 / (48 * e), 337 / (5760 * e)]),
            (var - n * sigma2 - v2, [(16 - 5 * e) / (24 * e ** 2), (22 - 5 * e) / (48 * e ** 2),
                                     (2640 - 337 * e) / (5760 * e ** 2)]),
        ]
        for remainder, (c1, c2, c3) in expansions:
            assert abs(n * remainder - c1 - c2 / n) <= 2 * c3 / n ** 2


def test_tau_derivative_closed_forms():
    tp, tpp = tau_derivatives(1.0)
    assert abs(tp + math.exp(-1.0)) < 1e-12
    expected = -math.exp(-2.0) + (2.0 * math.e - 1.0) * math.exp(-2.0)
    assert abs(tpp - expected) < 1e-12
    assert abs(1.0 + tp - MEAN_SLOPE) < 1e-12
    assert abs(tpp + tp - VARIANCE_SLOPE) < 1e-12


def test_tau_derivatives_match_finite_differences_across_window():
    # the displays feed sigma^2(v) away from v = 1, so check them on a grid, not only at 1
    for k in range(199):
        v = 0.25 + (4.7 - 0.25) * k / 198
        tp, tpp = tau_derivatives(v)
        fd1, fd2 = _central_derivatives(lambda s, v=v: singularity_data(v + s).tau, 1e-3)
        assert abs(tp - fd1) <= 1e-9 * max(1.0, abs(tp)), v
        assert abs(tpp - fd2) <= 1e-7 * max(1.0, abs(tpp)), v


def test_uncorrected_central_difference_shows_second_order():
    # without extrapolation the plain central difference error shrinks ~4x per halving
    def d1(h):
        return (_mgf_exponent_slope(h) - _mgf_exponent_slope(-h)) / (2.0 * h)

    e1 = abs(d1(8e-3) - MEAN_SLOPE)
    e2 = abs(d1(4e-3) - MEAN_SLOPE)
    e3 = abs(d1(2e-3) - MEAN_SLOPE)
    assert 2.5 < e1 / e2 < 5.5
    assert 2.5 < e2 / e3 < 5.5


def test_richardson_derivatives_agree_with_analytic():
    first, second = _central_derivatives(math.sin, 1e-3)
    assert abs(first - 1.0) < 1e-10
    assert abs(second) < 1e-8
