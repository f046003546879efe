import math

import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from cayley_runs import clt_constants, lambert_w, rho_residual, singularity_data
from cayley_runs.asymptotics import (
    MEAN_SLOPE,
    VARIANCE_SLOPE,
    DomainError,
    StepTooLargeError,
    tau_double_prime_closed,
    tau_prime_closed,
    _central_derivatives,
    _mgf_exponent_slope,
)


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


def test_lambert_w_domain():
    with pytest.raises(DomainError):
        lambert_w(-0.5)


def test_singularity_at_one():
    data = singularity_data(1.0)
    assert abs(data.tau - 1.0) <= 1e-12
    assert abs(data.rho - math.exp(-1.0)) <= 1e-12


def test_singularity_at_half_against_fixed_point_oracle():
    tau = 1.0
    for _ in range(200):
        tau = 1.0 + math.exp(-tau)
    data = singularity_data(0.5)
    assert abs(data.tau - tau) < 1e-4
    assert abs(data.tau - 1.2785) < 1e-4


@given(st.floats(0.25, 4.9))
def test_rho_defining_product(v):
    data = singularity_data(v)
    assert abs(data.rho * v * math.exp(data.tau) - 1.0) <= 1e-10


def test_rho_functional_equation_on_grid():
    for v in [0.3 + 0.2 * k for k in range(22)]:
        assert abs(rho_residual(v)) <= 1e-10


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


def test_clt_constants_match_closed_forms():
    c = clt_constants()
    assert abs(c.mu - (1.0 - math.exp(-1.0))) <= 1e-8
    assert abs(c.sigma2 - (math.exp(-1.0) - 2.0 * math.exp(-2.0))) <= 1e-8
    assert c.sigma2 > 0.0  # variability condition
    assert abs(c.v_prime0 - 1.0 / (2.0 * math.e)) <= 1e-9
    assert abs(c.v_doubleprime0 - (1.5 / math.e ** 2 - 1.0 / (2.0 * math.e))) <= 1e-9


def test_clt_offset_derivatives_are_stable():
    a = clt_constants(1e-3)
    b = clt_constants(5e-4)
    assert abs(a.v_prime0 - b.v_prime0) < 1e-6
    assert abs(a.v_doubleprime0 - b.v_doubleprime0) < 1e-5


def test_tau_derivative_closed_forms():
    assert abs(tau_prime_closed(1.0) + math.exp(-1.0)) < 1e-12
    expected = -math.exp(-2.0) + (2.0 * math.e - 1.0) * math.exp(-2.0)
    assert abs(tau_double_prime_closed(1.0) - expected) < 1e-12
    assert abs(1.0 + tau_prime_closed(1.0) - MEAN_SLOPE) < 1e-12
    assert abs(tau_double_prime_closed(1.0) + tau_prime_closed(1.0)
               - VARIANCE_SLOPE) < 1e-12


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


def test_step_guard():
    with pytest.raises(StepTooLargeError):
        clt_constants(1e-2)
    with pytest.raises(StepTooLargeError):
        clt_constants(0.0)
