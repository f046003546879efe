"""Singularity data and limit-law constants for the run count.

The dominant singularity rho(v) of the run-marked mapping series and
its local value tau(v) solve

    tau = 1 + (1 - v) / (v e^tau),      rho = 1 / (v e^tau),

with tau(1) = 1 and rho(1) = 1/e.  The Gaussian limit law has linear
mean and variance whose slopes are the derivatives at s = 0 of
U(s) = -1 + s + tau(e^s): U'(0) = 1 - 1/e and U''(0) = 1/e - 2/e^2.
This module works in double precision; every check carries an explicit
tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the function's real domain or configured window."""


class NoConvergenceError(ArithmeticError):
    pass


class StepTooLargeError(ValueError):
    pass


TAU_WINDOW = (0.2, 5.0)
TAU_TOL = 1e-14
TAU_MAX_ITER = 80
RHO_CONSISTENCY = 1e-10
LAMBERT_TOL = 1e-12
LAMBERT_MAX_ITER = 100

MEAN_SLOPE = 1.0 - math.exp(-1.0)              # 0.6321205588285577
VARIANCE_SLOPE = math.exp(-1.0) - 2.0 * math.exp(-2.0)  # 0.0972088746982169


@dataclass(frozen=True)
class SingularityData:
    v: float
    tau: float
    rho: float


@dataclass(frozen=True)
class CltConstants:
    mu: float
    sigma2: float
    v_prime0: float
    v_doubleprime0: float


def lambert_w(x: float) -> float:
    """Principal branch of w e^w = x for x >= -1/e, by at most LAMBERT_MAX_ITER Halley steps."""
    branch = -math.exp(-1.0)
    if x < branch:
        raise DomainError(f"lambert_w needs x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x <= branch * (1.0 - 1e-12):
        # only reachable through rounding right at the branch point
        return -1.0
    # start values: series near the branch point, log asymptote for large x
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0
    elif x < math.e:
        w = x / (1.0 + x) if x > 0 else x * math.exp(-x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        step = f / denom
        w -= step
        if abs(step) <= LAMBERT_TOL * max(1.0, abs(w)):
            return w
    raise NoConvergenceError(f"lambert_w({x}) did not converge")


def singularity_data(v: float) -> SingularityData:
    """Solve the characteristic equation for tau at marking value v.

    Newton iteration from tau = 1, until a step is below TAU_TOL relative
    to max(1, |tau|), for at most TAU_MAX_ITER steps; TAU_WINDOW keeps v
    where the solution is unique.  rho is computed from both available
    formulas, which must agree to RHO_CONSISTENCY, and cross-checked
    against the Lambert-W form rho = W((1-v)/(e v)) / (1-v) away from
    v = 1.  The alternative forms divide by 1 - v, so their comparison
    tolerance is widened by the round-off they amplify as v approaches 1.
    """
    lo, hi = TAU_WINDOW
    if not lo < v < hi:
        raise DomainError(f"v={v} outside window ({lo}, {hi})")
    tau = 1.0
    for _ in range(TAU_MAX_ITER):
        e_neg = math.exp(-tau)
        g = tau - 1.0 - (1.0 - v) * e_neg / v
        dg = 1.0 + (1.0 - v) * e_neg / v
        step = g / dg
        tau -= step
        if abs(step) <= TAU_TOL * max(1.0, abs(tau)):
            break
    else:
        raise NoConvergenceError(f"tau({v}) did not converge")
    rho = 1.0 / (v * math.exp(tau))
    if v == 1.0:
        rho_alt = 1.0 / math.e
        budget = RHO_CONSISTENCY
    else:
        rho_alt = (tau - 1.0) / (1.0 - v)
        budget = RHO_CONSISTENCY + 8.0 * sys.float_info.epsilon / abs(1.0 - v)
    if abs(rho - rho_alt) > budget * max(1.0, abs(rho)):
        raise NoConvergenceError(
            f"rho formulas disagree at v={v}: {rho} vs {rho_alt}")
    if v != 1.0:
        rho_w = lambert_w((1.0 - v) / (math.e * v)) / (1.0 - v)
        if abs(rho - rho_w) > budget * max(1.0, abs(rho)):
            raise NoConvergenceError(
                f"Lambert-W cross-check failed at v={v}: {rho} vs {rho_w}")
    return SingularityData(v=v, tau=tau, rho=rho)


def rho_residual(v: float) -> float:
    """Residual of (1-v) rho e^(rho (1-v)) = (1-v)/(e v) at the computed rho."""
    rho = singularity_data(v).rho
    return (1.0 - v) * rho * math.exp(rho * (1.0 - v)) - (1.0 - v) / (math.e * v)


def tau_prime_closed(v: float) -> float:
    """Implicit-differentiation form tau' = 1 / (v (v - 1 - v e^tau))."""
    tau = singularity_data(v).tau
    return 1.0 / (v * (v - 1.0 - v * math.exp(tau)))


def tau_double_prime_closed(v: float) -> float:
    """Second-derivative display; cross-checked against finite differences."""
    tau = singularity_data(v).tau
    et = math.exp(tau)
    d = v - 1.0 - v * et
    return et / (v * d ** 3) + (2.0 * v * et + 1.0 - 2.0 * v) / (v * v * d * d)


def _mgf_exponent_slope(s: float) -> float:
    """U(s) = -1 + s + tau(e^s)."""
    return -1.0 + s + singularity_data(math.exp(s)).tau


def _mgf_exponent_offset(s: float) -> float:
    """V(s) = -ln sqrt(1 + rho (1 - e^s)), via the cancellation-free rho = e^(-s-tau)."""
    tau = singularity_data(math.exp(s)).tau
    return -0.5 * math.log1p(math.exp(-s - tau) * (1.0 - math.exp(s)))


def _central_derivatives(fn, h: float) -> tuple[float, float]:
    """Richardson-extrapolated central first and second differences at 0.

    One extrapolation level turns the O(h^2) central formulas into
    O(h^4), which keeps truncation below the round-off floor at the
    permitted step sizes.
    """
    f0 = fn(0.0)

    def d1(step: float) -> float:
        return (fn(step) - fn(-step)) / (2.0 * step)

    def d2(step: float) -> float:
        return (fn(step) - 2.0 * f0 + fn(-step)) / (step * step)

    first = (4.0 * d1(h / 2.0) - d1(h)) / 3.0
    second = (4.0 * d2(h / 2.0) - d2(h)) / 3.0
    return first, second


def clt_constants(h: float = 1e-3) -> CltConstants:
    """Limit-law constants by finite differences of the quasi-power exponents.

    mu and sigma2 are U'(0) and U''(0); both are validated against their
    closed forms within max(10 h^2, 1e-8) and against the implicit
    tau'(1), tau''(1) displays, trusting the finite differences if the
    displays were transcribed wrong.  V'(0) and V''(0) are returned as
    computed; the tests hold them to 1/(2e) and 3/(2e^2) - 1/(2e).
    """
    if not 0.0 < h <= 1e-3:
        raise StepTooLargeError(f"h={h} outside (0, 1e-3]")
    mu, sigma2 = _central_derivatives(_mgf_exponent_slope, h)
    tol = max(10.0 * h * h, 1e-8)
    if abs(mu - MEAN_SLOPE) > tol:
        raise NoConvergenceError(
            f"U'(0)={mu!r} vs closed form {MEAN_SLOPE!r} beyond {tol}")
    if abs(sigma2 - VARIANCE_SLOPE) > tol:
        raise NoConvergenceError(
            f"U''(0)={sigma2!r} vs closed form {VARIANCE_SLOPE!r} beyond {tol}")
    tp, tpp = tau_prime_closed(1.0), tau_double_prime_closed(1.0)
    if abs(1.0 + tp - MEAN_SLOPE) > tol or abs(tpp + tp - VARIANCE_SLOPE) > tol:
        raise NoConvergenceError(
            "closed-form tau derivative displays disagree with the limit constants")
    v1, v2 = _central_derivatives(_mgf_exponent_offset, h)
    return CltConstants(mu=mu, sigma2=sigma2, v_prime0=v1, v_doubleprime0=v2)
