"""Singularity data and limit-law constants for the run count.

The dominant singularity rho(v) of the run-marked mapping series and
its local value tau(v) solve

    tau = 1 + (1 - v) / (v e^tau),      rho = 1 / (v e^tau).

With u = tau - 1 the first equation reads u e^u = (1 - v)/(e v), so

    tau(v) = 1 + W((1 - v)/(e v)),

with W the principal branch of Lambert's function (the argument is
above -1/e for every v > 0, and the principal branch is the one with
tau(1) = 1); hence rho(1) = 1/e.  Near s = 0 the run count X has the
quasi-power form E[e^(sX)] ~ e^(n U(s) + V(s)), where

    U(s) = -1 + s + tau(e^s),      V(s) = -ln sqrt(1 + rho(e^s) (1 - e^s)),

so X is asymptotically normal with mean U'(0) n + V'(0) and variance
U''(0) n + V''(0).  All four derivatives have closed forms, which
``clt_constants`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the function's real domain or configured window."""


class NoConvergenceError(ArithmeticError):
    pass


TAU_WINDOW = (0.2, 5.0)
LAMBERT_TOL = 1e-12
LAMBERT_MAX_ITER = 100

MEAN_SLOPE = 1.0 - math.exp(-1.0)                              # U'(0) = 0.6321205588285577
VARIANCE_SLOPE = math.exp(-1.0) - 2.0 * math.exp(-2.0)         # U''(0) = 0.0972088746982169
MEAN_OFFSET = 0.5 * math.exp(-1.0)                             # V'(0) = 0.18393972058572117
VARIANCE_OFFSET = 1.5 * math.exp(-2.0) - 0.5 * math.exp(-1.0)  # V''(0) = 0.019063204269197886


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
    if not math.isfinite(x) or x < branch:
        raise DomainError(f"lambert_w needs finite x >= -1/e, got {x}")
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
    """tau and rho at marking value v, from tau = 1 + W((1 - v)/(e v)).

    The characteristic equation tau = 1 + (1 - v)/(v e^tau) becomes
    u e^u = (1 - v)/(e v) with u = tau - 1.  The argument exceeds -1/e
    for every v > 0, and W is taken on its principal branch, which gives
    tau(1) = 1 and rho(1) = 1/e.  TAU_WINDOW is the range of v the
    library accepts, a policy rather than a limit of the formula.
    """
    lo, hi = TAU_WINDOW
    if not lo < v < hi:
        raise DomainError(f"v={v} outside window ({lo}, {hi})")
    tau = 1.0 + lambert_w((1.0 - v) / (math.e * v))
    return SingularityData(v=v, tau=tau, rho=1.0 / (v * math.exp(tau)))


def tau_derivatives(v: float) -> tuple[float, float]:
    """tau'(v) and tau''(v) by implicit differentiation of the characteristic equation.

    With d = v - 1 - v e^tau, tau' = 1/(v d) and
    tau'' = e^tau/(v d^3) + (2 v e^tau + 1 - 2 v)/(v^2 d^2).
    """
    et = math.exp(singularity_data(v).tau)
    d = v - 1.0 - v * et
    return 1.0 / (v * d), et / (v * d ** 3) + (2.0 * v * et + 1.0 - 2.0 * v) / (v * v * d * d)


def clt_constants() -> CltConstants:
    """The limit-law constants U'(0), U''(0), V'(0) and V''(0), from their closed forms.

    U'(0) = 1 + tau'(1) and U''(0) = tau''(1) + tau'(1), with tau'(1) = -1/e
    and tau''(1) = (2e - 2)/e^2 from ``tau_derivatives``.  For V put
    g(s) = rho(e^s) (1 - e^s); then g'(0) = -1/e and, by
    rho'(1) = -rho(1) (1 + tau'(1)), g''(0) = -2 rho'(1) - 1/e = 1/e - 2/e^2,
    so V'(0) = -g'(0)/2 and V''(0) = (g'(0)^2 - g''(0))/2.
    """
    return CltConstants(mu=MEAN_SLOPE, sigma2=VARIANCE_SLOPE,
                        v_prime0=MEAN_OFFSET, v_doubleprime0=VARIANCE_OFFSET)
