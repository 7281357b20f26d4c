"""Bruggeman effective-medium approximation and its comparison with the exact expansion.

The self-consistency condition < (sigma - x) / (sigma + (d-1) x) > = 0 has a
unique positive root: the averaged fraction is decreasing in x, positive at
the smallest atom and negative at the largest.  The root is bracketed and
polished by damped Newton.  Its own moment expansion shares the exact
expansion's terms through order 3 in any dimension and through order 4 in
2D; the leading difference term and its sign are what `compare` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import DimensionConstants
from .distributions import DistributionSpec, moments
from .errors import CapabilityError, SolverError
from .expansion import (
    ExpansionCoefficients,
    SeriesResult,
    evaluate_series,
    max_order,
    sigma_e_series,
)

_BISECT_REL_WIDTH = 1e-3
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class BruggemanResult:
    sigma_B: float
    xi: float          # sigma_B / <sigma>
    residual: float    # averaged fraction at the root
    iterations: int


@dataclass(frozen=True)
class ComparisonReport:
    """Leading-order comparison of the exact expansion against Bruggeman.

    leading_difference approximates sigma_e - sigma_B by its first
    non-shared expansion term (of total order leading_order in u);
    predicted_sign is 'indeterminate' when that term is smaller than the
    uncertainty of the constants entering its coefficient.
    """

    sigma_e_series: SeriesResult
    sigma_B: BruggemanResult
    leading_difference: float
    leading_order: int
    predicted_sign: str
    case: str


def solve_bruggeman(dist: DistributionSpec, d: int, tol: float = 1e-12) -> BruggemanResult:
    """Unique positive root of the self-consistency condition.

    Works for d >= 1; at d = 1 the root is the harmonic mean.  Bisection
    shrinks the bracket [min sigma, max sigma] to relative width 1e-3, then
    Newton (clamped to the bracket) polishes until the root's error bound
    (|f(x)| + rounding of f) / min |f'| over the bracket is at most tol * x.
    A polish that has not met it after _NEWTON_STEPS steps raises
    SolverError; at high contrast, where f' is tiny at the root, rounding
    alone can keep the bound above tol.
    """
    dist._require_atoms("solve_bruggeman")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    v = dist.values()
    p = dist.probs()
    delta = d - 1.0

    def f(x):
        return float(np.dot(p, (v - x) / (v + delta * x)))

    def fprime(x):
        return float(np.dot(p, -d * v / (v + delta * x) ** 2))

    vmin, vmax = float(v.min()), float(v.max())
    lo, hi = vmin, vmax
    iterations = 0
    if lo == hi:
        return BruggemanResult(sigma_B=lo, xi=1.0, residual=f(lo), iterations=0)

    while (hi - lo) > _BISECT_REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid

    # The root error is at most (|f(x)| + rounding of f) / min |f'| over the
    # bracket; |f'| does not increase with x, so that minimum is at hi.  Each
    # ratio (v - x)/(v + (d-1) x) increases with v and decreases with x, so on
    # the bracket its size is at most that of the smallest atom at hi or of
    # the largest at lo; it carries <= 4 roundings, and the sum <= len(v).
    slope = abs(fprime(hi))
    ratio_max = max((hi - vmin) / (vmin + delta * hi), (vmax - lo) / (vmax + delta * lo))
    round_off = (len(v) + 4) * np.finfo(float).eps * ratio_max
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        iterations += 1
        residual = f(x)
        if abs(residual) + round_off <= tol * x * slope:
            break
        x = min(max(x - residual / fprime(x), lo), hi)
    else:
        residual = f(x)
        raise SolverError(
            f"Bruggeman Newton polish did not reach tol={tol:g} in {_NEWTON_STEPS} steps "
            f"(residual {residual:.3g})",
            residual=residual,
            iterations=iterations,
        )

    mean = float(np.dot(p, v))
    return BruggemanResult(sigma_B=x, xi=x / mean, residual=residual, iterations=iterations)


def bruggeman_coefficients(d: int, order: int) -> dict[tuple[int, ...], float]:
    """Moment-expansion coefficients of the Bruggeman root, rational in d."""
    if order < 2 or order > 6:
        raise CapabilityError("Bruggeman series implemented for orders 2..6")
    b = {
        (2,): -1.0 / d,
        (3,): 1.0 / d**2,
        (4,): -1.0 / d**3,
        (2, 2): -(d - 2.0) / d**3,
        (5,): 1.0 / d**4,
        (2, 3): (3.0 * d - 5.0) / d**4,
        (6,): -1.0 / d**5,
        (2, 4): -(4.0 * d - 6.0) / d**5,
        (3, 3): -(2.0 * d - 3.0) / d**5,
        (2, 2, 2): -(2.0 * d**2 - 8.0 * d + 7.0) / d**5,
    }
    return {sig: coef for sig, coef in b.items() if sum(sig) <= order}


def bruggeman_series(dist: DistributionSpec, d: int, order: int) -> SeriesResult:
    """Moment expansion of the Bruggeman root (no rigorous remainder bound)."""
    bmap = bruggeman_coefficients(d, order)
    coeffs = ExpansionCoefficients(d=d, order=order, a=bmap, err={sig: 0.0 for sig in bmap})
    mom = moments(dist, order)
    return replace(evaluate_series(coeffs, mom), remainder_bound=None)


def compare(dist: DistributionSpec, d: int, constants: DimensionConstants) -> ComparisonReport:
    """Sign and size of sigma_e - sigma_B at leading order in the disorder.

    Three regimes: d >= 3 (difference appears at order 4, coefficient
    (1 - H)/d^3 > 0); 2D with skewness (order 5, coefficient I - 1/16 > 0, so
    the sign follows <u^3>); symmetric 2D (order 6, negative coefficient on
    a nonnegative moment combination).
    """
    if d < 2:
        raise ValueError("comparison requires d >= 2")
    if constants.d != d:
        raise ValueError(f"constants are for d={constants.d}, not d={d}")
    order = max_order(d)
    series = sigma_e_series(dist, d, order, constants)
    root = solve_bruggeman(dist, d)
    mom = moments(dist, order)

    m2 = mom.u_moment(2)
    u_scale = max(mom.u0, 1e-30)
    if d >= 3:
        coef = (1.0 - constants.H) / d**3
        coef_err = constants.err["H"] / d**3
        factor = m2**2
        factor_scale = u_scale**4
        case, lead_order = "d_ge_3_variance", 4
    else:
        m3 = mom.u_moment(3)
        if abs(m3) > 1e-9 * u_scale**3:
            coef = constants.I - 1.0 / 16.0
            coef_err = constants.err["I"]
            factor = m2 * m3
            factor_scale = u_scale**5
            case, lead_order = "2d_skewed", 5
        else:
            coef = 1.5 * (1.0 / 16.0 - constants.I)
            coef_err = 1.5 * constants.err["I"]
            spread = mom.u_moment(4) - m2**2  # <(u^2 - <u^2>)^2>
            factor = m2 * spread
            factor_scale = u_scale**6
            case, lead_order = "2d_symmetric", 6

    lead = series.mean_sigma * coef * factor
    # below either threshold the term is inside the error bars (of the
    # computed constants, or of float cancellation in the moments)
    if abs(coef) <= coef_err or abs(factor) <= 1e-9 * factor_scale:
        sign = "indeterminate"
    else:
        sign = "positive" if lead > 0 else "negative"
    return ComparisonReport(
        sigma_e_series=series,
        sigma_B=root,
        leading_difference=float(lead),
        leading_order=lead_order,
        predicted_sign=sign,
        case=case,
    )
