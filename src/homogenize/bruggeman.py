"""Bruggeman effective-medium approximation and its comparison with the exact expansion.

The self-consistency condition < (sigma - x) / (sigma + (d-1) x) > = 0 has a
unique positive root: the averaged fraction is decreasing in x, positive at
the smallest atom and negative at the largest.  The root is bracketed and
polished by damped Newton.  Its own moment expansion shares the exact
expansion's terms through order 3 in any dimension and through order 4 in
2D.  `compare` reads the gap off the two coefficient maps, exact minus
Bruggeman, and reports its first order that stands above rounding on the
law's moments, with the sign of that term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import DimensionConstants
from .distributions import DistributionSpec, moment_sum, moments
from .errors import SolverError
from .expansion import (
    ExpansionCoefficients,
    SeriesResult,
    bruggeman_coefficients,
    coefficients,
    evaluate_series,
    max_order,
)

_BISECT_REL_WIDTH = 1e-3
_NEWTON_STEPS = 100
#: Relative error bound at which the Newton polish stops.
_TOL = 1e-12


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
    predicted_sign is 'indeterminate' when that term is within float
    cancellation or the uncertainty of the constants entering it.
    """

    sigma_e_series: SeriesResult
    sigma_B: BruggemanResult
    leading_difference: float
    leading_order: int
    predicted_sign: str
    case: str


def solve_bruggeman(dist: DistributionSpec, d: int) -> BruggemanResult:
    """Unique positive root of the self-consistency condition.

    Works for d >= 1; at d = 1 the root is the harmonic mean.  Bisection
    shrinks the bracket [min sigma, max sigma] to relative width 1e-3, then
    Newton (clamped to the bracket) polishes until the root's error bound
    (|f(x)| + rounding of f) / min |f'| over the bracket is at most _TOL * x.
    A polish that has not met it after _NEWTON_STEPS steps raises
    SolverError; at high contrast, where f' is tiny at the root, rounding
    alone can keep the bound above _TOL.
    """
    dist._require_atoms("solve_bruggeman")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = dist.values()
    p = dist.probs()
    delta = d - 1.0

    def f(x):
        return float(np.dot(p, (v - x) / (v + delta * x)))

    def fprime(x):
        # at an extreme scale the square over- or underflows for some atom, and
        # the slope, 0 or infinite, would stop or steer Newton wrongly
        with np.errstate(over="ignore", divide="ignore"):
            slope = float(np.dot(p, -d * v / (v + delta * x) ** 2))
        if slope == 0.0 or not math.isfinite(slope):
            residual = f(x)
            raise SolverError(f"Bruggeman slope f'({x:.3g}) = {slope:g}: the atoms' scale exceeds "
                              f"float range (residual {residual:.3g})",
                              residual=residual, iterations=iterations)
        return slope

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
        if abs(residual) + round_off <= _TOL * x * slope:
            break
        x = min(max(x - residual / fprime(x), lo), hi)
    else:
        residual = f(x)
        raise SolverError(
            f"Bruggeman Newton polish did not reach tol={_TOL:g} in {_NEWTON_STEPS} steps "
            f"(residual {residual:.3g})",
            residual=residual,
            iterations=iterations,
        )

    mean = float(np.dot(p, v))
    return BruggemanResult(sigma_B=x, xi=x / mean, residual=residual, iterations=iterations)


def bruggeman_series(dist: DistributionSpec, d: int, order: int) -> SeriesResult:
    """Moment expansion of the Bruggeman root (no rigorous remainder bound)."""
    bmap = bruggeman_coefficients(d, order)
    coeffs = ExpansionCoefficients(d=d, order=order, a=bmap, err={sig: 0.0 for sig in bmap})
    mom = moments(dist, order)
    return replace(evaluate_series(coeffs, mom), remainder_bound=None)


def compare(dist: DistributionSpec, d: int, constants: DimensionConstants) -> ComparisonReport:
    """Sign and size of sigma_e - sigma_B at leading order in the disorder.

    The order-k term is <sigma> sum gap_sig prod <u^s> over the signatures
    of order k, with gap = coefficients().a - bruggeman_coefficients().  The
    leading order is the first k whose term exceeds the cancellation floor
    1e-9 <sigma> sum |gap_sig| prod <|u|^s>, with odd <|u|^s> bounded by
    u0 <u^(s-1)>, or max_order(d) when none does: like-signed products
    stand above it however small, the rounding in <u^3> of a symmetric law
    does not.  The sign is 'indeterminate' when the term is at most the
    larger of that floor and <sigma> sum err_sig prod |<u^s>|, the error
    the constants give it.  The gap starts at order 4 in d >= 3, as (1 - H)/d^3 <u^2>^2;
    in 2D at order 5, as (I - 1/16) <u^2><u^3>, or for symmetric laws at
    order 6, as 1.5 (1/16 - I) <u^2>(<u^4> - <u^2>^2).
    """
    if d < 2:
        raise ValueError("comparison requires d >= 2")
    if constants.d != d:
        raise ValueError(f"constants are for d={constants.d}, not d={d}")
    order = max_order(d)
    exact = coefficients(d, order, constants)
    brug = bruggeman_coefficients(d, order)
    mom = moments(dist, order)
    mean = mom.mean_sigma

    def size(n):  # <|u|^n>, bounded by u0 <u^(n-1)> for odd n
        return mom.u_moment(n) if n % 2 == 0 else mom.u0 * mom.u_moment(n - 1)

    for k in range(2, order + 1):
        gap = {sig: a - brug[sig] for sig, a in exact.a.items() if sum(sig) == k}
        lead = mean * moment_sum(gap, mom.u_moment)
        floor = 1e-9 * mean * moment_sum({sig: abs(g) for sig, g in gap.items()}, size)
        if abs(lead) > floor:
            break
    err = mean * moment_sum({sig: exact.err[sig] for sig in gap}, lambda n: abs(mom.u_moment(n)))
    if abs(lead) <= max(floor, err):
        sign = "indeterminate"
    else:
        sign = "positive" if lead > 0 else "negative"
    case = "d_ge_3_variance" if d >= 3 else "2d_skewed" if k == 5 else "2d_symmetric"
    return ComparisonReport(
        sigma_e_series=evaluate_series(exact, mom),
        sigma_B=solve_bruggeman(dist, d),
        leading_difference=float(lead),
        leading_order=k,
        predicted_sign=sign,
        case=case,
    )
