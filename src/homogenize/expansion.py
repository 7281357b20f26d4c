"""Closed-form truncated expansions of the effective conductivity.

sigma_e = <sigma> * (1 + sum over moment signatures of a_sig * prod <u^s_i>),
truncated at total order 2..5 for general dimension and 2..6 in 2D.  The
pure-moment coefficients are rational in d; the mixed ones involve the
computed constants H and I.  In 2D the expressions are simplified
analytically before any numerics enter: the <u^2>^2 coefficient is exactly
zero, the <u^2><u^3> coefficient is exactly I, and the 6th-order block is
written in the I-linear form, which keeps the whole coefficient set exactly
consistent with the duality identity whatever the numerical error in I.

A truncation at order n carries the rigorous remainder bound
(2 u0)^(n+1) / (1 - 2 u0) * <sigma>, valid whenever u0 < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import DimensionConstants
from .distributions import DistributionSpec, Moments, moments
from .errors import CapabilityError

MAX_ORDER_2D = 6
MAX_ORDER_GENERAL = 5


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficient map a: signature tuple (s1 <= ... <= sm) -> value.

    err carries per-signature uncertainties propagated from the constants'
    error estimates (zero for the exact rational entries).
    """

    d: int
    order: int
    a: dict[tuple[int, ...], float]
    err: dict[tuple[int, ...], float]


@dataclass(frozen=True)
class SeriesResult:
    """A truncated expansion evaluated on one law.

    terms[k] is the total order-k contribution (before the <sigma> factor);
    remainder_bound is the rigorous tail bound, or None when u0 >= 1/2
    (valid=False) or when no bound applies (Bruggeman series).
    """

    sigma_e: float
    mean_sigma: float
    terms: dict[int, float]
    remainder_bound: float | None
    order: int
    valid: bool


def max_order(d: int) -> int:
    return MAX_ORDER_2D if d == 2 else MAX_ORDER_GENERAL


def coefficients(
    d: int, order: int, constants: DimensionConstants
) -> ExpansionCoefficients:
    """Coefficient map for dimension d truncated at the given total order."""
    if constants.d != d:
        raise ValueError(f"constants are for d={constants.d}, not d={d}")
    if order < 2:
        raise ValueError("order must be >= 2")
    if order > max_order(d):
        raise CapabilityError(
            f"order {order} not available for d={d} (max {max_order(d)})"
        )
    a: dict[tuple[int, ...], float] = {}
    err: dict[tuple[int, ...], float] = {}

    def put(sig, value, e=0.0):
        if sum(sig) <= order:
            a[sig] = float(value)
            err[sig] = float(e)

    put((2,), -1.0 / d)
    put((3,), 1.0 / d**2)
    put((4,), -1.0 / d**3)
    put((5,), 1.0 / d**4)
    if d == 2:
        put((2, 2), 0.0)
        put((2, 3), constants.I, constants.err["I"])
        put((6,), -1.0 / 32)
        put((2, 4), 1.0 / 32 - 1.5 * constants.I, 1.5 * constants.err["I"])
        put((3, 3), 1.0 / 32 - constants.I, constants.err["I"])
        put((2, 2, 2), 1.5 * constants.I - 1.0 / 16, 1.5 * constants.err["I"])
    else:
        put((2, 2), -(d + constants.H - 3.0) / d**3, constants.err["H"] / d**3)
        put(
            (2, 3),
            (3.0 * d + d**4 * constants.I + 4.0 * constants.H - 10.0) / d**4,
            constants.err["I"] + 4.0 * constants.err["H"] / d**4,
        )
    return ExpansionCoefficients(d=d, order=order, a=a, err=err)


def remainder_bound(u0: float, order: int, mean_sigma: float) -> float | None:
    """(2 u0)^(order+1) / (1 - 2 u0) * <sigma>, or None outside u0 < 1/2."""
    if u0 >= 0.5:
        return None
    return (2.0 * u0) ** (order + 1) / (1.0 - 2.0 * u0) * mean_sigma


def evaluate_series(
    coeffs: ExpansionCoefficients, mom: Moments, with_bound: bool = True
) -> SeriesResult:
    """Evaluate a coefficient map on precomputed moments."""
    terms: dict[int, float] = {k: 0.0 for k in range(2, coeffs.order + 1)}
    for sig, coef in coeffs.a.items():
        prod = coef
        for s in sig:
            prod *= mom.u_moment(s)
        terms[sum(sig)] += prod
    sigma = mom.mean_sigma * (1.0 + sum(terms.values()))
    bound = remainder_bound(mom.u0, coeffs.order, mom.mean_sigma) if with_bound else None
    return SeriesResult(
        sigma_e=float(sigma),
        mean_sigma=mom.mean_sigma,
        terms=terms,
        remainder_bound=bound,
        order=coeffs.order,
        valid=mom.u0 < 0.5,
    )


def sigma_e_series(
    dist: DistributionSpec, d: int, order: int, constants: DimensionConstants
) -> SeriesResult:
    """Truncated effective conductivity of a law, with remainder bound.

    The result is returned even when the convergence hypothesis u0 < 1/2
    fails; valid=False flags it and no bound is attached.
    """
    coeffs = coefficients(d, order, constants)
    mom = moments(dist, order)
    return evaluate_series(coeffs, mom)
