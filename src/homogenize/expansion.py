"""Closed-form truncated expansions of the effective conductivity.

sigma_e = <sigma> * (1 + sum over moment signatures of a_sig * prod <u^s_i>),
truncated at total order 2..5 for general dimension and 2..6 in 2D.  The
exact map is the Bruggeman effective-medium one, rational in d, with the
lattice signatures replaced: (2,2) and (2,3) for d >= 3, through the
computed constants H and I, and (2,3), (2,4), (3,3), (2,2,2) in 2D,
simplified analytically before any numerics enter: the <u^2><u^3>
coefficient is exactly I and the 6th-order block is I-linear, which keeps
the whole map (with Bruggeman's exact zero at <u^2>^2) consistent with the
duality identity whatever the numerical error in I.

A truncation at order n carries the rigorous remainder bound
(2 u0)^(n+1) / (1 - 2 u0) * <sigma>, valid whenever u0 < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import DimensionConstants, k5_via_H
from .distributions import DistributionSpec, Moments, moment_sum, moments
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


def bruggeman_coefficients(d: int, order: int) -> dict[tuple[int, ...], float]:
    """Moment-expansion coefficients of the Bruggeman root, rational in d."""
    if order < 2 or order > 6:
        raise CapabilityError("Bruggeman series implemented for orders 2..6")
    b = {
        (2,): -1.0 / d,
        (3,): 1.0 / d**2,
        (4,): -1.0 / d**3,
        (2, 2): (2.0 - d) / d**3,  # +0.0 in 2D, not -0.0
        (5,): 1.0 / d**4,
        (2, 3): (3.0 * d - 5.0) / d**4,
        (6,): -1.0 / d**5,
        (2, 4): -(4.0 * d - 6.0) / d**5,
        (3, 3): -(2.0 * d - 3.0) / d**5,
        (2, 2, 2): -(2.0 * d**2 - 8.0 * d + 7.0) / d**5,
    }
    return {sig: coef for sig, coef in b.items() if sum(sig) <= order}


def coefficients(d: int, order: int, constants: DimensionConstants) -> ExpansionCoefficients:
    """Coefficient map for dimension d truncated at the given total order:
    `bruggeman_coefficients` with the lattice signatures replaced, which
    carry the constants' error estimates (the shared ones carry 0)."""
    if constants.d != d:
        raise ValueError(f"constants are for d={constants.d}, not d={d}")
    if order < 2:
        raise ValueError("order must be >= 2")
    if order > max_order(d):
        raise CapabilityError(f"order {order} not available for d={d} (max {max_order(d)})")
    a = bruggeman_coefficients(d, order)
    err = dict.fromkeys(a, 0.0)
    I, eI, eH = constants.I, constants.err["I"], constants.err["H"]
    if d == 2:
        lattice = {
            (2, 3): (I, eI),
            (2, 4): (1.0 / 32 - 1.5 * I, 1.5 * eI),
            (3, 3): (1.0 / 32 - I, eI),
            (2, 2, 2): (1.5 * I - 1.0 / 16, 1.5 * eI),
        }
    else:
        lattice = {
            (2, 2): (-(d + constants.H - 3.0) / d**3, eH / d**3),
            (2, 3): (k5_via_H(constants), eI + 4.0 * eH / d**4),
        }
    for sig, (value, e) in lattice.items():
        if sig in a:
            a[sig], err[sig] = float(value), float(e)
    return ExpansionCoefficients(d=d, order=order, a=a, err=err)


def remainder_bound(u0: float, order: int, mean_sigma: float) -> float | None:
    """(2 u0)^(order+1) / (1 - 2 u0) * <sigma>, or None outside u0 < 1/2."""
    if u0 >= 0.5:
        return None
    return (2.0 * u0) ** (order + 1) / (1.0 - 2.0 * u0) * mean_sigma


def evaluate_series(coeffs: ExpansionCoefficients, mom: Moments) -> SeriesResult:
    """Evaluate a coefficient map on precomputed moments."""
    terms = {
        k: moment_sum({sig: c for sig, c in coeffs.a.items() if sum(sig) == k}, mom.u_moment)
        for k in range(2, coeffs.order + 1)
    }
    sigma = mom.mean_sigma * (1.0 + sum(terms.values()))
    return SeriesResult(
        sigma_e=float(sigma),
        mean_sigma=mom.mean_sigma,
        terms=terms,
        remainder_bound=remainder_bound(mom.u0, coeffs.order, mom.mean_sigma),
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
