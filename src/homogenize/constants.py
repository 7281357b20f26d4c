"""Dimension-dependent constants entering the 4th and 5th order coefficients.

All constants are real-space lattice power sums of the kernel (cubes and
fourth powers), which by Parseval equal the defining momentum-space
integrals; summing the table is the only route that stays feasible past
d = 2.  Every value carries an error estimate combining the propagated
quadrature defect of the table with half the extrapolated tail (the tail is
added to the value, and its own uncertainty is taken as half its size).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    KernelTable,
    PowerSum,
    _int_power,
    gamma,
    get_kernel_table,
    lattice_power_sum,
    power_sum_quad_error,
)


@dataclass(frozen=True)
class DimensionConstants:
    """Computed constants for one dimension, with per-constant error estimates.

    I is the combined fourth-power sum I1 + (d-1) * I2; K5 multiplies the
    <u^2><u^3> term of the 5th-order expansion.
    """

    d: int
    H: float
    I1: float
    I2: float
    I: float
    K5: float
    err: dict[str, float]


def compute_H(table: KernelTable) -> tuple[float, float]:
    """H(d) = -d^3 * sum_z G_11(z)^3 over the lattice, with error estimate.

    Equals 1 in 2D (odd cube sums cancel by antisymmetry) and is observed to
    decrease with dimension.
    """
    return _h_from_cube(table.d, *_cube_sum(table))


def _cube_sum(table: KernelTable) -> tuple[PowerSum, float]:
    """The box sum of G_11(z)^3 with its tail, and its propagated quadrature error."""
    return lattice_power_sum(table, 1, 1, 3), power_sum_quad_error(table, 1, 1, 3)


def _h_from_cube(d: int, cube: PowerSum, quad: float) -> tuple[float, float]:
    value = -(d**3) * (cube.value + cube.tail)
    err = d**3 * (quad + 0.5 * abs(cube.tail))
    return float(value), float(err)


def compute_I(table: KernelTable) -> tuple[float, float, float, float, float, float]:
    """Fourth-power sums (I1, I2, I) with error estimates.

    I1 = sum_z G_11(z)^4, I2 = sum_z G_12(z)^4, I = I1 + (d-1) * I2; the
    off-axis channels for a > 2 equal the (1, 2) one by coordinate symmetry.
    """
    d = table.d
    p1 = lattice_power_sum(table, 1, 1, 4)
    p2 = lattice_power_sum(table, 1, 2, 4)
    i1 = p1.value + p1.tail
    i2 = p2.value + p2.tail
    e1 = power_sum_quad_error(table, 1, 1, 4) + 0.5 * abs(p1.tail)
    e2 = power_sum_quad_error(table, 1, 2, 4) + 0.5 * abs(p2.tail)
    i = i1 + (d - 1) * i2
    ei = e1 + (d - 1) * e2
    return float(i1), float(e1), float(i2), float(e2), float(i), float(ei)


def compute_K5(constants: DimensionConstants, table: KernelTable) -> tuple[float, float]:
    """K5(d) = 3(d-2)/d^4 + I(d) - (4/d) * sum_{z != 0} G_11(z)^3.

    The off-origin cube sum is taken directly from the table (it vanishes
    identically in 2D); I comes from `constants`.
    """
    return _k5_from_cube(table, constants.I, constants.err["I"], *_cube_sum(table))


def _k5_from_cube(
    table: KernelTable, i: float, ei: float, cube: PowerSum, quad: float
) -> tuple[float, float]:
    d = table.d
    # the off-origin sum is the box sum less the origin cube, with the same
    # tail: bit for bit lattice_power_sum(table, 1, 1, 3, include_origin=False)
    origin = _int_power(gamma(table, 1, 1, (0,) * d), 3)
    s3 = (cube.value - origin) + cube.tail
    value = 3.0 * (d - 2) / d**4 + i - (4.0 / d) * s3
    err = ei + (4.0 / d) * (quad + 0.5 * abs(cube.tail))
    return float(value), float(err)


def k5_via_H(constants: DimensionConstants) -> float:
    """Second route to K5 through H: (3d + d^4 I + 4H - 10) / d^4.

    Must agree with compute_K5 within combined error estimates; the two
    routes differ in whether the origin cube enters through H or through
    the exact value -1/d^3.
    """
    d = constants.d
    return (3 * d + d**4 * constants.I + 4 * constants.H - 10) / d**4


def h_strictly_decreasing(h_values) -> bool:
    """Whether a sequence of H values is strictly decreasing (reported, not assumed)."""
    hs = list(h_values)
    return all(a > b for a, b in zip(hs, hs[1:]))


def dimension_constants(
    d: int | None = None,
    table: KernelTable | None = None,
    N: int | None = None,
    R: int | None = None,
    cache: bool = True,
) -> tuple[DimensionConstants, KernelTable]:
    """Compute all constants for one dimension, building a table if needed."""
    if table is None:
        if d is None:
            raise ValueError("pass a dimension or a prebuilt table")
        table = get_kernel_table(d, N=N, R=R, cache=cache)
    cube = _cube_sum(table)  # shared by H and K5
    h, eh = _h_from_cube(table.d, *cube)
    i1, e1, i2, e2, i, ei = compute_I(table)
    k5, ek5 = _k5_from_cube(table, i, ei, *cube)
    err = {"H": eh, "I1": e1, "I2": e2, "I": ei, "K5": ek5}
    return DimensionConstants(d=table.d, H=h, I1=i1, I2=i2, I=i, K5=k5, err=err), table
