"""Dimension-dependent constants entering the 4th and 5th order coefficients.

All constants are real-space lattice power sums of the kernel (cubes and
fourth powers), which by Parseval equal the defining momentum-space
integrals; summing the table is the only route that stays feasible past
d = 2.  Every value carries the error estimate of its power sums,
`PowerSum.err`: the propagated quadrature defect of the table plus half the
extrapolated tail (the tail is added to the value, and its own uncertainty
is taken as half its size).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import KernelTable, gamma, get_kernel_table, lattice_power_sum


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


def k5_via_H(constants: DimensionConstants) -> float:
    """Second route to K5 through H: (3d + d^4 I + 4H - 10) / d^4.

    Must agree with K5 within combined error estimates; the two
    routes differ in whether the origin cube enters through H or through
    the exact value -1/d^3.
    """
    d = constants.d
    return (3 * d + d**4 * constants.I + 4 * constants.H - 10) / d**4


def dimension_constants(
    d: int | None = None, table: KernelTable | None = None
) -> tuple[DimensionConstants, KernelTable]:
    """Compute all constants for one dimension, building a table if needed.

    H(d) = -d^3 * sum_z G_11(z)^3 over the lattice; it equals 1 in 2D (odd
    cube sums cancel by antisymmetry) and is observed to decrease with d.
    I1 = sum_z G_11(z)^4, I2 = sum_z G_12(z)^4 and I = I1 + (d-1) * I2: the
    off-axis channels for a > 2 equal the (1, 2) one by coordinate symmetry.
    K5(d) = 3(d-2)/d^4 + I(d) - (4/d) * sum_{z != 0} G_11(z)^3, with the
    off-origin cube sum read off the same box sum as H (it vanishes
    identically in 2D).  With a prebuilt table, d may be given only if it
    agrees with it.
    """
    if table is None:
        if d is None:
            raise ValueError("pass a dimension or a prebuilt table")
        table = get_kernel_table(d)
    if d is not None and d != table.d:
        raise ValueError(f"d={d} disagrees with the table's d={table.d}")
    d = table.d
    cube = lattice_power_sum(table, 1, 1, 3)
    h = -(d**3) * (cube.value + cube.tail)
    eh = d**3 * cube.err

    p1 = lattice_power_sum(table, 1, 1, 4)
    p2 = lattice_power_sum(table, 1, 2, 4)
    i1 = p1.value + p1.tail
    i2 = p2.value + p2.tail
    e1, e2 = p1.err, p2.err
    i = i1 + (d - 1) * i2
    ei = e1 + (d - 1) * e2

    # the off-origin sum is the box sum less the origin cube, with the same
    # tail: bit for bit lattice_power_sum(table, 1, 1, 3, include_origin=False)
    g0 = gamma(table, 1, 1, (0,) * d)
    origin = g0 * (g0 * g0)
    s3 = (cube.value - origin) + cube.tail
    k5 = 3.0 * (d - 2) / d**4 + i - (4.0 / d) * s3
    ek5 = ei + (4.0 / d) * cube.err

    err = {"H": eh, "I1": e1, "I2": e2, "I": ei, "K5": ek5}
    consts = DimensionConstants(
        d=d, H=float(h), I1=float(i1), I2=float(i2), I=float(i), K5=float(k5),
        err={k: float(v) for k, v in err.items()},
    )
    return consts, table
