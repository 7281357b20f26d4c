"""Exception types shared across the package, and the one grid-size check."""

import math


class CapacityError(RuntimeError):
    """A requested computation exceeds the configured resource limits."""


def require_capacity(name: str, d: int, side: int, cap: int, least: int, step: int = 1) -> None:
    """Refuse side^d > cap (a power of two) by a CapacityError naming the largest feasible side,
    a multiple of `step`, or saying that none >= `least` fits.  Compared in logs, as side^d may
    not fit in a float: exact, since side^d != cap is >= 1/(cap ln 2) from cap in log2."""
    log_cap = math.log2(cap)
    if d * math.log2(side) <= log_cap:
        return
    n = int(2 ** (log_cap / d)) + 1  # the float root can be off by one either way
    while d * math.log2(n) > log_cap:
        n -= 1
    n -= n % step
    fits = f"feasible {name} <= {n}" if n >= least else f"no {name} >= {least} fits"
    raise CapacityError(
        f"{name}^d = {side}^{d} exceeds capacity {cap:.3g} points; {fits} for d={d}")


class CapabilityError(ValueError):
    """The operation is outside the supported parameter range (by design)."""


class SolverError(RuntimeError):
    """An iterative solver failed to converge.

    Carries the final residual so callers can report how close the solve got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
