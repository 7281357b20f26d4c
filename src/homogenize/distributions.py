"""Discrete conductivity laws, disorder moments, and 2D duality machinery.

The disorder parameter of a law is u = (sigma - <sigma>)/<sigma>, so <u> = 0
by construction and is stored as an exact zero.  The duality transform is
sigma -> 1/sigma; in 2D the effective conductivities of a law and its dual
multiply to 1, which pins most expansion coefficients.  That identity is
verified here on a three-value family by truncated power-series arithmetic
in the width parameter eps (a small dense series ring replaces the symbolic
algebra step), and the known coefficient relations are recovered by solving
the vanishing of the residual, which is affine in the unknowns order by
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapabilityError

if TYPE_CHECKING:  # pragma: no cover
    from .expansion import ExpansionCoefficients

_PROB_TOL = 1e-12
#: Relative room for rounding in |<u^n>|^(1/n) <= u0, so that the moments of
#: an atomic law, passed as raw input with their u0, are accepted.
_MOMENT_BOUND_RTOL = 1e-9
#: Relative spread allowed in the products v_i * v_(n+1-i) of a self-dual law.
_SELF_DUAL_RTOL = 1e-9


@dataclass(frozen=True)
class Moments:
    """Normalized disorder moments of a conductivity law.

    u_moments[n-1] holds <u^n>; the first entry is exactly 0.  u0 bounds |u|
    over the support and controls the convergence condition u0 < 1/2.
    """

    mean_sigma: float
    u_moments: tuple[float, ...]
    u0: float

    @property
    def max_order(self) -> int:
        return len(self.u_moments)

    def u_moment(self, n: int) -> float:
        if not 1 <= n <= self.max_order:
            raise ValueError(f"moment order {n} outside 1..{self.max_order}")
        return self.u_moments[n - 1]


def moment_sum(terms: dict, u_moment, total=0.0):
    """total + sum of coef * u_moment(s1) * u_moment(s2) * ... over a coefficient
    map, added in the map's order; zero coefficients are skipped.

    Every moment series is summed here, in whatever ring u_moment returns:
    floats or power series in eps.
    """
    for sig, coef in terms.items():
        if coef == 0.0:
            continue
        prod = coef
        for n in sig:
            prod = prod * u_moment(n)
        total = total + prod
    return total


@dataclass(frozen=True)
class DistributionSpec:
    """A positive conductivity law: finitely many atoms, or raw moment input.

    Atom input is validated (finite positive values and probabilities, summing
    to 1) and normalized to irreducible form: duplicate values merged, atoms sorted.
    Raw moment input (mean, <u^n> list from n = 2, u0 bound) supports laws
    without a finite atom representation; operations that need atoms raise
    CapabilityError for such laws.  It is validated too: a finite positive
    mean, a finite u0 >= 0, finite moments, even moments >= 0 and
    |<u^n>| <= u0^n.
    """

    atoms: tuple[tuple[float, float], ...] | None = None
    raw_mean: float | None = None
    raw_u_moments: tuple[float, ...] | None = None
    raw_u0: float | None = None

    def __post_init__(self):
        if self.atoms is not None:
            merged: dict[float, float] = {}
            for value, prob in self.atoms:
                value, prob = float(value), float(prob)
                if not 0.0 < value < np.inf:
                    raise ValueError(f"conductivities must be finite and positive, got {value}")
                if not 0.0 < prob < np.inf:
                    raise ValueError(f"probabilities must be finite and positive, got {prob}")
                merged[value] = merged.get(value, 0.0) + prob
            total = sum(merged.values())
            if abs(total - 1.0) > _PROB_TOL:
                raise ValueError(f"probabilities sum to {total}, expected 1")
            object.__setattr__(
                self, "atoms", tuple(sorted(merged.items()))
            )
        else:
            if self.raw_mean is None or self.raw_u_moments is None or self.raw_u0 is None:
                raise ValueError("need atoms, or mean + u_moments + u0")
            if not 0.0 < self.raw_mean < np.inf:
                raise ValueError("mean conductivity must be finite and positive")
            u0 = float(self.raw_u0)
            u_moments = tuple(float(m) for m in self.raw_u_moments)
            if not 0.0 <= u0 < np.inf:
                raise ValueError(f"u0 must be finite and >= 0, got {u0}")
            for n, m in enumerate(u_moments, start=2):
                if not np.isfinite(m):
                    raise ValueError(f"<u^{n}> must be finite, got {m}")
                if n % 2 == 0 and m < 0.0:
                    raise ValueError(f"even moment <u^{n}> must be >= 0, got {m}")
                # as roots, so that no power of u0 overflows or underflows
                if abs(m) ** (1.0 / n) > u0 * (1.0 + _MOMENT_BOUND_RTOL):
                    raise ValueError(f"|<u^{n}>| = {abs(m)} exceeds u0^{n} with u0 = {u0}")
            object.__setattr__(self, "raw_u0", u0)
            object.__setattr__(self, "raw_u_moments", u_moments)

    def values(self) -> np.ndarray:
        self._require_atoms("values")
        return np.array([v for v, _ in self.atoms])

    def probs(self) -> np.ndarray:
        self._require_atoms("probs")
        return np.array([p for _, p in self.atoms])

    def _require_atoms(self, what: str) -> None:
        if self.atoms is None:
            raise CapabilityError(f"{what} requires an atomic law, not raw moments")


def two_component(s1: float, s2: float, p1: float = 0.5) -> DistributionSpec:
    return DistributionSpec(atoms=((s1, p1), (s2, 1.0 - p1)))


def constant(value: float) -> DistributionSpec:
    return DistributionSpec(atoms=((value, 1.0),))


def three_value(eps: float, alpha: float, p: float) -> DistributionSpec:
    """The duality probe family: 1-eps, 1-alpha*eps, 1 with weights p, p, 1-2p."""
    return DistributionSpec(atoms=((1.0 - eps, p), (1.0 - alpha * eps, p), (1.0, 1.0 - 2.0 * p)))


def moments(dist: DistributionSpec, max_order: int) -> Moments:
    """Exact weighted moments of u = (sigma - <sigma>)/<sigma> up to max_order."""
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    if dist.atoms is None:
        avail = len(dist.raw_u_moments) + 1
        if max_order > avail:
            raise ValueError(
                f"raw moments supplied to order {avail}, need {max_order}"
            )
        mom = (0.0,) + dist.raw_u_moments[: max_order - 1]
        return Moments(mean_sigma=float(dist.raw_mean), u_moments=mom, u0=float(dist.raw_u0))
    mean, us, mom = _centred_moments(dist.values(), dist.probs(), max_order)
    return Moments(mean_sigma=float(mean), u_moments=(0.0, *map(float, mom.values())),
                   u0=float(max(map(abs, us))))


def _centred_moments(values, probs, max_n: int) -> tuple:
    """Mean, each atom's u = v / mean - 1 and {n: <u^n>}, n = 2..max_n, of the
    atoms `values` with weights `probs`: the one moment routine.  It uses only
    +, *, ** and /, so floats and power series in eps run the same code."""
    mean = 0.0
    for v, p in zip(values, probs):
        mean = mean + v * p
    us = [v / mean - 1.0 for v in values]
    mom = dict.fromkeys(range(2, max_n + 1), 0.0)
    for n in mom:
        for u, p in zip(us, probs):
            mom[n] = mom[n] + u**n * p
    return mean, us, mom


def dual(dist: DistributionSpec) -> DistributionSpec:
    """The law of 1/sigma."""
    dist._require_atoms("dual")
    return DistributionSpec(atoms=tuple((1.0 / v, p) for v, p in dist.atoms))


def scale(dist: DistributionSpec, c: float) -> DistributionSpec:
    """The law of c * sigma."""
    dist._require_atoms("scale")
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return DistributionSpec(atoms=tuple((c * v, p) for v, p in dist.atoms))


def self_dual_scale(dist: DistributionSpec) -> float | None:
    """Scale s0 making the law of s0*sigma self-dual, or None if there is none.

    After sorting, reciprocation reverses the order of the support, so the
    law is almost self-dual iff opposite atoms pair up: equal probabilities
    and a common product v_i * v_(n+1-i) = C; then s0 = 1/sqrt(C).  For a
    two-component equipartition law this gives s0 = 1/sqrt(s1*s2).
    """
    dist._require_atoms("self_dual_scale")
    v = dist.values()
    p = dist.probs()
    if np.max(np.abs(p - p[::-1])) > _PROB_TOL:
        return None
    products = v * v[::-1]
    c = float(np.exp(np.mean(np.log(products))))
    if np.max(np.abs(products / c - 1.0)) > _SELF_DUAL_RTOL:
        return None
    return 1.0 / np.sqrt(c)


# ---------------------------------------------------------------------------
# truncated power series in eps
# ---------------------------------------------------------------------------

class PowerSeries:
    """Dense truncated power series with float coefficients.

    All operands of a binary operation must share a truncation order;
    scalars are lifted automatically.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, x: float, order: int) -> "PowerSeries":
        c = np.zeros(order + 1)
        c[0] = x
        return cls(c)

    @classmethod
    def variable(cls, order: int) -> "PowerSeries":
        c = np.zeros(order + 1)
        c[1] = 1.0
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def _lift(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            if other.order != self.order:
                raise ValueError("truncation orders differ")
            return other
        return PowerSeries.constant(float(other), self.order)

    def __add__(self, other):
        return PowerSeries(self.c + self._lift(other).c)

    __radd__ = __add__

    def __sub__(self, other):
        return PowerSeries(self.c - self._lift(other).c)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries(self.c * float(other))
        if other.order != self.order:
            raise ValueError("truncation orders differ")
        return PowerSeries(np.convolve(self.c, other.c)[: len(self.c)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __pow__(self, k: int):
        out = PowerSeries.constant(1.0, self.order)
        base = self
        while k > 0:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.c[0]
        if c0 == 0.0:
            raise ZeroDivisionError("series has zero constant term")
        out = np.zeros_like(self.c)
        out[0] = 1.0 / c0
        for n in range(1, len(self.c)):
            out[n] = -np.dot(self.c[1 : n + 1], out[n - 1 :: -1]) / c0
        return PowerSeries(out)


#: Largest residual the duality identity may show; also the refusal limit
#: for the float rounding bound of `duality_residual_series`.
DUALITY_GATE = 1e-8


@dataclass(frozen=True)
class DualityProbe:
    """Parameters of one duality check on the three-value family."""

    p: float
    alpha_ratio: float
    order: int = 6

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 1/2)")
        if not np.isfinite(self.alpha_ratio):
            raise ValueError(f"alpha ratio must be finite, got {self.alpha_ratio}")
        if self.order % 2 != 0 or not 2 <= self.order <= 8:
            raise ValueError("order must be even and within 2..8")


def _probe_series(p: float, alpha: float, order: int, max_moment: int) -> tuple:
    """`_centred_moments` in eps-series, n = 2..max_moment, of the three-value
    family 1 - eps, 1 - alpha*eps, 1 (weights p, p, 1 - 2p) and of its reciprocals."""
    one = PowerSeries.constant(1.0, order)
    eps = PowerSeries.variable(order)
    vals = [one - eps, one - alpha * eps, one]
    probs = [p, p, 1.0 - 2.0 * p]
    return tuple(_centred_moments(law, probs, max_moment)
                 for law in (vals, [v.reciprocal() for v in vals]))


def _series_residual(series: tuple, coeff_map: dict) -> np.ndarray:
    """eps-coefficients of sigma_e({sigma}) * sigma_e({1/sigma}) - 1, from the
    `_probe_series` of a probe; its max_moment must cover coeff_map."""
    (mean_a, _, mom_a), (mean_b, _, mom_b) = series
    one = PowerSeries.constant(1.0, mean_a.order)
    sa = mean_a * moment_sum(coeff_map, mom_a.__getitem__, one)
    sb = mean_b * moment_sum(coeff_map, mom_b.__getitem__, one)
    return (sa * sb - 1.0).c


def duality_residual_series(
    probe: DualityProbe, coeffs_2d: "ExpansionCoefficients"
) -> np.ndarray:
    """Residual eps-series of the duality identity for the given coefficients.

    Returns all coefficients up to eps^order.  Orders beyond the expansion's
    truncation are not fully determined by the supplied coefficients and are
    informational only.

    The eps^k coefficient cancels terms as large as |alpha|^k, the eps^k
    coefficient of 1 / (1 - alpha eps); float rounding leaves at most
    1.6 eps max(1, |alpha|)^k of them (4500 random probes, p down to 1e-4,
    |alpha| up to 1e6).  An alpha ratio whose bound 16 eps max(1, |alpha|)^k
    at the highest determined order exceeds DUALITY_GATE is refused with
    ValueError, since its residual would measure rounding, not the identity.
    """
    if coeffs_2d.d != 2:
        raise CapabilityError("the duality identity holds only in 2D")
    if probe.order > coeffs_2d.order + 2:
        raise CapabilityError(
            f"probe order {probe.order} needs coefficients beyond order {coeffs_2d.order}"
        )
    k = min(probe.order, coeffs_2d.order)
    limit = (DUALITY_GATE / (16.0 * np.finfo(float).eps)) ** (1.0 / k)
    if not abs(probe.alpha_ratio) < limit:
        raise ValueError(
            f"duality residual for p={probe.p}, alpha ratio {probe.alpha_ratio} is lost to "
            f"rounding: order {k} cancels terms of size |alpha|^{k}, so |alpha| must stay "
            f"below {limit:.3g} to keep the rounding bound under {DUALITY_GATE:g}"
        )
    max_m = max((max(sig) for sig, c in coeffs_2d.a.items() if c != 0.0), default=2)
    series = _probe_series(probe.p, probe.alpha_ratio, probe.order, max_m)
    return _series_residual(series, coeffs_2d.a)


_PROBES = ((0.3, 2.0), (0.25, -1.0), (0.2, 3.0), (0.35, 0.5), (0.15, -2.0), (0.4, 1.5))


def recover_relations(coeff_map: dict, order: int) -> dict[tuple[int, ...], float]:
    """The coefficients of total order `order` that 2D duality implies.

    The unknowns are the signatures of `coeff_map` of total order `order`;
    their values are ignored.  Signatures of lower order are held fixed, and
    higher ones are dropped.  The eps^order residual coefficient is affine
    in each unknown, so finite differences against the zero setting give
    exact columns; the linear system over six fixed (p, alpha) probes is
    solved by least squares.  Raises ValueError for an odd order (duality
    fixes only even ones), for a map with no unknown, and for an unknown set
    whose fit leaves a residual above DUALITY_GATE on any probe.
    """
    if order % 2:
        raise ValueError(f"duality fixes only even orders, got {order}")
    unknowns = sorted((sig for sig in coeff_map if sum(sig) == order), key=lambda s: (len(s), s))
    if not unknowns:
        raise ValueError(f"the map has no signature of total order {order} to solve for")
    base_map = {sig: c for sig, c in coeff_map.items() if sum(sig) < order}
    base_map.update(dict.fromkeys(unknowns, 0.0))
    # each <u^n> series is independent of max_moment, so one set per probe
    # serves every map below bit for bit
    series = [_probe_series(p, a, order, max(map(max, base_map))) for p, a in _PROBES]

    def residuals(m):
        return np.array([_series_residual(s, m)[order] for s in series])

    rhs = residuals(base_map)
    A = np.column_stack([residuals({**base_map, sig: 1.0}) - rhs for sig in unknowns])
    x, *_ = np.linalg.lstsq(A, -rhs, rcond=None)
    misfit = float(np.max(np.abs(A @ x + rhs)))
    if misfit > DUALITY_GATE:
        raise ValueError(
            f"no values of {unknowns} satisfy duality at order {order}: "
            f"the fit leaves a residual of {misfit:.3g} (gate {DUALITY_GATE:g})"
        )
    return dict(zip(unknowns, x.tolist()))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _json_number(value, field: str) -> float:
    """A JSON number as a float; null, strings, lists and booleans are refused."""
    # bool is a subclass of int: `true` must not read as 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} = {value} is too large for a float") from None


def _number_field(obj: dict, key: str, field: str) -> float:
    if key not in obj:
        raise ValueError(f"{field} is missing")
    return _json_number(obj[key], field)


def _json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {json.dumps(value)}")
    return value


def distribution_from_dict(data) -> DistributionSpec:
    """Parse the JSON object format: {"atoms": [{"value", "prob"}...]} or
    {"u_moments": [m2, m3, ...], "mean": s, "u0": b}.

    Any other shape raises ValueError naming the field: a missing key, an
    `atoms` or `u_moments` that is not a list, an atom that is not an
    object, or a numeric field that is not a JSON number.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a distribution file must hold a JSON object, got {json.dumps(data)}")
    if "atoms" in data:
        atoms = []
        for i, atom in enumerate(_json_list(data["atoms"], "atoms")):
            if not isinstance(atom, dict):
                raise ValueError(f"atoms[{i}] must be an object, got {json.dumps(atom)}")
            atoms.append((_number_field(atom, "value", f"atoms[{i}].value"),
                          _number_field(atom, "prob", f"atoms[{i}].prob")))
        return DistributionSpec(atoms=tuple(atoms))
    if "u_moments" in data:
        u_moments = _json_list(data["u_moments"], "u_moments")
        return DistributionSpec(
            atoms=None,
            raw_mean=_number_field(data, "mean", "mean"),
            raw_u_moments=tuple(_json_number(m, f"u_moments[{i}]") for i, m in enumerate(u_moments)),
            raw_u0=_number_field(data, "u0", "u0"),
        )
    raise ValueError("distribution file needs an 'atoms' or 'u_moments' key")


def load_distribution(path) -> DistributionSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_dict(json.load(fh))

