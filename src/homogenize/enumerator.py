"""Brute-force evaluation of the per-order expansion terms.

The order-k term is a sum over paths of k bonds starting at the pinned bond
(origin, direction 1) and ending in direction 1, of the path cumulant times
a product of kernel couplings of consecutive bonds.  Only paths in which
every bond occurs at least twice can contribute, so for k <= 5 a path uses
at most two distinct bonds: the pinned one and one free bond ranging over
the lattice box and the directions.

Families are generated as set partitions of the k positions into blocks of
size >= 2 (one block per distinct bond) rather than hard-coded, and paths
whose cumulant vanishes are kept and evaluated: both the combinatorics and
the cumulant algebra are exercised, not assumed.  The free-site sums carry
the same shell-fit tail correction as the kernel power sums; its magnitude
enters the per-coefficient error estimate.

With symbolic moments the result is a sparse polynomial in the moment
variables, i.e. the expansion coefficients themselves, obtained with no
input from the closed-form derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .distributions import Moments
from .errors import CapabilityError
from .kernel import KernelTable, _int_power, channel_array, gamma, tail_corrected_sum

MAX_K = 5


class MomentPolynomial:
    """Sparse polynomial over moment signatures with float coefficients.

    A signature is a sorted tuple of moment orders; () is the constant term.
    Supports the ring operations needed by the cumulant algebra plus mixed
    arithmetic with scalars.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for sig, coef in dict(terms).items():
                key = tuple(sorted(sig))
                self.terms[key] = self.terms.get(key, 0.0) + float(coef)
            self.terms = {k: v for k, v in self.terms.items() if v != 0.0}

    @classmethod
    def zero(cls) -> "MomentPolynomial":
        return cls()

    @classmethod
    def variable(cls, n: int) -> "MomentPolynomial":
        return cls({(n,): 1.0})

    def coefficient(self, sig) -> float:
        return self.terms.get(tuple(sorted(sig)), 0.0)

    def signatures(self):
        return sorted(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        if isinstance(other, MomentPolynomial):
            for sig, coef in other.terms.items():
                out[sig] = out.get(sig, 0.0) + coef
        else:
            out[()] = out.get((), 0.0) + float(other)
        return MomentPolynomial(out)

    __radd__ = __add__

    def __mul__(self, other):
        out: dict = {}
        if isinstance(other, MomentPolynomial):
            for s1, c1 in self.terms.items():
                for s2, c2 in other.terms.items():
                    key = tuple(sorted(s1 + s2))
                    out[key] = out.get(key, 0.0) + c1 * c2
        else:
            x = float(other)
            out = {sig: coef * x for sig, coef in self.terms.items()}
        return MomentPolynomial(out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, MomentPolynomial) else -float(other))

    def abs_coefficients(self) -> "MomentPolynomial":
        return MomentPolynomial({sig: abs(c) for sig, c in self.terms.items()})

    def evaluate(self, moments: Moments) -> float:
        total = 0.0
        for sig, coef in self.terms.items():
            prod = coef
            for n in sig:
                prod *= moments.u_moment(n)
            total += prod
        return total

    def __repr__(self):
        body = ", ".join(f"{sig}: {coef:.6g}" for sig, coef in sorted(self.terms.items()))
        return f"MomentPolynomial({{{body}}})"


class SymbolicMoments:
    """Moment provider yielding polynomial variables; <u> is the zero polynomial."""

    def __init__(self, max_order: int):
        self.max_order = max_order

    def u_moment(self, n: int) -> MomentPolynomial:
        if not 1 <= n <= self.max_order:
            raise ValueError(f"moment order {n} outside 1..{self.max_order}")
        if n == 1:
            return MomentPolynomial.zero()
        return MomentPolynomial.variable(n)


@dataclass(frozen=True)
class PathFamily:
    """One pattern of bond repetitions along a path of length k.

    pattern[i] is the block label of position i; label 0 is pinned to the
    bond (origin, direction 1).  direction_pinned marks families whose free
    bond must take direction 1 because it owns the last position.
    """

    pattern: tuple[int, ...]
    multiplicities: tuple[int, ...]
    direction_pinned: bool

    @property
    def k(self) -> int:
        return len(self.pattern)

    @property
    def n_blocks(self) -> int:
        return len(self.multiplicities)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_families(k: int, d: int) -> list[PathFamily]:
    """All repetition patterns of k positions with every bond used >= 2 times.

    For k <= 5 this yields at most two blocks.  Patterns whose cumulant
    happens to vanish (nested repetition groups) are included; they are
    confirmed zero at evaluation time.
    """
    if not 2 <= k <= MAX_K:
        raise CapabilityError(f"enumeration supports 2 <= k <= {MAX_K}, got {k}")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    families = []
    for part in _set_partitions(list(range(k))):
        if any(len(block) < 2 for block in part):
            continue
        # canonical labels in order of first appearance; position 0 -> label 0
        blocks = sorted(part, key=min)
        label_of = {}
        for lbl, block in enumerate(blocks):
            for pos in block:
                label_of[pos] = lbl
        pattern = tuple(label_of[i] for i in range(k))
        mults = tuple(len(b) for b in blocks)
        pinned = pattern[-1] != 0
        families.append(PathFamily(pattern=pattern, multiplicities=mults, direction_pinned=pinned))
    families.sort(key=lambda f: (f.n_blocks, f.pattern))
    return families


def _representative_path(family: PathFamily):
    """A concrete path with the family's repetition pattern (two distinct bonds)."""
    bonds = (lattice.Bond((0,), 1), lattice.Bond((1,), 1))
    return tuple(bonds[lbl] for lbl in family.pattern)


def _restricted_channel(table: KernelTable, alpha: int, R: int) -> np.ndarray:
    arr = channel_array(table, 1, alpha)
    if R == table.R:
        return arr
    lo, hi = table.R - R, table.R + R + 1
    return arr[(slice(lo, hi),) * table.d]


@dataclass(frozen=True)
class EnumeratedOrder:
    """Order-k term as a polynomial in the moments, with error estimates."""

    k: int
    polynomial: MomentPolynomial
    error: MomentPolynomial
    families: tuple[PathFamily, ...]


def enumerate_order(k: int, table: KernelTable, R: int | None = None) -> EnumeratedOrder:
    """Sum all families over the box |z|_inf <= R, with symbolic moments."""
    poly, err, fams = _accumulate(k, table, R, SymbolicMoments(k))
    return EnumeratedOrder(k=k, polynomial=poly, error=err, families=tuple(fams))


def A_k(k: int, table: KernelTable, moments: Moments | None = None, R: int | None = None):
    """Order-k term: a moment polynomial, or its value on concrete moments.

    With numeric moments the cumulants are evaluated in float arithmetic
    (not by evaluating the symbolic polynomial), so the two modes cross-check
    each other.
    """
    if moments is None:
        return enumerate_order(k, table, R).polynomial
    if moments.max_order < k:
        raise ValueError(f"moments available to order {moments.max_order}, need {k}")
    value, _, _ = _accumulate(k, table, R, moments)
    return value


def _accumulate(k: int, table: KernelTable, R: int | None, provider):
    d = table.d
    if R is None:
        R = table.R
    if R > table.R:
        raise ValueError(f"requested radius {R} exceeds table radius {table.R}")
    families = enumerate_families(k, d)
    g0 = gamma(table, 1, 1, (0,) * d)
    symbolic = isinstance(provider, SymbolicMoments)
    total = MomentPolynomial.zero() if symbolic else 0.0
    err = MomentPolynomial.zero() if symbolic else 0.0

    for family in families:
        cumulant = lattice.path_cumulant(_representative_path(family), provider)
        if family.n_blocks == 1:
            total = total + cumulant * g0 ** (k - 1)
            err = err + _abs(cumulant) * (k - 1) * table.quad_defect * abs(g0) ** (k - 2)
            continue
        if family.n_blocks > 2:  # impossible for k <= 5; guards future edits
            raise CapabilityError("only two distinct bonds supported per path")
        pairs = list(zip(family.pattern, family.pattern[1:]))
        n_cross = sum(1 for a, b in pairs if a != b)
        n_pin = sum(1 for a, b in pairs if a == b == 0)
        n_free = sum(1 for a, b in pairs if a == b == 1)
        directions = (1,) if family.direction_pinned else tuple(range(1, d + 1))
        site_sum = 0.0
        site_err = 0.0
        for alpha in directions:
            ch = _restricted_channel(table, alpha, R)
            ps = tail_corrected_sum(_int_power(ch, n_cross), R, d, include_origin=(alpha != 1))
            scalar = g0**n_pin * gamma(table, alpha, alpha, (0,) * d) ** n_free
            site_sum += scalar * (ps.value + ps.tail)
            quad = n_cross * table.quad_defect * float(np.sum(_int_power(np.abs(ch), n_cross - 1)))
            site_err += abs(scalar) * (0.5 * abs(ps.tail) + quad)
        total = total + cumulant * site_sum
        err = err + _abs(cumulant) * site_err
    return total, err, families


def _abs(x):
    return x.abs_coefficients() if isinstance(x, MomentPolynomial) else abs(x)
