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
the cumulant algebra are exercised, not assumed.  A family's cumulant is
that of its label pattern, which is all the cumulant depends on.  The
free-site sums are the kernel's own lattice power sums over the whole
table, each carrying its error (half the shell-fit tail plus the propagated
quadrature defect), which enters the per-coefficient error estimate.

The moments are symbolic, so the result is a sparse polynomial in the moment
variables, i.e. the expansion coefficients themselves, obtained with no
input from the closed-form derivation.  Its value on a law is
`polynomial.evaluate(moments)`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .distributions import Moments, moment_sum
from .errors import CapabilityError
from .kernel import KernelTable, gamma, lattice_power_sum

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
        return moment_sum(self.terms, moments.u_moment)

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


def enumerate_families(k: int) -> list[PathFamily]:
    """All repetition patterns of k positions with every bond used >= 2 times.

    For k <= 5 this yields at most two blocks.  Patterns whose cumulant
    happens to vanish (nested repetition groups) are included; they are
    confirmed zero at evaluation time.
    """
    if not 2 <= k <= MAX_K:
        raise CapabilityError(f"enumeration supports 2 <= k <= {MAX_K}, got {k}")
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


@dataclass(frozen=True)
class EnumeratedOrder:
    """Order-k term as a polynomial in the moments, with error estimates."""

    k: int
    polynomial: MomentPolynomial
    error: MomentPolynomial
    families: tuple[PathFamily, ...]


def enumerate_order(k: int, table: KernelTable) -> EnumeratedOrder:
    """Sum every family of order k over the whole table, with symbolic moments."""
    d = table.d
    families = enumerate_families(k)
    provider = SymbolicMoments(k)
    g0 = gamma(table, 1, 1, (0,) * d)
    total = err = MomentPolynomial.zero()

    for family in families:
        cumulant = lattice.path_cumulant(family.pattern, provider)
        size = cumulant.abs_coefficients()
        if family.n_blocks == 1:
            total = total + cumulant * g0 ** (k - 1)
            err = err + size * (k - 1) * table.quad_defect * abs(g0) ** (k - 2)
            continue
        if family.n_blocks > 2:  # impossible for k <= 5; guards future edits
            raise CapabilityError("only two distinct bonds supported per path")
        pairs = list(zip(family.pattern, family.pattern[1:]))
        n_cross = sum(1 for a, b in pairs if a != b)
        n_pin = sum(1 for a, b in pairs if a == b == 0)
        n_free = sum(1 for a, b in pairs if a == b == 1)
        directions = (1,) if family.direction_pinned else tuple(range(1, d + 1))
        site_sum = site_err = 0.0
        for alpha in directions:
            ps = lattice_power_sum(table, 1, alpha, n_cross, include_origin=(alpha != 1))
            scalar = g0**n_pin * gamma(table, alpha, alpha, (0,) * d) ** n_free
            site_sum += scalar * (ps.value + ps.tail)
            site_err += abs(scalar) * ps.err
        total = total + cumulant * site_sum
        err = err + size * site_err
    return EnumeratedOrder(k=k, polynomial=total, error=err, families=tuple(families))
