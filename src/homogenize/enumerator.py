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

The moments are symbolic, so the result is a map signature -> coefficient,
i.e. the expansion coefficients themselves, obtained with no input from the
closed-form derivation.  Its value on a law is
`moment_sum(polynomial, moments.u_moment)`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import lattice
from .errors import CapabilityError
from .kernel import KernelTable, gamma, lattice_power_sum

MAX_K = 5


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


def enumerate_families(k: int) -> list[PathFamily]:
    """All repetition patterns of k positions with every bond used >= 2 times.

    A pattern is a restricted-growth string: labels appear in the order
    0, 1, 2, ..., one string per set partition of the positions, and at most
    k // 2 of them fit.  For k <= 5 this yields at most two blocks.  Patterns
    whose cumulant happens to vanish (nested repetition groups) are included;
    they are confirmed zero at evaluation time.
    """
    if not 2 <= k <= MAX_K:
        raise CapabilityError(f"enumeration supports 2 <= k <= {MAX_K}, got {k}")
    families = []
    for pattern in itertools.product(range(k // 2), repeat=k):
        counts = Counter(pattern)  # in order of first appearance
        if list(counts) == list(range(len(counts))) and min(counts.values()) >= 2:
            families.append(PathFamily(pattern=pattern, multiplicities=tuple(counts.values()),
                                       direction_pinned=pattern[-1] != 0))
    families.sort(key=lambda f: (f.n_blocks, f.pattern))
    return families


@dataclass(frozen=True)
class EnumeratedOrder:
    """Order-k term as maps signature -> coefficient, the form of
    `ExpansionCoefficients.a`, with an error estimate per coefficient."""

    k: int
    polynomial: dict[tuple[int, ...], float]
    error: dict[tuple[int, ...], float]
    families: tuple[PathFamily, ...]


def enumerate_order(k: int, table: KernelTable) -> EnumeratedOrder:
    """Sum every family of order k over the whole table, with symbolic moments."""
    d = table.d
    families = enumerate_families(k)
    g0 = gamma(table, 1, 1, (0,) * d)
    total: dict[tuple[int, ...], float] = {}
    err: dict[tuple[int, ...], float] = {}

    for family in families:
        cumulant = lattice.path_cumulant(family.pattern)
        if family.n_blocks == 1:
            value, error = g0 ** (k - 1), (k - 1) * table.quad_defect * abs(g0) ** (k - 2)
        else:
            pairs = list(zip(family.pattern, family.pattern[1:]))
            n_cross = sum(1 for a, b in pairs if a != b)
            n_pin = sum(1 for a, b in pairs if a == b == 0)
            n_free = sum(1 for a, b in pairs if a == b == 1)
            directions = (1,) if family.direction_pinned else tuple(range(1, d + 1))
            value = error = 0.0
            for alpha in directions:
                ps = lattice_power_sum(table, 1, alpha, n_cross, include_origin=(alpha != 1))
                scalar = g0**n_pin * gamma(table, alpha, alpha, (0,) * d) ** n_free
                value += scalar * (ps.value + ps.tail)
                error += abs(scalar) * ps.err
        for sig, c in cumulant.items():
            total[sig] = total.get(sig, 0.0) + c * value
            err[sig] = err.get(sig, 0.0) + abs(c) * error
    return EnumeratedOrder(
        k=k,
        polynomial={sig: v for sig, v in total.items() if v},
        error={sig: v for sig, v in err.items() if v},
        families=tuple(families),
    )
