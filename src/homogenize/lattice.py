"""Path combinatorics over label patterns.

A path is a finite ordered sequence of labels, one per position; positions
with equal labels sit on the same lattice bond.  Under i.i.d. bond disorder
the two quantities computed here depend only on that repetition pattern,
not on which bonds the labels name: the factorized path moment, and the
ordered cumulant, an inclusion-exclusion over contiguous compositions of
the path.  Both vanish whenever some label occurs exactly once, because the
disorder variable u has zero mean.

All functions are pure; they accept any tuple of hashable labels and any
moment provider exposing ``u_moment(n)`` and ``max_order``; values may be
floats or any ring-like objects supporting ``+`` and ``*`` (the enumerator
passes polynomials).
"""

from __future__ import annotations

import itertools
from collections import Counter

#: Compositions grow as 2^(k-1); beyond this length the cumulant sum is
#: useless at desk scale.
MAX_PATH_LEN = 8


def _check_path(path: tuple) -> None:
    if len(path) < 1:
        raise ValueError("path must contain at least one position")
    if len(path) > MAX_PATH_LEN:
        raise ValueError(f"path length {len(path)} exceeds cap {MAX_PATH_LEN}")


def compositions(path: tuple, m: int) -> list[tuple[tuple, ...]]:
    """All splits of `path` into m contiguous nonempty blocks, in order.

    There are C(k-1, m-1) of them for a path of length k; the blocks always
    concatenate back to the original path.
    """
    _check_path(path)
    k = len(path)
    if not 1 <= m <= k:
        raise ValueError(f"block count m={m} out of range 1..{k}")
    out = []
    for cuts in itertools.combinations(range(1, k), m - 1):
        edges = (0,) + cuts + (k,)
        out.append(tuple(path[a:b] for a, b in zip(edges[:-1], edges[1:])))
    return out


def path_moment(path: tuple, moments):
    """Moment of a path: product over distinct labels of <u^multiplicity>.

    Under i.i.d. bond disorder the expectation of the product factorizes over
    distinct bonds.  Any label of multiplicity 1 contributes <u> = 0 and kills
    the whole product.
    """
    _check_path(path)
    counts = Counter(path)
    top = max(counts.values())
    if top > moments.max_order:
        raise ValueError(
            f"moments available to order {moments.max_order}, need {top}"
        )
    result = 1.0
    for mult in counts.values():
        result = result * moments.u_moment(mult)
    return result


def path_cumulant(path: tuple, moments):
    """Ordered cumulant: alternating sum over contiguous compositions.

    E(path) = sum_m (-1)^(m-1) sum_{splits into m blocks} prod_j <block_j>.
    Vanishes whenever the path contains a label appearing exactly once.
    """
    _check_path(path)
    k = len(path)
    total = 0.0
    for m in range(1, k + 1):
        sign = 1.0 if m % 2 == 1 else -1.0
        for blocks in compositions(path, m):
            prod = 1.0
            for block in blocks:
                prod = prod * path_moment(block, moments)
            total = total + sign * prod
    return total
