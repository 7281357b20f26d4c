"""Path combinatorics over label patterns.

A path is a finite ordered sequence of labels, one per position; positions
with equal labels sit on the same lattice bond.  Under i.i.d. bond disorder
the two quantities computed here depend only on that repetition pattern,
not on which bonds the labels name: the factorized path moment, and the
ordered cumulant, an inclusion-exclusion over contiguous compositions of
the path.  Both vanish whenever some label occurs exactly once, because the
disorder variable u has zero mean.

Both are symbolic in the moments of u.  A signature is the sorted tuple of
moment orders of a product <u^s1>...<u^sm>, the key of every coefficient
map in the package; `distributions.moment_sum` evaluates a map on a law.
All functions are pure and accept any tuple of hashable labels.
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


def path_moment(path: tuple) -> tuple[int, ...] | None:
    """Signature of a path's moment, the product over distinct labels of
    <u^multiplicity>: the sorted multiplicities, or None when some label
    occurs once, since <u> = 0 kills the whole product.

    Under i.i.d. bond disorder the expectation of the product factorizes over
    distinct bonds.
    """
    _check_path(path)
    mults = tuple(sorted(Counter(path).values()))
    return None if mults[0] == 1 else mults


def path_cumulant(path: tuple) -> dict[tuple[int, ...], int]:
    """Ordered cumulant as a map signature -> integer coefficient.

    E(path) = sum_m (-1)^(m-1) sum_{splits into m blocks} prod_j <block_j>,
    over the contiguous compositions of the path; terms that cancel are
    dropped.  Empty whenever the path contains a label appearing exactly once.
    """
    _check_path(path)
    total: dict[tuple[int, ...], int] = {}
    for m in range(1, len(path) + 1):
        sign = 1 if m % 2 == 1 else -1
        for blocks in compositions(path, m):
            sigs = [path_moment(block) for block in blocks]
            if None not in sigs:
                sig = tuple(sorted(itertools.chain.from_iterable(sigs)))
                total[sig] = total.get(sig, 0) + sign
    return {sig: c for sig, c in total.items() if c}
