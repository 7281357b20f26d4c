"""Lattice coupling kernel on a truncated box.

The kernel G_ab(z) is a Brillouin-zone integral of a bounded periodic
integrand with a direction-dependent (but finite) limit at the origin of
momentum space.  It is evaluated on the midpoint-shifted tensor grid
lam = (j + 1/2)/N, which never touches the singular point.  The integrand
is even under lam -> 1 - lam on each axis, so the box |z|_inf <= R is the
real half-grid lam < 1/2 contracted with one small real matrix per axis.

Only channels (1, 1) and (1, 2) are built and stored: by cubic symmetry
G_aa(z) = G_11(z_a, other coordinates), G_ab(z) = G_12(z_a, z_b, other
coordinates) for a < b, and G_ab(z) = G_ba(-z); `channel_array` returns
every other channel as a view of a stored one.

Key exact properties, checked in tests:
  * G_aa(0) = -1/d  (machine-exact on the midpoint grid, by symmetry),
  * in 2D, G_11(x, y) = -G_11(y, x) for (x, y) != 0.

Lattice power sums over the stored box carry their error: a tail estimate
from a power law fitted to the outermost shell sums (empirical, not a bound)
and the propagated quadrature defect.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, require_capacity

#: (N, R) per dimension keeping the N^d grid small while meeting the
#: accuracy targets of the test suite.
DEFAULTS = {2: (512, 24), 3: (64, 8), 4: (32, 4), 5: (16, 3)}

#: Hard cap on N^d, the point count of the defect probe's real half-grid at
#: 2N, and so on the work of a build.  No build holds that grid: its largest
#: array is one slab (see _SLAB), or two to three rows of N^(d-1) points where
#: a row outgrows the slab: 16 MB of float64 at the cap for d = 5 (N = 32).
GRID_CAP = 2**25

#: Points of the real half-grid that `_folded_sum` builds and contracts at
#: once (4 MB of float64); a slab holds at least two rows of the last axis.
_SLAB = 2**19

_MAGIC = b"GKTB"
_VERSION = 3
_HEADER = struct.Struct("<4sIIIId")
#: The stored channels; `channel_array` derives all others from them.
_BASE = ((1, 1), (1, 2))


@dataclass(frozen=True)
class KernelTable:
    """Kernel values on the box |z|_inf <= R for the base channels.

    values maps (1, 1) and (1, 2) to a (2R+1,)^d float array indexed by
    z + R per axis; `channel_array` and `gamma` reach every other channel
    through them.  quad_defect is the largest observed difference against
    a doubled-resolution direct quadrature at probe sites.
    """

    d: int
    N: int
    R: int
    values: dict[tuple[int, int], np.ndarray]
    quad_defect: float


class PowerSum(NamedTuple):
    value: float  # sum over the stored box
    tail: float   # signed shell-extrapolation estimate of the |z| > R remainder
    quad: float = 0.0  # propagated quadrature defect, over the whole box

    @property
    def err(self) -> float:
        """Error estimate of value + tail: the quadrature term plus half the tail."""
        return self.quad + 0.5 * abs(self.tail)


def build_kernel_table(d: int, N: int, R: int) -> KernelTable:
    """Evaluate the kernel on the stored box by folded midpoint quadrature.

    Each base channel is the real half-grid integrand contracted with one
    (R+1) x N/2 matrix per axis, built and contracted slab by slab, so the
    build never holds the (N/2)^d grid.  Every table carries its quadrature
    defect, probed at a few sites against the same quadrature at 2N (again
    in slabs), so every error bar derived from it includes the quadrature
    error.  It admits d >= 2, N quadrature points per axis, even and >= 8,
    with N^d <= GRID_CAP (else CapacityError), and the sup-norm radius
    1 <= R <= N/2 - 1 of the stored site box.
    """
    _require_grid(d, N, R)
    idx = np.arange(-R, R + 1)
    values = {(a, b): _folded_sum(d, N, a, b, [idx] * d) for a, b in _BASE}
    return KernelTable(d, N, R, values, _probe_quad_defect(d, N))


def _require_grid(d: int, N: int, R: int) -> None:
    """Refuse a (d, N, R) that `build_kernel_table` does not admit (CapacityError past GRID_CAP)."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if N < 8 or N % 2 != 0:
        raise ValueError("resolution N must be even and >= 8")
    if not 1 <= R <= N // 2 - 1:
        raise ValueError(f"truncation radius R must be >= 1 and <= N/2 - 1, got R={R}, N={N}")
    require_capacity("N", d, N, GRID_CAP, 8, step=2)


def _axis_shape(n: int, d: int, ax: int) -> tuple[int, ...]:
    return (1,) * ax + (n,) + (1,) * (d - 1 - ax)


def _probe_quad_defect(d: int, N: int) -> float:
    """Max |G_N - G_2N| over a few probe sites, read off radius-2 boxes at N
    and 2N, so that it does not depend on the table's own radius."""
    probes = [(1,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2)]
    if d <= 3:
        probes.append((2, 1) + (0,) * (d - 2))
    channels = [(1, 1), (1, d)] if d <= 3 else [(1, 1)]
    near = [np.arange(-2, 3)] * d
    keys = _BASE[:len(channels)]
    coarse, fine = (KernelTable(d, n, 2, {k: _folded_sum(d, n, *k, near) for k in keys}, 0.0)
                    for n in (N, 2 * N))
    return max(abs(gamma(coarse, a, b, z) - gamma(fine, a, b, z))
               for a, b in channels for z in probes)


def _folded_sum(d: int, N: int, a: int, b: int, sites) -> np.ndarray:
    """G_ab on the product of the per-axis site lists `sites`, by midpoint quadrature.

    1/D and the grid x = (j + 1/2)/N are even under x -> 1 - x on each axis,
    so the sum runs over the real half-grid x < 1/2 with each axis factor
    folded to f(x) + f(1 - x), s = sin(pi x): 2 cos(2 pi x z) on a plain axis,
    2 s^2 cos(2 pi x z) on axis a = b, and 2 s sin(pi x (2z - 1)) on axis a,
    2 s sin(pi x (2z + 1)) on axis b of a != b (their factors i flip the sign).
    Each axis is contracted by einsum (no BLAS) with its matrix, a row per
    |2z -+ 1|.  The half-grid is built in slabs of the last axis, each of
    about _SLAB elements but at least two rows: axes 0..d-2 of a slab are
    contracted in turn, then the last axis once over the joined slab results.
    Every output element is summed in the same order as by contracting the
    whole grid at once, so the result is the same to the last bit.
    """
    M = N // 2
    odd = 2 * np.arange(M) + 1  # x = odd / 2N
    s = np.sin(np.pi / (2 * N) * odd)
    mats, spread, sign = [], [], 1
    for ax in range(d):
        shift = (ax == b - 1) - (ax == a - 1)
        k = 2 * np.asarray(sites[ax]) + shift
        rows, inv = np.unique(np.abs(k), return_inverse=True)
        angle = np.pi / (2 * N) * (np.multiply.outer(rows, odd) % (4 * N))
        trig = np.sin(angle) if shift else np.cos(angle)
        mats.append(2 * s ** ((ax == a - 1) + (ax == b - 1)) * trig)
        spread.append(inv)
        if shift:
            sign = sign * np.sign(k).reshape(_axis_shape(k.size, d, ax))
    s2 = s * s
    head = sum(s2.reshape(_axis_shape(M, d, ax)) for ax in range(d - 1))  # D less its last term
    step = max(2, _SLAB // M ** (d - 1))
    edges = [*range(0, max(M - 1, 1), step), M]  # the last slab takes a one-row rest
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        out = head + s2[lo:hi]
        np.reciprocal(out, out=out)
        for mat in mats[:-1]:
            out = np.einsum("x...,zx->...z", out, mat)
        parts.append(out)
    out = np.einsum("x...,zx->...z", np.concatenate(parts), mats[-1])
    return out[np.ix_(*spread)] * sign * ((-1.0 if a == b else 1.0) / N**d)


def direct_quadrature(d: int, N: int, z, a: int, b: int) -> float:
    """Single-site kernel value G_ab(z) by folded midpoint summation (no FFT).

    The one-site case of the box evaluation behind `build_kernel_table`:
    the same folded half-grid sum with one row per axis.
    """
    _require_grid(d, N, 1)
    return _folded_sum(d, N, a, b, [[int(c)] for c in z]).item()


def channel_array(table: KernelTable, alpha: int, beta: int) -> np.ndarray:
    """Full box array for channel (alpha, beta): a base channel with its
    leading axes moved to alpha - 1 (and beta - 1), reversed if alpha > beta."""
    if not (1 <= alpha <= table.d and 1 <= beta <= table.d):
        raise ValueError(f"direction indices must lie in 1..{table.d}")
    lo, hi = sorted((alpha - 1, beta - 1))
    if lo == hi:
        arr = np.moveaxis(table.values[(1, 1)], 0, lo)
    else:
        arr = np.moveaxis(table.values[(1, 2)], (0, 1), (lo, hi))
    if alpha > beta:
        arr = arr[(slice(None, None, -1),) * table.d]
    return arr


def gamma(table: KernelTable, alpha: int, beta: int, z) -> float:
    """Kernel value G_alpha,beta(z), |z|_inf <= R, read off `channel_array`."""
    d, R = table.d, table.R
    z = tuple(int(c) for c in z)
    if len(z) != d:
        raise ValueError(f"site must have {d} coordinates")
    if any(abs(c) > R for c in z):
        raise ValueError(f"site {z} outside stored box |z|_inf <= {R}")
    return float(channel_array(table, alpha, beta)[tuple(c + R for c in z)])


@lru_cache(maxsize=32)
def shell_radii(R: int, d: int) -> np.ndarray:
    """Sup-norm radius of every site in the (2R+1)^d box."""
    idx = np.abs(np.arange(-R, R + 1))
    out = np.zeros((2 * R + 1,) * d, dtype=np.int32)
    for ax in range(d):
        np.maximum(out, idx.reshape(_axis_shape(2 * R + 1, d, ax)), out=out)
    out.setflags(write=False)
    return out


def tail_corrected_sum(arr: np.ndarray, R: int, d: int, include_origin: bool = True) -> PowerSum:
    """Box sum of `arr` plus a power-law tail extrapolated from shell sums.

    Shell sums s_r over |z|_inf = r for the outer three shells are
    fitted to C * r^q (the closed-form least-squares line through the points
    (log r, log |s_r|)); the fitted tail sum_{r > R} C r^q is returned
    alongside the raw box sum.  If the outer shells change sign, or decay
    too slowly for the tail to converge, the tail estimate is 0.
    """
    radii = shell_radii(R, d)
    shell_sums = np.bincount(radii.ravel(), weights=arr.ravel(), minlength=R + 1)
    value = float(shell_sums.sum())
    if not include_origin:
        value -= float(arr[(R,) * d])

    tail = 0.0
    if R >= 3:
        rs = np.arange(R - 2, R + 1)
        sv = shell_sums[rs]
        if np.all(sv > 0) or np.all(sv < 0):
            x, y = np.log(rs), np.log(np.abs(sv))
            x_mean, y_mean = x.sum() / 3, y.sum() / 3
            dx = x - x_mean
            q = float(dx @ (y - y_mean) / (dx @ dx))
            if q < -1.0:  # else the extrapolated tail diverges; refuse
                # C R^q * sum_{r > R} (r/R)^q: neither factor overflows at large -q
                log_fit_r = y_mean + q * (math.log(R) - x_mean)
                tail = float(np.sign(sv[0]) * np.exp(log_fit_r) * _hurwitz_zeta(-q, R + 1, R))
    return PowerSum(value, tail)


#: Bernoulli numbers B2, B4, ..., B12.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _hurwitz_zeta(s: float, a: float, scale: float = 1.0) -> float:
    """Scaled Hurwitz zeta sum_{k >= 0} ((a + k) / scale)^-s for s > 1 and a >= 2.

    Eight terms are summed as they stand; the rest is the Euler-Maclaurin
    tail at n = a + 8, with the corrections
    B_2j / (2j)! * s (s+1) ... (s+2j-2) * n^(-s-2j+1) for j = 1..6, each
    times scale^s.  With scale < a no term overflows, however large s is.
    """
    n = a + 8
    terms = [((a + k) / scale) ** -s for k in range(8)]
    w = (n / scale) ** -s
    terms += [n * w / (s - 1), 0.5 * w]
    c = 0.5 * s * w / n
    for j, b in enumerate(_BERNOULLI, start=1):
        terms.append(b * c)
        c *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * n * n)
    return math.fsum(terms)


def _int_power(x, p: int):
    """x**p for an integer p >= 0 by repeated squaring, elementwise.

    Every integer power of kernel values goes through here: a product costs
    about 1 ns per element, libm `pow` (what `x ** p` calls for p > 2) about
    70 ns.  The result can differ from `pow` in the last bits; for p == 1
    it is `x` itself.
    """
    result = np.ones_like(x) if p == 0 else None
    while p:
        if p & 1:
            result = x if result is None else result * x
        p >>= 1
        if p:
            x = x * x
    return result


def lattice_power_sum(
    table: KernelTable, alpha: int, beta: int, p: int, include_origin: bool = True
) -> PowerSum:
    """Sum of G_alpha,beta(z)^p, p >= 1, over the stored box, with tail estimate
    and quad = p * defect * sum |G|^(p-1) over the whole box, origin included."""
    if p < 1:
        raise ValueError("power p must be >= 1")
    arr = channel_array(table, alpha, beta)
    ps = tail_corrected_sum(_int_power(arr, p), table.R, table.d, include_origin=include_origin)
    quad = float(p * table.quad_defect * _int_power(np.abs(arr), p - 1).sum())
    return ps._replace(quad=quad)


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

def save_table(table: KernelTable, path) -> None:
    """Write a table: header (magic, version, d, N, R, defect) then the
    base channels (1, 1) and (1, 2) as little-endian float64.  The bytes go
    to a temporary file that then replaces `path`, so no reader sees a part."""
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, table.d, table.N, table.R, table.quad_defect))
            fh.write(np.asarray([table.values[k] for k in _BASE], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path) -> KernelTable:
    """Read a table written by `save_table`."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ValueError(f"not a kernel table file (magic {data[:4]!r})")
    _, version, d, N, R, defect = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"unsupported kernel table version {version}")
    try:
        _require_grid(d, N, R)
    except (ValueError, CapacityError):  # a header no build could write
        raise ValueError(f"corrupt kernel table header (d={d}, N={N}, R={R})") from None
    shape = (len(_BASE),) + (2 * R + 1,) * d
    arrays = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    if arrays.size != math.prod(shape):
        raise ValueError("kernel table file has the wrong length (truncated?)")
    values = dict(zip(_BASE, arrays.astype(np.float64).reshape(shape)))
    return KernelTable(d=d, N=N, R=R, values=values, quad_defect=defect)


def cache_dir() -> Path:
    return Path(os.environ.get("HOMOGENIZE_CACHE_DIR") or Path.home() / ".cache" / "homogenize")


def get_kernel_table(d: int, N: int | None = None, R: int | None = None) -> KernelTable:
    """Load a cached table for (d, N, R) or build and cache one.

    N and R default to the per-dimension table of DEFAULTS; dimensions
    without an entry must be given explicitly.  A missing, unreadable or
    mismatched cache file is rebuilt and overwritten.
    """
    if (N is None or R is None) and d not in DEFAULTS:
        _require_grid(d, 8, 1)  # first, since some d admit no table at all
        raise ValueError(f"no default resolution for d={d}; only d in {sorted(DEFAULTS)} have one")
    N = DEFAULTS[d][0] if N is None else N
    R = DEFAULTS[d][1] if R is None else R
    _require_grid(d, N, R)
    path = cache_dir() / f"kernel_d{d}_N{N}_R{R}.bin"
    try:
        table = load_table(path)
        if (table.d, table.N, table.R) == (d, N, R):
            return table
    except (OSError, ValueError, struct.error):
        pass  # no usable cache file: rebuild and overwrite it
    table = build_kernel_table(d, N, R)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, path)
    return table
