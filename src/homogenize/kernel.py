"""Lattice coupling kernel on a truncated box.

The kernel G_ab(z) is a Brillouin-zone integral of a bounded periodic
integrand with a direction-dependent (but finite) limit at the origin of
momentum space.  It is evaluated on the midpoint-shifted tensor grid
lam = (j + 1/2)/N, which never touches the singular point, by attaching the
half-step phases to the two sine factors and reading all shifts z off a
d-dimensional inverse FFT.

Only channels (1, 1) and (1, 2) are built and stored: by cubic symmetry
G_aa(z) = G_11(z_a, other coordinates), G_ab(z) = G_12(z_a, z_b, other
coordinates) for a < b, and G_ab(z) = G_ba(-z).

Key exact properties, checked in tests:
  * G_aa(0) = -1/d  (machine-exact on the midpoint grid, by symmetry),
  * in 2D, G_11(x, y) = -G_11(y, x) for (x, y) != 0.

Lattice power sums over the stored box carry a tail estimate from a power
law fitted to the outermost shell sums; the fit is empirical, not a bound.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CapacityError

#: (N, R) per dimension keeping the N^d grid small while meeting the
#: accuracy targets of the test suite.
DEFAULTS = {2: (512, 24), 3: (64, 8), 4: (32, 4), 5: (16, 3)}

#: Hard cap on grid points per channel (~0.5 GB of complex128 transient).
GRID_CAP = 2**25

_MAGIC = b"GKTB"
_VERSION = 2
_HEADER = struct.Struct("<4sIIIIdd")
#: The stored channels; `channel_array` derives all others from them.
_BASE = ((1, 1), (1, 2))


@dataclass(frozen=True)
class KernelTable:
    """Kernel values on the box |z|_inf <= R for the base channels.

    values maps (1, 1) and (1, 2) to a (2R+1,)^d float array indexed by
    z + R per axis; `channel_array` and `gamma` reach every other channel
    through them.  quad_defect is the largest observed difference against
    a doubled-resolution direct quadrature at probe sites; est_tail
    estimates the |z| > R remainder of the square row sum
    sum_a sum_z G_1a(z)^2.
    """

    d: int
    N: int
    R: int
    values: dict[tuple[int, int], np.ndarray]
    quad_defect: float
    est_tail: float


class PowerSum(NamedTuple):
    value: float  # sum over the stored box
    tail: float   # signed shell-extrapolation estimate of the |z| > R remainder


def build_kernel_table(d: int, N: int, R: int) -> KernelTable:
    """Evaluate the kernel by midpoint quadrature and FFT readout.

    Every table carries its quadrature defect, probed at a few sites against
    direct quadrature at 2N, so every error bar derived from it includes the
    quadrature error.

    Parameters
    ----------
    d : dimension, >= 2
    N : quadrature points per axis, even and >= 8
    R : sup-norm truncation radius of the stored site box, 1 <= R <= N/2 - 1
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if N < 8 or N % 2 != 0:
        raise ValueError("resolution N must be even and >= 8")
    if R < 1:
        raise ValueError("truncation radius R must be >= 1")
    if R > N // 2 - 1:
        raise ValueError(f"R={R} too large for N={N} (need R <= N/2 - 1)")
    if N**d > GRID_CAP:
        n = int(GRID_CAP ** (1.0 / d)) + 1  # the float root can be off by one either way
        while n**d > GRID_CAP or n % 2:
            n -= 1
        raise CapacityError(
            f"N^d = {N**d:.3g} exceeds capacity {GRID_CAP:.3g}; feasible N <= {n} for d={d}"
        )

    x = (np.arange(N) + 0.5) / N
    s = np.sin(np.pi * x)
    t = s * np.exp(-1j * np.pi * x)  # sine factor with its half-step phase

    denom = sum((s**2).reshape(_axis_shape(N, d, ax)) for ax in range(d))
    idx = np.arange(-R, R + 1)
    sel = np.ix_(*([idx % N] * d))
    half_phase = np.exp(1j * np.pi * idx / N)

    values = {}
    for a, b in _BASE:
        g = t.reshape(_axis_shape(N, d, a - 1)) * np.conj(t).reshape(_axis_shape(N, d, b - 1))
        box = np.fft.ifftn(g / denom)[sel]
        for ax in range(d):
            box = box * half_phase.reshape(_axis_shape(2 * R + 1, d, ax))
        values[(a, b)] = -np.ascontiguousarray(box.real)

    # G_1a for a >= 2 is an axis permutation of G_12, with the same shell sums
    tail_11, tail_12 = (tail_corrected_sum(_int_power(values[k], 2), R, d).tail for k in _BASE)
    table = KernelTable(d, N, R, values, 0.0, float(tail_11 + (d - 1) * tail_12))
    return replace(table, quad_defect=_probe_quad_defect(table))


def _axis_shape(n: int, d: int, ax: int) -> tuple[int, ...]:
    return (1,) * ax + (n,) + (1,) * (d - 1 - ax)


def _probe_quad_defect(table: KernelTable) -> float:
    """Max |G_N - G_2N| over a few probe sites, via direct folded sums."""
    d = table.d
    probes = [(1,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2)]
    if d <= 3:
        probes.append((2, 1) + (0,) * (d - 2))
    channels = [(1, 1), (1, d)] if d <= 3 else [(1, 1)]
    return max(abs(gamma(table, a, b, z) - direct_quadrature(d, 2 * table.N, z, a, b))
               for a, b in channels for z in probes)


def direct_quadrature(d: int, N: int, z, a: int, b: int) -> float:
    """Single-site kernel value by direct midpoint summation (no FFT).

    Memory-bounded reference evaluation used for the N-vs-2N defect probes.
    The grid and the denominator are symmetric under x -> 1 - x on each
    axis, so the sum runs over x < 1/2 with every axis factor folded to
    f(x) + f(1 - x) (exact, for even N), in slabs of 8 along the leading axis.
    """
    if N % 2 != 0:
        raise ValueError("resolution N must be even")
    z = tuple(int(c) for c in z)
    M = N // 2
    x = (np.arange(M) + 0.5) / N
    s2 = np.sin(np.pi * x) ** 2

    def axis_factor(ax, x):
        t = np.sin(np.pi * x) * np.exp(-1j * np.pi * x)
        f = np.exp(2j * np.pi * x * z[ax])
        if ax == a - 1:
            f = f * t
        if ax == b - 1:
            f = f * np.conj(t)
        return f

    folded = [axis_factor(ax, x) + axis_factor(ax, 1 - x) for ax in range(d)]
    shapes = [_axis_shape(M, d, ax) for ax in range(d)]
    denom_tail = sum(s2.reshape(shp) for shp in shapes[1:])
    numer_tail = math.prod(f.reshape(shp) for f, shp in zip(folded[1:], shapes[1:]))
    lead, lead_s2 = folded[0].reshape(shapes[0]), s2.reshape(shapes[0])
    total = sum(
        np.sum(lead[i:i + 8] * numer_tail / (denom_tail + lead_s2[i:i + 8]))
        for i in range(0, M, 8)
    )
    return float(-total.real / N**d)


@lru_cache(maxsize=None)
def _base_order(d: int, alpha: int, beta: int):
    """Base channel of (alpha, beta), alpha <= beta, and the site order into it:
    G_alpha,beta(z) = values[key][z[order[0]] + R, ..., z[order[d-1]] + R]."""
    lead = (alpha - 1,) if alpha == beta else (alpha - 1, beta - 1)
    return _BASE[len(lead) - 1], lead + tuple(ax for ax in range(d) if ax not in lead)


def gamma(table: KernelTable, alpha: int, beta: int, z) -> float:
    """Kernel value G_alpha,beta(z), |z|_inf <= R, read off its base channel."""
    d, R = table.d, table.R
    if not (1 <= alpha <= d and 1 <= beta <= d):
        raise ValueError(f"direction indices must lie in 1..{d}")
    z = tuple(int(c) for c in z)
    if len(z) != d:
        raise ValueError(f"site must have {d} coordinates")
    if any(abs(c) > R for c in z):
        raise ValueError(f"site {z} outside stored box |z|_inf <= {R}")
    if alpha > beta:
        alpha, beta, z = beta, alpha, tuple(-c for c in z)
    key, order = _base_order(d, alpha, beta)
    return float(table.values[key][tuple(z[ax] + R for ax in order)])


def channel_array(table: KernelTable, alpha: int, beta: int) -> np.ndarray:
    """Full box array for channel (alpha, beta): a view of a base channel."""
    if not (1 <= alpha <= table.d and 1 <= beta <= table.d):
        raise ValueError(f"direction indices must lie in 1..{table.d}")
    key, order = _base_order(table.d, min(alpha, beta), max(alpha, beta))
    arr = table.values[key].transpose(np.argsort(order))
    if alpha > beta:
        arr = arr[(slice(None, None, -1),) * table.d]
    return arr


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
                logc = y_mean - q * x_mean
                tail = float(np.sign(sv[0]) * np.exp(logc) * _hurwitz_zeta(-q, R + 1))
    return PowerSum(value, tail)


#: Bernoulli numbers B2, B4, ..., B12.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (a + k)^-s for s > 1 and a >= 2.

    Eight terms are summed as they stand; the rest is the Euler-Maclaurin
    tail at n = a + 8, with the corrections
    B_2j / (2j)! * s (s+1) ... (s+2j-2) * n^(-s-2j+1) for j = 1..6.
    """
    n = a + 8
    terms = [(a + k) ** -s for k in range(8)]
    terms += [n ** (1 - s) / (s - 1), 0.5 * n**-s]
    c = 0.5 * s * n ** (-s - 1)
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
    """Sum of G_alpha,beta(z)^p, p >= 1, over the stored box, with tail estimate."""
    if p < 1:
        raise ValueError("power p must be >= 1")
    arr = _int_power(channel_array(table, alpha, beta), p)
    return tail_corrected_sum(arr, table.R, table.d, include_origin=include_origin)


def power_sum_quad_error(table: KernelTable, alpha: int, beta: int, p: int) -> float:
    """First-order propagation of the per-value quadrature defect into a power sum."""
    arr = np.abs(channel_array(table, alpha, beta))
    return float(p * table.quad_defect * _int_power(arr, p - 1).sum())


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

def save_table(table: KernelTable, path) -> None:
    """Write a table: header (magic, version, d, N, R, defect, tail) then the
    base channels (1, 1) and (1, 2) as little-endian float64.  The bytes go
    to a temporary file that then replaces `path`, so no reader sees a part."""
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, table.d, table.N, table.R,
                                  table.quad_defect, table.est_tail))
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
    _, version, d, N, R, defect, tail = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"unsupported kernel table version {version}")
    # a header no build could write: N >= 8 and N^d <= GRID_CAP bound d
    if not (2 <= d <= math.log(GRID_CAP, 8) and 1 <= R <= N // 2 - 1):
        raise ValueError(f"corrupt kernel table header (d={d}, N={N}, R={R})")
    shape = (len(_BASE),) + (2 * R + 1,) * d
    arrays = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    if arrays.size != math.prod(shape):
        raise ValueError("kernel table file has the wrong length (truncated?)")
    values = dict(zip(_BASE, arrays.astype(np.float64).reshape(shape)))
    return KernelTable(d=d, N=N, R=R, values=values, quad_defect=defect, est_tail=tail)


def cache_dir() -> Path:
    return Path(os.environ.get("HOMOGENIZE_CACHE_DIR") or Path.home() / ".cache" / "homogenize")


def get_kernel_table(d: int, N: int | None = None, R: int | None = None) -> KernelTable:
    """Load a cached table for (d, N, R) or build and cache one.

    N and R default to the per-dimension table of DEFAULTS; dimensions
    without an entry must be given explicitly.  A missing, unreadable or
    mismatched cache file is rebuilt and overwritten.
    """
    if N is None or R is None:
        if d not in DEFAULTS:
            raise ValueError(f"no default resolution for d={d}; pass N and R")
        dn, dr = DEFAULTS[d]
        N = N if N is not None else dn
        R = R if R is not None else dr
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
