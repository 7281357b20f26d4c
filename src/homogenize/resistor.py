"""Monte Carlo oracle: effective conductivity of finite periodic tori.

Each sample draws i.i.d. bond conductances on an L^d torus and solves the
corrector problem div(sigma (e + grad phi)) = 0 with a unit mean field e
along one axis, by matrix-free conjugate gradient preconditioned with the
FFT inverse of the unit-conductance torus Laplacian (the mean-medium
Green's operator of Moulinec-Suquet FFT homogenization), so the iteration
count depends on the contrast and not on L.  The per-sample estimate is
the energy form (1/L^d) sum_b sigma_b (e + grad phi)_b e_b, which equals
the mean flux at the solution and is exact for a uniform medium.  The
torus-plus-mean-field formulation avoids the boundary layers of
plate-electrode setups.

Sampling uses the counter-based Philox generator keyed by (seed, sample
index), so results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .errors import SolverError


@dataclass(frozen=True)
class TorusNetwork:
    """Bond conductances on the periodic L^d lattice.

    conductances has shape (d, L^d): entry (a, x) belongs to the bond from
    site x (C-order flattened) to its +e_a periodic neighbour.
    """

    d: int
    L: int
    conductances: np.ndarray
    seed: int
    sample_index: int = 0


@dataclass(frozen=True)
class CorrectorSolution:
    phi: np.ndarray        # zero-mean potential
    estimate: float        # per-sample effective conductivity
    residual: float        # final relative CG residual
    iterations: int


@dataclass(frozen=True)
class SigmaEstimate:
    """Sample mean and standard error over independent networks."""

    mean: float
    stderr: float
    samples: int
    L: int
    per_sample: tuple[float, ...] | None = None
    skipped: int = 0


def sample_network(
    d: int, L: int, dist: DistributionSpec, seed: int, sample_index: int = 0
) -> TorusNetwork:
    """Draw i.i.d. bond conductances from an atomic law, reproducibly."""
    dist._require_atoms("sample_network")
    if L < 4:
        raise ValueError("torus side must be >= 4")
    if not 0 <= seed < 2**64 or not 0 <= sample_index < 2**64:
        raise ValueError("seed and sample index must fit in uint64")
    key = np.array([seed, sample_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random((d, L**d))
    cum = np.cumsum(dist.probs())
    cum[-1] = 1.0  # guard the top edge against rounding
    values = dist.values()
    cond = values[np.searchsorted(cum, u, side="right")]
    return TorusNetwork(d=d, L=L, conductances=cond, seed=seed, sample_index=sample_index)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum reduces in its own loop; a BLAS dot would start threads on long vectors
    return float(np.einsum("i,i->", x.ravel(), y.ravel()))


def _laplacian(sig: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Weighted graph Laplacian of the (d, L, ..., L) bond conductances applied to phi."""
    out = np.zeros_like(phi)
    for a in range(sig.shape[0]):
        flux = sig[a] * (np.roll(phi, -1, axis=a) - phi)
        out += np.roll(flux, 1, axis=a)
        out -= flux
    return out


def solve_corrector(
    network: TorusNetwork, direction: int = 1, tol: float = 1e-10
) -> CorrectorSolution:
    """Solve the periodic corrector problem and evaluate the energy estimate.

    The Laplacian is singular with constant nullspace; the right-hand side
    is a discrete divergence, hence consistent, and any solution gives the
    same bond gradients.  CG stops once the relative residual falls below
    `tol` (finite, > 0); non-convergence within 100*L*d iterations raises
    SolverError with the final residual attached.
    """
    d, L = network.d, network.L
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not 1 <= direction <= d:
        raise ValueError(f"direction must lie in 1..{d}")
    shape, axes = (L,) * d, tuple(range(d))
    sig = network.conductances.reshape((d,) + shape)
    s = sig[direction - 1]
    rhs = s - np.roll(s, 1, axis=direction - 1)  # sigma_dir(x) - sigma_dir(x - e_dir)
    # rfftn-domain inverse of the unit-conductance Laplacian, zero mode projected out
    eig = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(L) / L)
    symbol = sum(np.ix_(*([eig] * (d - 1) + [eig[: L // 2 + 1]])))
    symbol.flat[0] = np.inf
    symbol = 1.0 / symbol
    rhs_norm = np.sqrt(_dot(rhs, rhs))
    phi, r, p = np.zeros(shape), rhs.copy(), np.zeros(shape)
    r_norm, rho_prev, iterations = rhs_norm, 1.0, 0
    while r_norm > tol * rhs_norm and iterations < 100 * L * d:
        z = np.fft.irfftn(np.fft.rfftn(r, axes=axes) * symbol, s=shape, axes=axes)
        rho = _dot(r, z)
        p = z + (rho / rho_prev) * p
        q = _laplacian(sig, p)
        pq = _dot(p, q)
        if rho == 0.0 or pq == 0.0:  # breakdown: r underflowed or is constant
            break
        alpha = rho / pq
        phi += alpha * p
        r -= alpha * q
        r_norm, rho_prev, iterations = np.sqrt(_dot(r, r)), rho, iterations + 1

    true_r = rhs - _laplacian(sig, phi)
    residual = float(np.sqrt(_dot(true_r, true_r)) / rhs_norm) if rhs_norm > 0 else 0.0
    if not r_norm <= tol * rhs_norm:
        raise SolverError(
            f"conjugate gradient failed to reach rtol={tol} "
            f"after {iterations} iterations (relative residual {residual:.3e})",
            residual=residual,
            iterations=iterations,
        )
    phi -= phi.mean()
    grad = np.roll(phi, -1, axis=direction - 1) - phi
    estimate = float(np.mean(s * (1.0 + grad)))
    return CorrectorSolution(
        phi=phi.ravel(), estimate=estimate, residual=residual, iterations=iterations
    )


def estimate_sigma_e(
    d: int,
    L: int,
    dist: DistributionSpec,
    samples: int,
    seed: int,
    tol: float = 1e-10,
    keep_per_sample: bool = False,
) -> SigmaEstimate:
    """Mean and standard error of the per-sample estimate over `samples` networks,
    each solved with its mean field along the first axis.

    Deterministic for a given seed.  Samples whose solve fails are skipped
    and counted in `skipped`; the estimate is over the remaining ones.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")

    solved = []
    for i in range(samples):
        net = sample_network(d, L, dist, seed, sample_index=i)
        try:
            solved.append(solve_corrector(net, tol=tol).estimate)
        except SolverError:
            pass
    vals = np.array(solved)
    skipped = samples - len(vals)
    if len(vals) < 2:
        raise SolverError(f"only {len(vals)} of {samples} samples solved")
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    return SigmaEstimate(
        mean=mean,
        stderr=stderr,
        samples=int(len(vals)),
        L=L,
        per_sample=tuple(float(x) for x in vals) if keep_per_sample else None,
        skipped=int(skipped),
    )
