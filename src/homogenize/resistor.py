"""Monte Carlo oracle: effective conductivity of finite periodic tori.

Each sample draws i.i.d. bond conductances on an L^d torus and solves the
corrector problem div(sigma (e + grad phi)) = 0 with a unit mean field e
along one axis, by matrix-free conjugate gradient preconditioned with the
FFT inverse of the unit-conductance torus Laplacian (the mean-medium
Green's operator of Moulinec-Suquet FFT homogenization), so the iteration
count depends on the contrast and not on L.  One slice-based periodic
stencil applies the weighted Laplacian, both in the CG product and for the
true residual.  Each solve allocates its vectors and complex spectrum once
and reuses them in every iteration.  It also makes, once, the stencil's
slice views of its fixed buffers and the flat views its dot products read,
so a stencil product or dot product makes no view.  The preconditioner's
symbol is cached per (d, L).  The torus-plus-mean-field formulation avoids
the boundary layers of plate-electrode setups.

The per-sample estimate is the energy sigma(phi) = (1/N) sum_b sigma_b
(e + grad phi)_b^2 over the N = L^d sites, which is exact for a uniform
medium.  It is stationary at the solution phi*: by the Dirichlet principle
sigma(phi) - sigma(phi*) = ||phi - phi*||_A^2 / N >= 0, A the weighted
Laplacian.  A >= s_min Delta for the smallest conductance s_min, and the
preconditioner is Delta^+, so <r, Delta^+ r> / (s_min N) bounds that gap
for the residual r = rhs - A phi at the cost of one dot product.  The Monte
Carlo estimator stops each solve once this certificate is at most `tol`
times the estimate: for the 0.6/1.4 law that is 7 CG iterations where a
1e-10 relative residual takes 15.

The reported mean and standard error are those of a control-variate
estimate: each sample's second-order perturbative estimate, whose Born
term -<b, Delta^+ b>/N (b the right-hand side) is CG's first scalar, is
subtracted and its exact torus mean added back, so no coefficient is fitted
and the estimate stays unbiased.  The raw per-sample estimates are kept.

Sampling uses the counter-based Philox generator keyed by (seed, sample
index), so results are independent of evaluation order.  A bond takes the
atom whose index is the number of cumulative-probability boundaries at or
below its uniform draw: k - 1 vectorized comparisons for a k-atom law,
exactly searchsorted(cum, u, side="right"), and faster than it up to about
25 atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec
from .errors import SolverError, require_capacity

#: Hard cap on the L^d sites of a torus.  Solving a sample holds 10 to 16
#: float64 per site at d = 1..5 (its conductances, the CG vectors, the
#: complex spectrum): at most about 0.5 GB at the cap.
SITE_CAP = 2**22


@dataclass(frozen=True)
class TorusNetwork:
    """Bond conductances on the periodic L^d lattice.

    conductances has shape (d, L^d): entry (a, x) belongs to the bond from
    site x (C-order flattened) to its +e_a periodic neighbour.
    """

    d: int
    L: int
    conductances: np.ndarray


@dataclass(frozen=True)
class CorrectorSolution:
    phi: np.ndarray        # zero-mean potential
    estimate: float        # per-sample effective conductivity
    residual: float        # final relative CG residual
    iterations: int
    born: float            # -<b, Delta^+ b> / N, b the right-hand side
    error: float           # bound on estimate - exact, >= 0


@dataclass(frozen=True)
class SigmaEstimate:
    """Control-variate mean and standard error over independent networks.

    `per_sample` (when kept) holds the raw per-sample estimates, whose plain
    mean differs from `mean` by the control-variate correction.
    """

    mean: float
    stderr: float
    samples: int
    per_sample: tuple[float, ...] | None = None
    skipped: int = 0
    max_error: float = 0.0  # largest per-sample certificate (CorrectorSolution.error)
    max_rel_error: float = 0.0  # largest certificate over its own estimate
    cg_iterations: tuple[int, float, int] = (0, 0.0, 0)  # min, median, max over the solves


def _require_torus(d: int, L: int) -> None:
    """d >= 1 and L >= 4, and L^d within SITE_CAP (else CapacityError naming
    the largest feasible L); checked before anything is allocated."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if L < 4:
        raise ValueError("torus side must be >= 4")
    require_capacity("L", d, L, SITE_CAP, 4)


def sample_network(
    d: int, L: int, dist: DistributionSpec, seed: int, sample_index: int = 0
) -> TorusNetwork:
    """Draw i.i.d. bond conductances from an atomic law, reproducibly.

    d >= 1 and L >= 4 with L^d <= SITE_CAP, else ValueError or CapacityError.
    """
    _require_torus(d, L)
    dist._require_atoms("sample_network")
    if not 0 <= seed < 2**64 or not 0 <= sample_index < 2**64:
        raise ValueError("seed and sample index must fit in uint64")
    key = np.array([seed, sample_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    bounds = np.cumsum(dist.probs())[:-1]  # the top edge 1 lies above every draw
    values = dist.values()
    cond = np.empty((d, L**d))
    # one axis at a time, the same stream as a single (d, L^d) draw, so the
    # draws and indices of only one row are held next to the conductances
    u, index = np.empty(L**d), np.empty(L**d, dtype=np.intp)
    for row in cond:
        _atom_index(bounds, gen.random(out=u), index)
        # every index is in range; mode="raise" would write through a row-sized buffer
        np.take(values, index, out=row, mode="clip")
    return TorusNetwork(d=d, L=L, conductances=cond)


def _atom_index(bounds: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """out = the number of cumulative-probability bounds at or below each
    draw u in [0, 1), the index of its atom.

    One comparison per bound, so for bounds = cum[:-1] this is exactly
    searchsorted(cum, u, side="right") with cum[-1] = 1."""
    if len(bounds) == 0:
        out.fill(0)
        return
    np.greater_equal(u, bounds[0], out=out)
    for bound in bounds[1:]:
        out += u >= bound


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y> of two flat vectors."""
    # einsum reduces in its own loop; a BLAS dot would start threads on long vectors
    return float(np.einsum("i,i->", x, y))


def _diff_steps(src: np.ndarray, axis: int, out: np.ndarray) -> list:
    """The (ufunc, a, b, out) steps that set out = src(x + e_axis) - src(x)
    on the torus, as slice views of src and out."""
    f, o = src.swapaxes(0, axis), out.swapaxes(0, axis)
    return [(np.subtract, f[1:], f[:-1], o[:-1]), (np.subtract, f[:1], f[-1:], o[-1:])]


def _run(steps: list) -> None:
    for ufunc, a, b, out in steps:
        ufunc(a, b, out)


def _laplacian(sig: np.ndarray, src: np.ndarray, out: np.ndarray, flux: np.ndarray):
    """The product out = A src for the weighted graph Laplacian A of the
    (d, L, ..., L) bond conductances, as a callable of no arguments.

    A src is the sum over axes a of flux_a(x - e_a) - flux_a(x), with
    flux_a = sig_a * (src(x + e_a) - src(x)) held in the scratch array flux.
    The slice views of the fixed buffers are made here, once, so a product
    runs only ufuncs.  The first axis writes out, and each later one adds
    and subtracts in place, in the order of out = 0; out += flux_a(x - e_a);
    out -= flux_a(x) over the axes."""
    steps = []
    for a in range(sig.shape[0]):
        steps += _diff_steps(src, a, flux)
        steps.append((np.multiply, flux, sig[a], flux))
        o, f = out.swapaxes(0, a), flux.swapaxes(0, a)
        if a == 0:
            steps += [(np.subtract, f[:-1], f[1:], o[1:]), (np.subtract, f[-1:], f[:1], o[:1])]
        else:
            steps += [(np.add, o[1:], f[:-1], o[1:]), (np.add, o[:1], f[-1:], o[:1]),
                      (np.subtract, out, flux, out)]
    return lambda: _run(steps)


def require_tol(tol: float, name: str = "tol") -> None:
    """1e-13 <= tol < 1, NaN refused: below 1e-13 CG runs past rounding."""
    if not 1e-13 <= tol < 1.0:
        raise ValueError(f"{name} must be a finite number in [1e-13, 1), got {tol}")


@lru_cache(maxsize=16)
def _inverse_symbol(d: int, L: int) -> np.ndarray:
    """rfftn-domain inverse of the unit-conductance torus Laplacian, zero mode
    projected out; read-only, since every solve on an L^d torus shares it."""
    eig = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(L) / L)
    symbol = sum(np.ix_(*([eig] * (d - 1) + [eig[: L // 2 + 1]])))
    symbol.flat[0] = np.inf
    symbol = 1.0 / symbol
    symbol.flags.writeable = False
    return symbol


def _precondition(r: np.ndarray, symbol: np.ndarray, spec: np.ndarray, z: np.ndarray) -> None:
    """z = Delta^+ r through the cached symbol, spec the complex work array.

    rfftn then irfftn, one axis at a time in their order, so bit for bit the
    same; unlike irfftn this makes no intermediate complex array."""
    d = r.ndim
    np.fft.rfft(r, axis=d - 1, out=spec)
    for a in range(d - 2, -1, -1):
        np.fft.fft(spec, axis=a, out=spec)
    spec *= symbol
    for a in range(d - 1):
        np.fft.ifft(spec, axis=a, out=spec)
    np.fft.irfft(spec, n=r.shape[-1], axis=d - 1, out=z)


def solve_corrector(
    network: TorusNetwork, direction: int = 1, tol: float = 1e-10, *, stop: str = "residual"
) -> CorrectorSolution:
    """Solve the periodic corrector problem and evaluate the energy estimate.

    The Laplacian A is singular with constant nullspace; the right-hand side
    is a discrete divergence, hence consistent, and any solution gives the
    same bond gradients.  `tol` must lie in [1e-13, 1).  With
    stop="residual" CG stops once the relative residual falls below `tol`,
    so `phi` is accurate to `tol`.  With stop="estimate" it stops as soon as
    `error` <= tol * `estimate`, or at the residual rule if that comes first,
    so it never takes more iterations.  Non-convergence within 100*L*d
    iterations raises SolverError with the final residual attached.

    `estimate` is the energy sigma(phi) = (1/N) sum_c sum_x s_c (delta_c,dir
    + grad_c phi)^2 = flux(phi) - <r, phi>/N, r = rhs - A phi the true
    residual and N = L^d.  sigma(phi) - sigma* = ||phi - phi*||_A^2 / N >= 0,
    and A >= s_min Delta for the smallest conductance s_min, so
    `error` = <r, Delta^+ r> / (s_min N) bounds estimate - sigma*.  The
    preconditioner is Delta^+, so CG screens each iteration on its
    rho = <r, z> and the energy recursion E -= alpha rho / N, then confirms
    on the true residual; a failed confirmation restarts CG from it.

    `born` = -<b, Delta^+ b> / N, CG's first rho over -N, for the
    right-hand side b.  Summed by parts on the torus it is mean(s * grad z0)
    over the direction bonds s, z0 = Delta^+ b = m * phi_1 for the
    first-order (Born) corrector phi_1 of a law with mean m, so `born` / m
    is the second-order term of the estimate.  It is 0 when b vanishes.
    """
    d, L = network.d, network.L
    require_tol(tol)
    if not 1 <= direction <= d:
        raise ValueError(f"direction must lie in 1..{d}")
    if stop not in ("residual", "estimate"):
        raise ValueError(f"stop must be 'residual' or 'estimate', got {stop!r}")
    shape, axis, n = (L,) * d, direction - 1, L**d
    sig = network.conductances.reshape((d,) + shape)
    s = sig[axis]
    s_min = float(sig.min())
    rhs = s - np.roll(s, 1, axis=axis)  # sigma_dir(x) - sigma_dir(x - e_dir)
    symbol = _inverse_symbol(d, L)
    # the loop works in these buffers and allocates no vector of its own;
    # the dot products read their flat views, and each stencil product its
    # slice views, all made here once
    phi, p, q, z, scratch = (np.zeros(shape) for _ in range(5))
    r = rhs.copy()
    phi_, p_, q_, z_, r_ = (v.ravel() for v in (phi, p, q, z, r))
    spec = np.empty(symbol.shape, dtype=complex)
    apply_p, apply_phi = (_laplacian(sig, v, q, scratch) for v in (p, phi))
    grad_phi = _diff_steps(phi, axis, scratch)
    rhs_norm = np.sqrt(_dot(r_, r_))

    def certify() -> tuple[float, float]:
        """Energy estimate and its error bound at phi; leaves the true
        residual in q and its preconditioned form in z."""
        apply_phi()
        np.subtract(rhs, q, out=q)
        _precondition(q, symbol, spec, z)
        _run(grad_phi)
        flux = scratch  # s (1 + grad phi), the direction bonds' flux
        flux += 1.0
        flux *= s
        bound = max(_dot(q_, z_), 0.0) / (s_min * n) if s_min > 0 else math.inf
        return float(np.mean(flux)) - _dot(q_, phi_) / n, bound

    r_norm, rho_prev, iterations = rhs_norm, 1.0, 0
    energy, screen = float(np.mean(s)), tol * s_min * n  # E_0 = sigma(0)
    born, certified = 0.0, False
    while r_norm > tol * rhs_norm and iterations < 100 * L * d:
        _precondition(r, symbol, spec, z)
        rho = _dot(r_, z_)
        if iterations == 0:
            born = -rho / n
        if rho == 0.0:  # breakdown: r underflowed or the preconditioner lost it
            break
        if stop == "estimate" and rho <= screen * energy:
            energy, error = certify()  # confirm on the true residual
            certified = error <= tol * energy
            if certified:
                break
            np.copyto(r, q)  # and restart from it
            p.fill(0.0)  # along z: the old direction is not conjugate to it
            rho, r_norm = _dot(r_, z_), np.sqrt(_dot(r_, r_))
        p *= rho / rho_prev
        p += z
        apply_p()
        pq = _dot(p_, q_)
        if pq == 0.0:  # breakdown: p is constant
            break
        alpha = rho / pq
        phi += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(q, alpha, out=scratch)
        energy -= alpha * rho / n
        r_norm, rho_prev, iterations = np.sqrt(_dot(r_, r_)), rho, iterations + 1

    if not certified:
        energy, error = certify()
    residual = float(np.sqrt(_dot(q_, q_)) / rhs_norm) if rhs_norm > 0 else 0.0
    if not (certified or r_norm <= tol * rhs_norm):
        raise SolverError(
            f"conjugate gradient failed to reach rtol={tol} "
            f"after {iterations} iterations (relative residual {residual:.3e})",
            residual=residual,
            iterations=iterations,
        )
    phi -= phi.mean()
    return CorrectorSolution(
        phi=phi.ravel(), estimate=energy, residual=residual, iterations=iterations,
        born=born, error=error,
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
    """Control-variate mean and standard error of the per-sample estimate over
    `samples` networks, each solved with its mean field along the first axis.

    Each raw estimate sigma_i is corrected by its second-order perturbative
    estimate X_i = mean(s_i) - m + born_i / m (s_i the direction-1 bonds,
    m the law mean, born_i = -<b_i, Delta^+ b_i> / N), whose exact torus mean is
    E[X] = -Var(c) (1 - L^-d) / (d m): the projection onto mean-zero fields
    has trace L^d - 1, split evenly over the d directions.  `mean` and
    `stderr` are taken over sigma_i - X_i + E[X], which has the same
    expectation as sigma_i and a far smaller variance at low contrast.
    `per_sample` keeps the raw sigma_i.

    Each solve stops once its certified error is at most `tol` times its
    estimate (solve_corrector's stop="estimate"); `max_error` is the
    largest of those certificates and `max_rel_error` the largest ratio of
    a certificate to its estimate, which a solve that met the stop rule
    keeps at most `tol`.  `cg_iterations` holds the least, median and
    largest CG iteration count over the solved samples.

    Deterministic for a given seed.  Samples whose solve fails are skipped
    and counted in `skipped`; the estimate is over the remaining ones.
    `tol` and the torus are checked, as by `solve_corrector` and
    `sample_network`, before any network is drawn.
    """
    require_tol(tol)
    _require_torus(d, L)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    values, probs = dist.values(), dist.probs()
    m = float(probs @ values)
    mean_x = -float(probs @ (values - m) ** 2) * (1.0 - float(L) ** -d) / (d * m)

    solved = [one for one in (_solve_sample(d, L, dist, seed, i, tol) for i in range(samples))
              if one is not None]
    if len(solved) < 2:
        raise SolverError(f"only {len(solved)} of {samples} samples solved")
    *columns, iterations = zip(*solved)
    raw, errors, s_means, borns = (np.array(column) for column in columns)
    # the median by hand: np.median's partition kernels add ~0.4 MB of resident code
    its, n = sorted(iterations), len(iterations)
    ys = raw - (s_means - m + borns / m) + mean_x
    return SigmaEstimate(
        mean=float(ys.mean()),
        stderr=float(ys.std(ddof=1) / np.sqrt(len(ys))),
        samples=len(ys),
        per_sample=tuple(raw.tolist()) if keep_per_sample else None,
        skipped=samples - len(ys),
        max_error=float(errors.max()),
        max_rel_error=float((errors / raw).max()),
        cg_iterations=(its[0], (its[(n - 1) // 2] + its[n // 2]) / 2, its[-1]),
    )


def _solve_sample(
    d: int, L: int, dist: DistributionSpec, seed: int, index: int, tol: float
) -> tuple[float, float, float, float, int] | None:
    """(estimate, error, mean of the direction-1 bonds, born, CG iterations)
    of one sample, None if its solve fails.  The network and the solution
    are released on return, before the next sample is drawn."""
    net = sample_network(d, L, dist, seed, sample_index=index)
    try:
        sol = solve_corrector(net, tol=tol, stop="estimate")
    except SolverError:
        return None
    return (sol.estimate, sol.error, float(np.mean(net.conductances[0])), sol.born,
            sol.iterations)
