"""Monte Carlo torus oracle: determinism, exact special cases, statistics."""

import tracemalloc

import numpy as np
import pytest

from homogenize import (
    CapabilityError,
    CapacityError,
    DistributionSpec,
    SolverError,
    constant,
    dual,
    estimate_sigma_e,
    sample_network,
    solve_corrector,
    three_value,
    two_component,
)
from homogenize import resistor as resistor_mod


def _dense_corrector(net, direction):
    """Corrector potential and energy estimate from a dense least-squares solve."""
    d, L = net.d, net.L
    n = L**d
    lap = np.zeros((n, n))
    rhs = np.zeros(n)
    bonds = []
    for a in range(d):
        for x in range(n):
            coords = list(np.unravel_index(x, (L,) * d))
            coords[a] = (coords[a] + 1) % L
            y = int(np.ravel_multi_index(coords, (L,) * d))
            c = net.conductances[a, x]
            lap[x, x] += c
            lap[y, y] += c
            lap[x, y] -= c
            lap[y, x] -= c
            if a == direction - 1:
                rhs[x] += c
                rhs[y] -= c
                bonds.append((x, y, c))
    phi = np.linalg.lstsq(lap, rhs, rcond=None)[0]
    estimate = np.mean([c * (1.0 + phi[y] - phi[x]) for x, y, c in bonds])
    return phi, estimate


def _roll_laplacian(sig, phi):
    """Weighted torus Laplacian of the (d, L, ..., L) conductances applied to phi,
    by np.roll copies, in the solver's order of operations."""
    out = np.zeros_like(phi)
    for a in range(sig.shape[0]):
        flux = sig[a] * (np.roll(phi, -1, axis=a) - phi)
        out += np.roll(flux, 1, axis=a)
        out -= flux
    return out


def _unit_laplacian_solve(f):
    """Delta^+ f for the unit-conductance torus Laplacian, zero mode
    projected out, by a full complex FFT pair."""
    d, L = f.ndim, f.shape[0]
    k = np.meshgrid(*([2.0 * np.pi * np.arange(L) / L] * d), indexing="ij")
    symbol = sum(2.0 - 2.0 * np.cos(ka) for ka in k)
    symbol[(0,) * d] = 1.0
    spectrum = np.fft.fftn(f)
    spectrum[(0,) * d] = 0.0
    return np.fft.ifftn(spectrum / symbol).real


def _energy_tensor(net, tol=1e-13):
    """sigma_ab = mean over sites of sum_c s_c (delta_ac + grad_c phi_a)(delta_bc + grad_c phi_b),
    phi_a the corrector with its mean field along axis a."""
    d, L = net.d, net.L
    sig = net.conductances.reshape((d,) + (L,) * d)
    fields = []
    for a in range(d):
        phi = solve_corrector(net, direction=a + 1, tol=tol).phi.reshape((L,) * d)
        fields.append([float(a == c) + np.roll(phi, -1, axis=c) - phi for c in range(d)])
    return np.array([[sum(np.mean(sig[c] * fields[a][c] * fields[b][c]) for c in range(d))
                      for b in range(d)] for a in range(d)])


class TestSampling:
    def test_constant_law_fills_uniformly(self):
        net = sample_network(2, 8, constant(1.0), seed=0)
        assert np.all(net.conductances == 1.0)

    def test_deterministic_for_fixed_seed(self):
        a = sample_network(2, 8, two_component(0.6, 1.4), seed=42, sample_index=3)
        b = sample_network(2, 8, two_component(0.6, 1.4), seed=42, sample_index=3)
        assert np.array_equal(a.conductances, b.conductances)

    def test_sample_index_varies_draws(self):
        a = sample_network(2, 8, two_component(0.6, 1.4), seed=42, sample_index=0)
        b = sample_network(2, 8, two_component(0.6, 1.4), seed=42, sample_index=1)
        assert not np.array_equal(a.conductances, b.conductances)

    def test_atom_fraction_concentrates(self):
        net = sample_network(2, 64, two_component(0.6, 1.4), seed=5)
        frac = np.mean(net.conductances == 0.6)
        assert abs(frac - 0.5) <= 3.0 / np.sqrt(2 * 64**2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 16, 64])
    def test_boundary_count_is_searchsorted(self, k):
        # u on every cumulative-probability boundary and one ulp below it,
        # 1 included, where the draw can come no closer than one ulp
        rng = np.random.default_rng(k)
        law = DistributionSpec(atoms=tuple(zip(rng.uniform(0.1, 10.0, k),
                                               rng.dirichlet(np.ones(k)))))
        cum = np.cumsum(law.probs())
        cum[-1] = 1.0
        u = np.concatenate([[0.0], cum[:-1], np.nextafter(cum, 0.0), rng.random(1000)])
        index = np.full(len(u), -1, dtype=np.intp)
        resistor_mod._atom_index(cum[:-1], u, index)
        assert np.array_equal(index, np.searchsorted(cum, u, side="right"))
        assert index.max() <= k - 1

    def test_three_atom_draw_matches_searchsorted_on_the_philox_stream(self):
        law = DistributionSpec(atoms=((0.5, 0.2), (1.0, 0.3), (3.0, 0.5)))
        d, L, seed, index = 3, 6, 12345, 7
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        cum = np.cumsum(law.probs())
        cum[-1] = 1.0
        expected = law.values()[np.searchsorted(cum, gen.random((d, L**d)), side="right")]
        net = sample_network(d, L, law, seed, sample_index=index)
        assert np.array_equal(net.conductances, expected)
        assert set(np.unique(expected)) == {0.5, 1.0, 3.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_network(2, 3, constant(1.0), seed=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="uint64"):
                sample_network(2, 8, constant(1.0), seed=seed)
        raw = DistributionSpec(atoms=None, raw_mean=1.0, raw_u_moments=(0.01,), raw_u0=0.1)
        with pytest.raises(CapabilityError):
            sample_network(2, 8, raw, seed=0)

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_is_refused(self, d):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            sample_network(d, 8, constant(1.0), seed=0)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            estimate_sigma_e(d, 8, constant(1.0), samples=4, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 11])
    def test_oversized_torus_names_largest_feasible_side(self, d):
        cap = resistor_mod.SITE_CAP
        feasible = cap if d == 1 else max(L for L in range(4, 2**12) if L**d <= cap)
        resistor_mod._require_torus(d, feasible)
        with pytest.raises(CapacityError, match=f"feasible L <= {feasible} for d={d}$"):
            sample_network(d, feasible + 1, constant(1.0), seed=0)

    def test_oversized_torus_is_refused_before_allocating(self):
        law = two_component(0.6, 1.4)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="feasible L <= 161 for d=3"):
                sample_network(3, 100_000, law, seed=0)
            with pytest.raises(CapacityError, match="no L >= 4 fits for d=12"):
                estimate_sigma_e(12, 4, law, samples=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestCorrector:
    def test_uniform_network_is_exact(self):
        net = sample_network(2, 8, constant(2.5), seed=0)
        sol = solve_corrector(net)
        assert sol.estimate == pytest.approx(2.5, abs=1e-12)
        assert np.max(np.abs(sol.phi)) < 1e-12

    def test_1d_chain_harmonic_mean(self):
        net = sample_network(1, 16, two_component(0.5, 2.0), seed=9)
        sol = solve_corrector(net, direction=1)
        hm = 1.0 / np.mean(1.0 / net.conductances)
        assert sol.estimate == pytest.approx(hm, rel=1e-10)

    def test_estimate_within_variational_bounds(self):
        for i in range(5):
            net = sample_network(2, 16, two_component(0.6, 1.4), seed=100, sample_index=i)
            sol = solve_corrector(net)
            harm = 1.0 / np.mean(1.0 / net.conductances)
            arith = np.mean(net.conductances)
            assert harm - 1e-12 <= sol.estimate <= arith + 1e-12

    def test_overflowing_right_hand_side_is_refused(self):
        # atoms 1e+-300: <b, b> overflows, and every residual ratio would be
        # inf / inf, so the solve is refused before its first iteration
        net = sample_network(2, 4, two_component(1e-300, 1e300), seed=0)
        with pytest.raises(SolverError, match="norm is inf") as exc:
            solve_corrector(net)
        assert exc.value.iterations == 0

    def test_direction_validation(self):
        net = sample_network(2, 8, constant(1.0), seed=0)
        with pytest.raises(ValueError):
            solve_corrector(net, direction=3)

    def test_zero_mean_gauge(self):
        net = sample_network(2, 12, two_component(0.6, 1.4), seed=17)
        sol = solve_corrector(net)
        assert abs(sol.phi.mean()) < 1e-12

    @pytest.mark.parametrize("d, L", [(1, 8), (2, 6), (3, 4)])
    @pytest.mark.parametrize("law", [two_component(0.6, 1.4), three_value(0.5, -1.0, 0.3)])
    def test_matches_dense_least_squares(self, d, L, law):
        for direction in range(1, d + 1):
            net = sample_network(d, L, law, seed=31, sample_index=direction)
            phi, estimate = _dense_corrector(net, direction)
            sol = solve_corrector(net, direction=direction)
            assert sol.estimate == pytest.approx(estimate, abs=1e-10)
            assert np.allclose(sol.phi - sol.phi.mean(), phi - phi.mean(), rtol=0, atol=1e-9)

    def test_iterations_do_not_grow_with_L(self):
        law = two_component(0.6, 1.4)
        small = solve_corrector(sample_network(2, 16, law, seed=3)).iterations
        large = solve_corrector(sample_network(2, 128, law, seed=3)).iterations
        assert large <= small + 5

    @pytest.mark.parametrize(
        "tol", [0.0, -1e-8, 1.0, 2.0, float("nan"), float("inf"), 1e-14, 1e-20]
    )
    def test_tol_must_be_finite_and_positive(self, tol):  # and in [1e-13, 1)
        net = sample_network(2, 8, two_component(0.6, 1.4), seed=3)
        with pytest.raises(ValueError, match="tol"):
            solve_corrector(net, tol=tol)
        with pytest.raises(ValueError, match="tol"):  # not counted as skipped samples
            estimate_sigma_e(2, 8, two_component(0.6, 1.4), samples=3, seed=3, tol=tol)

    def test_iteration_limit_raises_with_diagnostics(self, monkeypatch):
        # an SPD preconditioner whose mode weights spread over 16 decades
        # leaves CG stuck at rounding, far above tol, until the limit
        net = sample_network(2, 8, two_component(0.6, 1.4), seed=3)
        symbol = resistor_mod._inverse_symbol(2, 8)
        spread = 10.0 ** np.random.default_rng(0).uniform(-8.0, 8.0, symbol.shape)
        monkeypatch.setattr(resistor_mod, "_inverse_symbol", lambda d, L: symbol * spread)
        with pytest.raises(SolverError) as failure:
            solve_corrector(net)
        assert failure.value.iterations == 100 * 8 * 2
        assert 1e-10 < failure.value.residual < 1.0

    @pytest.mark.parametrize("stop", ["residual", "estimate"])
    def test_zero_curvature_breakdown_raises_with_diagnostics(self, monkeypatch, stop):
        # a stencil product that leaves A p = 0 makes <p, A p> = 0 on the
        # first step: CG stops there instead of dividing rho by it
        net = sample_network(2, 8, two_component(0.6, 1.4), seed=3)
        monkeypatch.setattr(resistor_mod, "_laplacian",
                            lambda sig, src, out, flux: lambda: out.fill(0.0))
        with pytest.raises(SolverError) as failure:
            solve_corrector(net, stop=stop)
        assert failure.value.iterations == 0
        assert failure.value.residual == 1.0


#: d, L, law, seed: the five `oracle` benchmark cases (benchmark seed 0),
#: then higher contrast in 2D and 3D, d = 1, d = 4 and an odd side.
CERTIFIED_CASES = [
    (2, 64, (0.6, 1.4), 15793235383387715774),
    (2, 128, (0.6, 1.4), 12390638538380655177),
    (2, 256, (0.6, 1.4), 2361836109651742017),
    (2, 64, (0.1, 10.0), 3188717715514472916),
    (3, 24, (0.6, 1.4), 648184599915300350),
    (2, 32, (0.01, 100.0), 5),
    (3, 12, (0.05, 20.0), 6),
    (1, 64, (0.5, 2.0), 7),
    (4, 8, (0.6, 1.4), 8),
    (2, 5, (0.6, 1.4), 9),
]


class TestCertificate:
    @pytest.mark.parametrize("d, L, atoms, seed", CERTIFIED_CASES)
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_error_bounds_the_gap_to_the_converged_estimate(self, d, L, atoms, seed, tol):
        law = two_component(*atoms)
        for i in range(2):
            net = sample_network(d, L, law, seed, i)
            sol = solve_corrector(net, tol=tol, stop="estimate")
            converged = solve_corrector(net, tol=1e-13).estimate
            ulps = 4 * np.spacing(sol.estimate)
            assert -ulps <= sol.estimate - converged <= sol.error + ulps
            assert sol.error <= tol * sol.estimate + ulps
            assert sol.iterations <= solve_corrector(net, tol=tol).iterations

    def test_uniform_network_is_certified_exact(self):
        net = sample_network(3, 6, constant(0.75), seed=0)  # sums of 0.75 are exact
        for stop in ("residual", "estimate"):
            sol = solve_corrector(net, stop=stop)
            assert sol.estimate == 0.75
            assert sol.error == 0.0
            assert sol.iterations == 0

    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_failed_certificate_restarts_along_the_true_residual(self, delta, monkeypatch):
        # stencil operators whose first three products (over all operators of
        # the solve) are off by (1 + delta) make the recursive residual drift
        # from the true one, so the screen fires before the estimate is
        # certified and CG must restart from the true residual
        net = sample_network(2, 16, two_component(0.6, 1.4), 3)
        converged = solve_corrector(net, tol=1e-13, stop="estimate")
        laplacian, calls = resistor_mod._laplacian, []

        def perturbed(sig, src, out, flux):
            product = laplacian(sig, src, out, flux)

            def perturbed_product():
                product()
                calls.append(None)
                if len(calls) <= 3:
                    np.multiply(out, 1.0 + delta, out=out)

            return perturbed_product

        monkeypatch.setattr(resistor_mod, "_laplacian", perturbed)
        sol = solve_corrector(net, tol=1e-10, stop="estimate")
        assert len(calls) - sol.iterations >= 2  # certified after a failed attempt
        assert sol.iterations <= 15
        ulps = 4 * np.spacing(sol.estimate)
        assert -ulps <= sol.estimate - converged.estimate <= sol.error + ulps
        assert sol.error <= 1e-10 * sol.estimate

    def test_stop_rule_is_validated(self):
        net = sample_network(2, 8, constant(1.0), seed=0)
        with pytest.raises(ValueError, match="stop"):
            solve_corrector(net, stop="flux")


class TestStencil:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("L", [4, 5, 8])
    def test_matches_the_roll_reference_bit_for_bit(self, d, L):
        rng = np.random.default_rng(d * 10 + L)
        sig = rng.uniform(0.1, 10.0, (d,) + (L,) * d)
        phi = rng.standard_normal((L,) * d)
        out, flux = np.full_like(phi, np.nan), np.full_like(phi, np.nan)
        product = resistor_mod._laplacian(sig, phi, out, flux)
        expected = _roll_laplacian(sig, phi)
        product()
        assert np.array_equal(out, expected)
        # the operator reads its source buffer anew on every product
        phi[...] = rng.standard_normal(phi.shape)
        out.fill(np.nan)
        product()
        assert np.array_equal(out, _roll_laplacian(sig, phi))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("L", [4, 5, 8])
    def test_solution_checks_against_the_roll_reference(self, d, L):
        for direction in range(1, d + 1):
            net = sample_network(d, L, three_value(0.5, -1.0, 0.3), seed=7, sample_index=direction)
            sig = net.conductances.reshape((d,) + (L,) * d)
            sol = solve_corrector(net, direction=direction)
            phi = sol.phi.reshape((L,) * d)
            s = sig[direction - 1]
            rhs = s - np.roll(s, 1, axis=direction - 1)
            residual = np.linalg.norm(rhs - _roll_laplacian(sig, phi)) / np.linalg.norm(rhs)
            # phi lost its mean after the residual was taken, which moves it by ~1e-5 relative
            assert sol.residual == pytest.approx(residual, rel=1e-4)
            energy = sum(
                np.mean(sig[c] * (float(c == direction - 1) + np.roll(phi, -1, axis=c) - phi) ** 2)
                for c in range(d)
            )
            assert sol.estimate == pytest.approx(energy, rel=1e-12)

    def test_symbol_cache_keeps_sizes_apart(self):
        law = two_component(0.6, 1.4)
        nets = {L: sample_network(2, L, law, seed=3) for L in (8, 9)}

        def solve(L):
            sol = solve_corrector(nets[L])
            return sol.phi.tobytes(), sol.estimate, sol.residual, sol.iterations, sol.born

        fresh = {}
        for L in (8, 9):
            resistor_mod._inverse_symbol.cache_clear()
            fresh[L] = solve(L)
        for L in (8, 9, 8):
            assert solve(L) == fresh[L]
        assert not resistor_mod._inverse_symbol(2, 8).flags.writeable


class TestTorusDuality:
    # Keller duality on the discrete torus: primal bond (x, e1) becomes dual
    # bond (x - e2, e2) and (x, e2) becomes (x - e1, e1), each with conductance
    # 1/c.  Then sigma(G*) = J sigma(G)^-1 J^T = sigma(G) / det sigma(G) holds
    # sample by sample, J the 90 degree rotation.
    @pytest.mark.parametrize("atoms", [2, 3])
    @pytest.mark.parametrize("L", [4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dual_network_has_the_rotated_inverse_tensor(self, atoms, L, seed):
        rng = np.random.default_rng([atoms, L, seed])
        law = DistributionSpec(atoms=tuple(zip(10.0 ** rng.uniform(-1, 1, atoms),
                                               rng.dirichlet(np.ones(atoms)))))
        net = sample_network(2, L, law, seed=seed)
        c = net.conductances.reshape(2, L, L)
        dual_c = np.stack([np.roll(1.0 / c[1], -1, axis=0), np.roll(1.0 / c[0], -1, axis=1)])
        dual_net = resistor_mod.TorusNetwork(2, L, dual_c.reshape(2, -1))
        sigma, sigma_dual = _energy_tensor(net), _energy_tensor(dual_net)
        expected = sigma / np.linalg.det(sigma)
        assert np.max(np.abs(sigma_dual - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestEstimator:
    def test_constant_dist(self):
        est = estimate_sigma_e(2, 8, constant(1.5), samples=3, seed=0)
        assert est.mean == pytest.approx(1.5, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_and_equal_to_single_solves(self):
        law = two_component(0.6, 1.4)
        kwargs = dict(samples=6, seed=21, keep_per_sample=True)
        a = estimate_sigma_e(2, 12, law, **kwargs)
        b = estimate_sigma_e(2, 12, law, **kwargs)
        assert a.per_sample == b.per_sample
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        for i, value in enumerate(a.per_sample):
            net = sample_network(2, 12, law, 21, i)
            assert value == solve_corrector(net, stop="estimate").estimate

    def test_max_rel_error_is_the_largest_per_sample_ratio(self):
        law = two_component(0.1, 10.0)
        est = estimate_sigma_e(2, 8, law, samples=4, seed=5, tol=1e-6)
        sols = [solve_corrector(sample_network(2, 8, law, 5, i), tol=1e-6, stop="estimate")
                for i in range(4)]
        assert est.max_rel_error == max(sol.error / sol.estimate for sol in sols)
        assert est.max_error == max(sol.error for sol in sols)
        assert 0.0 < est.max_rel_error <= 1e-6

    def test_cg_iterations_are_the_per_sample_counts(self):
        # at contrast 100 the six counts spread (26 to 38), so min < median < max
        law = two_component(0.1, 10.0)
        est = estimate_sigma_e(2, 8, law, samples=6, seed=8)
        counts = [solve_corrector(sample_network(2, 8, law, 8, i), stop="estimate").iterations
                  for i in range(6)]
        assert est.cg_iterations == (min(counts), float(np.median(counts)), max(counts))
        assert est.cg_iterations[0] < est.cg_iterations[1] < est.cg_iterations[2]

    def test_cg_iterations_of_a_low_contrast_and_a_constant_law(self):
        est = estimate_sigma_e(2, 16, two_component(0.6, 1.4), samples=5, seed=8)
        assert est.cg_iterations[0] == est.cg_iterations[2] > 0
        assert estimate_sigma_e(2, 8, constant(1.0), samples=3, seed=0).cg_iterations == (0, 0, 0)

    def test_per_sample_kept_on_request(self):
        law = two_component(0.6, 1.4)
        est = estimate_sigma_e(2, 8, law, samples=4, seed=1, keep_per_sample=True)
        nets = [sample_network(2, 8, law, 1, i) for i in range(4)]
        sols = [solve_corrector(net, stop="estimate") for net in nets]
        assert est.per_sample == tuple(sol.estimate for sol in sols)
        # mean(s) - m + born / m per sample, around E[X] = -Var(c) (1 - 8^-2) / (2 m)
        m, var = 1.0, 0.16
        x = [np.mean(n.conductances[0]) - m + s.born / m for n, s in zip(nets, sols)]
        ys = [s.estimate - xi - var * (1 - 8.0**-2) / (2 * m) for s, xi in zip(sols, x)]
        assert est.mean == pytest.approx(np.mean(ys), rel=1e-15, abs=0)
        assert est.stderr == pytest.approx(np.std(ys, ddof=1) / 2, rel=1e-15, abs=0)

    def test_statistical_duality_2d(self):
        kd = two_component(0.6, 1.4)
        e1 = estimate_sigma_e(2, 32, kd, samples=60, seed=11)
        e2 = estimate_sigma_e(2, 32, dual(kd), samples=60, seed=12)
        product = e1.mean * e2.mean
        err = product * (e1.stderr / e1.mean + e2.stderr / e2.mean)
        assert product == pytest.approx(1.0, abs=3 * err)

    def test_failed_samples_are_skipped_and_counted(self, monkeypatch):
        calls = {"n": 0}
        original = resistor_mod.solve_corrector

        def flaky(network, direction=1, tol=1e-10, *, stop="residual"):
            calls["n"] += 1
            if calls["n"] == 2:  # the solve of sample 1
                raise SolverError("synthetic failure", residual=1.0)
            return original(network, direction=direction, tol=tol, stop=stop)

        monkeypatch.setattr(resistor_mod, "solve_corrector", flaky)
        est = resistor_mod.estimate_sigma_e(2, 8, two_component(0.6, 1.4), samples=4, seed=2)
        assert est.skipped == 1
        assert est.samples == 3
        assert calls["n"] == 4
        calls["n"] = 1  # the first solve of the next run fails, leaving one of two
        with pytest.raises(SolverError, match="only 1 of 2 samples solved"):
            resistor_mod.estimate_sigma_e(2, 8, two_component(0.6, 1.4), samples=2, seed=2)

    def test_unconverged_samples_are_skipped(self, monkeypatch):
        # a preconditioner that annihilates every residual breaks CG down at
        # its first step, so a sample fails unless its right-hand side
        # vanishes (direction-1 bonds constant along each axis-1 line, likely
        # for this lopsided law at L=4)
        zero = np.zeros_like(resistor_mod._inverse_symbol(2, 4))
        monkeypatch.setattr(resistor_mod, "_inverse_symbol", lambda d, L: zero)
        law = two_component(0.6, 1.4, p1=0.95)
        samples, seed = 12, 4
        failures = 0
        for i in range(samples):
            try:
                solve_corrector(sample_network(2, 4, law, seed, i))
            except SolverError:
                failures += 1
        assert 2 <= failures <= samples - 2
        est = estimate_sigma_e(2, 4, law, samples=samples, seed=seed)
        assert est.skipped == failures
        assert est.samples == samples - failures

    @pytest.mark.parametrize("d, L", [(4, 12), (5, 7)])
    def test_peak_memory_is_one_network_and_one_solve(self, d, L):
        # the draws of one axis at a time, and no network or solution kept
        # across samples: at most d + 11 float64 per site (17.6 and 21.6
        # when a draw held its uniforms, indices and conductances at once
        # next to the previous sample)
        law = two_component(0.6, 1.4)
        tracemalloc.start()
        try:
            estimate_sigma_e(d, L, law, samples=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * L**d) <= d + 11

    def test_tol_is_refused_before_any_network_is_drawn(self, monkeypatch):
        draws = {"n": 0}
        original = resistor_mod.sample_network

        def counted(*args, **kwargs):
            draws["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(resistor_mod, "sample_network", counted)
        with pytest.raises(ValueError, match="tol"):
            estimate_sigma_e(2, 8, two_component(0.6, 1.4), samples=3, seed=3, tol=0.0)
        assert draws["n"] == 0

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            estimate_sigma_e(2, 8, constant(1.0), samples=1, seed=0)

    def test_finite_size_trend_reported(self):
        # informational: the L=16 vs L=64 bias trend for the 0.6/1.4 law
        kd = two_component(0.6, 1.4)
        exact = np.sqrt(0.84)
        devs = {}
        for L in (16, 32):
            est = estimate_sigma_e(2, L, kd, samples=30, seed=5)
            devs[L] = abs(est.mean - exact)
        print(f"finite-size |bias|: L=16 -> {devs[16]:.2e}, L=32 -> {devs[32]:.2e}")


class TestControlVariate:
    @pytest.mark.parametrize("d", [2, 3])
    def test_mean_of_x_is_exact_on_the_torus(self, d):
        # born is a quadratic form s.B.s in the direction-1 bonds with B 1 = 0,
        # so born(1 + e_j) = B_jj, and for i.i.d. bonds
        # E[X] = E[born] / m = Var(c) tr(B) / m = -Var(c) (1 - L^-d) / (d m)
        L = 4
        n = L**d
        trace = 0.0
        for j in range(n):
            cond = np.ones((d, n))
            cond[0, j] = 2.0
            trace += solve_corrector(resistor_mod.TorusNetwork(d, L, cond)).born
        assert trace == pytest.approx(-(1.0 - float(L) ** -d) / d, rel=0, abs=1e-14)

    @pytest.mark.parametrize("d, L, direction", [(2, 16, 1), (2, 16, 2), (3, 8, 3)])
    def test_born_is_the_first_order_corrector_term(self, d, L, direction):
        law = three_value(0.5, -1.0, 0.3)
        net = sample_network(d, L, law, seed=41)
        m = float(law.probs() @ law.values())
        u = net.conductances[direction - 1].reshape((L,) * d) / m - 1.0
        # phi_1 solves the unit-conductance torus Laplacian against the
        # backward difference of u
        phi1 = _unit_laplacian_solve(u - np.roll(u, 1, axis=direction - 1))
        grad = np.roll(phi1, -1, axis=direction - 1) - phi1
        born = solve_corrector(net, direction=direction).born
        assert born == pytest.approx(m * m * np.mean(u * grad), rel=1e-12)

    def test_x_matches_the_estimate_to_second_order(self):
        # conductances 1 + eps*v: sigma - 1 - X is O(eps^3), so halving eps divides it by ~8
        v = np.sign(sample_network(2, 16, two_component(0.5, 1.5), seed=3).conductances - 1.0)
        rest = []
        for eps in (0.01, 0.005):
            net = resistor_mod.TorusNetwork(2, 16, 1.0 + eps * v)
            sol = solve_corrector(net)
            rest.append(sol.estimate - 1.0 - (np.mean(net.conductances[0]) - 1.0 + sol.born))
        assert 6.0 < rest[0] / rest[1] < 10.0

    def test_third_order_term_from_the_first_cg_product(self):
        # X3 = (<z0, A z0> - m rho0) / (m^2 N), z0 = Delta^+ b and rho0 = <b, z0>
        # for the right-hand side b; <z0, A z0> is CG's first <p, q>, so the
        # term needs no FFT pair beyond the first.  With it sigma - 1 - X - X3
        # is O(eps^4): halving eps divides it by ~16 (X alone leaves ~8)
        v = np.sign(sample_network(2, 16, two_component(0.5, 1.5), seed=3).conductances - 1.0)
        m, n, rest = 1.0, 16**2, []
        for eps in (0.01, 0.005):
            net = resistor_mod.TorusNetwork(2, 16, m + eps * v)
            sig = net.conductances.reshape(2, 16, 16)
            b = sig[0] - np.roll(sig[0], 1, axis=0)
            z0 = _unit_laplacian_solve(b)
            x3 = (np.sum(z0 * _roll_laplacian(sig, z0)) - m * np.sum(b * z0)) / (m * m * n)
            sol = solve_corrector(net)
            x = np.mean(sig[0]) - m + sol.born / m
            rest.append(sol.estimate - m - x - x3)
        assert 12.0 < rest[0] / rest[1] < 20.0

    @pytest.mark.parametrize("atoms", [(0.6, 1.4), (0.05, 20.0)])
    @pytest.mark.parametrize("d, L", [(1, 32), (2, 16), (3, 8), (4, 4)])
    def test_born_is_minus_the_first_cg_scalar_over_n(self, d, L, atoms):
        # summed by parts on the torus, mean(s grad z0) = -<b, z0> / N for
        # z0 = Delta^+ b, b the right-hand side: CG's first rho over -N
        net = sample_network(d, L, two_component(*atoms), seed=43)
        for direction in range(1, d + 1):
            s = net.conductances[direction - 1].reshape((L,) * d)
            b = s - np.roll(s, 1, axis=direction - 1)
            rho0 = np.sum(b * _unit_laplacian_solve(b))
            born = solve_corrector(net, direction=direction).born
            assert born == pytest.approx(-rho0 / L**d, rel=1e-12)

    # The first two raw estimates of each `oracle` benchmark case
    # (bench/workloads.py, benchmark seed 0), each as a pair: as the
    # plain-mean estimator gave it at a 1e-10 relative residual, a converged
    # reference, and as the certified stop gives it now.
    @pytest.mark.parametrize("d, L, atoms, seed, expected", [
        (2, 64, ((0.6, 0.5), (1.4, 0.5)), 15793235383387715774,
         (("0x1.d14bfa5c88807p-1", "0x1.d14bfa5cbc4b2p-1"),
          ("0x1.d215be478d8f6p-1", "0x1.d215be47c2282p-1"))),
        (2, 128, ((0.6, 0.5), (1.4, 0.5)), 12390638538380655177,
         (("0x1.d3ca548610aaap-1", "0x1.d3ca548644a82p-1"),
          ("0x1.d8d8621415c30p-1", "0x1.d8d862144addbp-1"))),
        (2, 256, ((0.6, 0.5), (1.4, 0.5)), 2361836109651742017,
         (("0x1.d52dafae3f95ep-1", "0x1.d52dafae73900p-1"),
          ("0x1.d4a5658283b3ap-1", "0x1.d4a56582b7c02p-1"))),
        (2, 64, ((0.1, 0.5), (10.0, 0.5)), 3188717715514472916,
         (("0x1.2d0294a028d45p+0", "0x1.2d0294a032129p+0"),
          ("0x1.04596364309acp+0", "0x1.0459636438a98p+0"))),
        (3, 24, ((0.6, 0.5), (1.4, 0.5)), 648184599915300350,
         (("0x1.e428ef8bb630fp-1", "0x1.e428ef8bc6a13p-1"),
          ("0x1.e0945d321663ap-1", "0x1.e0945d3226be4p-1"))),
    ])
    def test_raw_per_sample_values_unchanged(self, d, L, atoms, seed, expected):
        est = estimate_sigma_e(d, L, DistributionSpec(atoms=atoms), samples=2, seed=seed,
                               keep_per_sample=True)
        assert est.per_sample == tuple(float.fromhex(new) for _, new in expected)
        for value, (converged, _) in zip(est.per_sample, expected):
            assert 0.0 <= value - float.fromhex(converged) <= est.max_error
