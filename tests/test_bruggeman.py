"""Effective-medium root, its series, and the comparison with the expansion."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import homogenize.bruggeman as bruggeman_mod
from homogenize import (
    DistributionSpec,
    SolverError,
    bruggeman_coefficients,
    bruggeman_series,
    coefficients,
    compare,
    constant,
    dual,
    moments,
    scale,
    solve_bruggeman,
    three_value,
    two_component,
)


def polynomial_root_oracle(atoms, d):
    """Clear denominators of the self-consistency sum and find the root."""
    total = np.zeros(1)
    for i, (vi, pi) in enumerate(atoms):
        term = np.array([pi * vi, -pi])  # p_i * (v_i - x)
        for j, (vj, _) in enumerate(atoms):
            if j != i:
                term = npoly.polymul(term, np.array([vj, d - 1.0]))
        total = npoly.polyadd(total, term)
    roots = npoly.polyroots(total)
    vs = [v for v, _ in atoms]
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and min(vs) <= r.real <= max(vs)]
    assert len(real) == 1
    return real[0]


class TestRoot:
    def test_two_component_equipartition_2d(self):
        root = solve_bruggeman(two_component(1.0, 4.0), 2)
        assert root.sigma_B == pytest.approx(2.0, abs=1e-10)
        assert abs(root.residual) < 1e-12

    def test_constant_law_any_dimension(self):
        for d in (1, 2, 3, 5):
            assert solve_bruggeman(constant(3.7), d).sigma_B == 3.7

    def test_three_component_vs_polynomial_oracle(self):
        atoms = ((1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3))
        dist = DistributionSpec(atoms=atoms)
        expected = polynomial_root_oracle(atoms, 3)
        assert solve_bruggeman(dist, 3).sigma_B == pytest.approx(expected, abs=1e-10)

    def test_dimension_below_one_refused(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            solve_bruggeman(two_component(0.6, 1.4), 0)

    def test_1d_harmonic_mean(self):
        dist = two_component(0.5, 2.0, 0.3)
        hm = 1.0 / (0.3 / 0.5 + 0.7 / 2.0)
        assert solve_bruggeman(dist, 1).sigma_B == pytest.approx(hm, rel=1e-12)

    def test_unconverged_polish_raises(self, monkeypatch):
        # below the spacing of floats near the root, Newton alternates
        # between neighbours and never meets tol
        monkeypatch.setattr(bruggeman_mod, "_TOL", 1e-16)
        with pytest.raises(SolverError) as exc:
            solve_bruggeman(two_component(0.55, 1.71), 2)
        assert exc.value.iterations > 100
        assert abs(exc.value.residual) < 1e-15
        assert "1e-16" in str(exc.value)

    @pytest.mark.parametrize("lo, hi", [(1e-12, 1e12), (1e-6, 1e6)])
    def test_root_hidden_by_rounding_raises(self, lo, hi):
        # |f'| ~ 2 lo at the root 1, so a rounding of f near 1e-16 moves the
        # root by far more than tol: the polish may not claim convergence
        with pytest.raises(SolverError, match="did not reach"):
            solve_bruggeman(two_component(lo, hi), 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_slope_out_of_float_range_raises(self, d):
        # atoms 1e-300 and 1e300: (v + (d-1) x)^2 underflows for the small atom
        # where the 2D bisection ends (f' = -inf accepted any x there) and
        # overflows for the large one at the 3D root (f' = 0, then a division
        # by it); the root is refused with no numpy warning
        with pytest.raises(SolverError, match="float range"):
            solve_bruggeman(two_component(1e-300, 1e300), d)

    def test_extreme_scale_within_float_range_solves(self):
        # the 3D root of 1e-150 and 1e150 at p = 1/2 is 1e150 / 4 to ~1e-300
        assert solve_bruggeman(two_component(1e-150, 1e150), 3).sigma_B == pytest.approx(
            2.5e149, rel=1e-12)

    def test_high_contrast_root_within_tol(self):
        root = solve_bruggeman(two_component(1e-3, 1e3), 2)
        assert abs(root.sigma_B - 1.0) <= 1e-12

    def test_stop_is_an_error_bound(self, rng):
        # exact rational f changes sign within tol * x of the returned root
        tol = Fraction(1e-12)
        laws = 0
        while laws < 24:
            n = int(rng.integers(2, 5))
            values = 1.0 + rng.uniform(-0.35, 0.35, size=n)
            probs = rng.dirichlet(np.ones(n))
            if probs.min() < 0.02:
                continue
            laws += 1
            dist = DistributionSpec(atoms=tuple(zip(values.tolist(), probs.tolist())))
            atoms = [(Fraction(v), Fraction(p)) for v, p in zip(dist.values(), dist.probs())]
            for d in (2, 3, 4, 5):
                x = Fraction(solve_bruggeman(dist, d).sigma_B)

                def f(y):
                    return sum(p * (v - y) / (v + (d - 1) * y) for v, p in atoms)

                assert f(x * (1 - tol)) >= 0 >= f(x * (1 + tol)), (dist, d)

    def test_root_bracketed_by_support(self):
        dist = DistributionSpec(atoms=((0.2, 0.25), (1.0, 0.5), (5.0, 0.25)))
        for d in (2, 3, 4):
            root = solve_bruggeman(dist, d).sigma_B
            assert 0.2 <= root <= 5.0

    def test_2d_solver_duality(self):
        for dist in [
            two_component(0.6, 1.4),
            two_component(1.0, 4.0, 0.3),
            DistributionSpec(atoms=((0.5, 0.2), (1.0, 0.5), (3.0, 0.3))),
        ]:
            p = solve_bruggeman(dist, 2).sigma_B * solve_bruggeman(dual(dist), 2).sigma_B
            assert p == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self):
        dist = two_component(0.8, 1.3, 0.4)
        base = solve_bruggeman(dist, 3).sigma_B
        assert solve_bruggeman(scale(dist, 2.0), 3).sigma_B == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_permutation_invariance(self):
        a = DistributionSpec(atoms=((1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3)))
        b = DistributionSpec(atoms=((3.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)))
        assert solve_bruggeman(a, 2).sigma_B == solve_bruggeman(b, 2).sigma_B


class TestSeries:
    def test_2d_coefficient_tuple(self):
        b = bruggeman_coefficients(2, 6)
        expected = {
            (2,): -0.5,
            (3,): 0.25,
            (4,): -0.125,
            (2, 2): 0.0,
            (5,): 1 / 16,
            (2, 3): 1 / 16,
            (6,): -1 / 32,
            (2, 4): -1 / 16,
            (3, 3): -1 / 32,
            (2, 2, 2): 1 / 32,
        }
        assert set(b) == set(expected)
        for sig, val in expected.items():
            assert b[sig] == pytest.approx(val, abs=1e-15)

    def test_constant_gives_unit_xi(self):
        for order in range(2, 7):
            s = bruggeman_series(constant(2.0), 3, order)
            assert s.sigma_e == pytest.approx(2.0, abs=1e-15)
            assert s.remainder_bound is None

    def test_series_approaches_root(self):
        dist = two_component(0.6, 1.4)
        root = solve_bruggeman(dist, 2).sigma_B
        series = bruggeman_series(dist, 2, 6).sigma_e
        u0 = 0.4
        assert abs(root - series) <= u0**8  # symmetric law: next term is 8th order

    def test_gap_scales_like_u0_7(self, rng):
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(2, 5))
            vals = 1.0 + rng.uniform(-0.2, 0.2, size=n)
            probs = rng.dirichlet(np.ones(n))
            dist = DistributionSpec(atoms=tuple(zip(vals, probs)))
            u0 = moments(dist, 2).u0
            if u0 < 1e-3:
                continue
            gap = abs(
                solve_bruggeman(dist, 2).sigma_B - bruggeman_series(dist, 2, 6).sigma_e
            )
            worst = max(worst, gap / u0**7)
        assert worst < 1.0  # observed ~0.02; anything near 1 signals a regression


class TestCoefficientAgreement:
    def test_shared_through_order3_any_d(self, const2, const3):
        for d, consts in [(2, const2), (3, const3)]:
            a = coefficients(d, 5, consts).a
            b = bruggeman_coefficients(d, 5)
            for sig in [(2,), (3,)]:
                assert a[sig] == b[sig]

    def test_shared_through_order4_2d(self, const2):
        a = coefficients(2, 4, const2).a
        b = bruggeman_coefficients(2, 4)
        assert a[(4,)] == b[(4,)]
        assert a[(2, 2)] == b[(2, 2)] == 0.0

    def test_order4_gap_is_H_term(self, const3):
        a = coefficients(3, 4, const3).a
        b = bruggeman_coefficients(3, 4)
        assert a[(2, 2)] - b[(2, 2)] == pytest.approx((1 - const3.H) / 27, abs=1e-12)


class TestCompare:
    def test_dimension_is_checked(self, const2):
        law = two_component(0.6, 1.4)
        with pytest.raises(ValueError, match="requires d >= 2"):
            compare(law, 1, const2)
        with pytest.raises(ValueError, match="constants are for d=2, not d=3"):
            compare(law, 3, const2)

    def test_d3_small_disorder_positive(self, const3):
        rep = compare(two_component(0.9, 1.1), 3, const3)
        assert rep.case == "d_ge_3_variance"
        assert rep.predicted_sign == "positive"
        assert rep.leading_order == 4
        assert 2.5e-7 < rep.leading_difference < 3.2e-7

    def test_2d_skewed_follows_third_moment(self, const2):
        up = compare(two_component(0.9, 1.1, 0.7), 2, const2)
        assert up.case == "2d_skewed"
        assert up.predicted_sign == "positive"
        down = compare(two_component(1.1, 0.9, 0.7), 2, const2)
        assert down.predicted_sign == "negative"
        m3 = moments(two_component(0.9, 1.1, 0.7), 3).u_moment(3)
        assert np.sign(up.leading_difference) == np.sign(m3)

    def test_2d_symmetric_three_value_negative(self, const2):
        rep = compare(three_value(0.2, -1.0, 0.3), 2, const2)
        assert rep.case == "2d_symmetric"
        assert rep.predicted_sign == "negative"
        assert rep.leading_order == 6

    def test_symmetric_two_component_indeterminate(self, const2):
        # almost self-dual: sigma_e and sigma_B coincide, spread vanishes
        rep = compare(two_component(0.8, 1.2), 2, const2)
        assert rep.predicted_sign == "indeterminate"

    def test_light_far_atom_keeps_its_order4_term(self, const3):
        # (1 - H)/d^3 <u^2>^2 is a product of nonnegative sums: no
        # cancellation, however small against u0^4
        law = two_component(1.0, 1.02, p1=1 - 1e-5)
        rep = compare(law, 3, const3)
        m = moments(law, 5)
        assert rep.case == "d_ge_3_variance"
        assert (rep.leading_order, rep.predicted_sign) == (4, "positive")
        want = m.mean_sigma * (1.0 - const3.H) / 27 * m.u_moment(2) ** 2
        assert rep.leading_difference == pytest.approx(want, rel=1e-12)

    def test_sign_grid_u0_below_02(self, const2, const3):
        for eps in (0.05, 0.1, 0.2):
            assert compare(two_component(1 - eps, 1 + eps), 3, const3).predicted_sign == "positive"
        for eps in (0.05, 0.15):
            for p1 in (0.6, 0.7):
                up = compare(two_component(1 - eps, 1 + eps, p1), 2, const2)
                down = compare(two_component(1 + eps, 1 - eps, p1), 2, const2)
                assert up.predicted_sign == "positive"
                assert down.predicted_sign == "negative"
        for eps in (0.1, 0.2):
            for p in (0.2, 0.3, 0.4):
                rep = compare(three_value(eps, -1.0, p), 2, const2)
                assert rep.predicted_sign == "negative"


class TestLeadingGapClosedForm:
    """`compare`'s leading term is the paper's closed form: (1 - H)/d^3 <u^2>^2
    for d >= 3, (I - 1/16) <u^2><u^3> for skewed 2D laws and
    1.5 (1/16 - I) <u^2>(<u^4> - <u^2>^2) for symmetric 2D laws."""

    @staticmethod
    def laws():
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            values = np.exp(rng.uniform(-1.0, 1.0, n))
            probs = rng.dirichlet(np.ones(n))
            yield DistributionSpec(atoms=tuple(zip(values.tolist(), probs.tolist()))), False
        for eps in (0.05, 0.1, 0.2, 0.4):
            for p in (0.1, 0.2, 0.3, 0.4):
                yield three_value(eps, -1.0, p), True

    def test_matches_closed_form(self, const2, const3, const4, const5):
        consts = {2: const2, 3: const3, 4: const4, 5: const5}
        for dist, symmetric in self.laws():
            m = moments(dist, 6)
            m2, m3, m4 = m.u_moment(2), m.u_moment(3), m.u_moment(4)
            for d, c in consts.items():
                rep = compare(dist, d, c)
                if d >= 3:
                    want = ("d_ge_3_variance", 4, (1.0 - c.H) / d**3 * m2**2)
                elif symmetric:
                    want = ("2d_symmetric", 6, 1.5 * (1.0 / 16 - c.I) * m2 * (m4 - m2**2))
                else:
                    want = ("2d_skewed", 5, (c.I - 1.0 / 16) * m2 * m3)
                assert (rep.case, rep.leading_order) == want[:2]
                assert rep.leading_difference == pytest.approx(m.mean_sigma * want[2], rel=1e-12)
