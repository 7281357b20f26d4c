"""Closed-form expansion: coefficient values, series evaluation, remainder bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogenize import (
    CapabilityError,
    DistributionSpec,
    coefficients,
    constant,
    enumerate_order,
    moments,
    scale,
    sigma_e_series,
    two_component,
)


class TestCoefficients:
    def test_pure_coefficients_rational(self, const3):
        c = coefficients(3, 5, const3)
        d = 3
        assert c.a[(2,)] == -1 / d
        assert c.a[(3,)] == 1 / d**2
        assert c.a[(4,)] == -1 / d**3
        assert c.a[(5,)] == 1 / d**4

    def test_2d_a22_is_exactly_zero(self, const2):
        assert coefficients(2, 4, const2).a[(2, 2)] == 0.0

    def test_2d_sixth_order_block(self, const2):
        c = coefficients(2, 6, const2)
        i = const2.I
        assert c.a[(6,)] == -1 / 32
        assert c.a[(2, 4)] == pytest.approx(1 / 32 - 1.5 * i, abs=1e-15)
        assert c.a[(3, 3)] == pytest.approx(1 / 32 - i, abs=1e-15)
        assert c.a[(2, 2, 2)] == pytest.approx(1.5 * i - 1 / 16, abs=1e-15)

    def test_2d_entries_satisfy_duality_relations(self, const2):
        c = coefficients(2, 6, const2).a
        a3, a5, a23 = c[(3,)], c[(5,)], c[(2, 3)]
        assert c[(2, 2)] == pytest.approx(1.5 * a3 - 0.375, abs=1e-14)
        assert c[(4,)] == pytest.approx(0.25 - 1.5 * a3, abs=1e-14)
        assert c[(2, 2, 2)] == pytest.approx(3.5 * a3 + 1.5 * a23 - 15 / 16, abs=1e-14)
        assert c[(3, 3)] == pytest.approx(0.5 + 0.5 * a3**2 - 2 * a3 - a23, abs=1e-14)
        assert c[(2, 4)] == pytest.approx(11 / 8 - 6 * a3 - 1.5 * a23 + 2.5 * a5, abs=1e-14)
        assert c[(6,)] == pytest.approx(2.5 * a3 - 2.5 * a5 - 0.5, abs=1e-14)

    def test_d3_a22_from_H(self, const3):
        expected = -(3 + const3.H - 3) / 27
        got = coefficients(3, 4, const3).a[(2, 2)]
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-0.923 / 27, abs=5e-3 / 27)

    def test_order_capability(self, const2, const3):
        with pytest.raises(CapabilityError):
            coefficients(3, 6, const3)
        with pytest.raises(ValueError):
            coefficients(2, 1, const2)
        with pytest.raises(ValueError):
            coefficients(3, 4, const2)  # dimension mismatch


class TestSeries:
    def test_constant_law_every_order(self, const2):
        for order in range(2, 7):
            s = sigma_e_series(constant(3.0), 2, order, const2)
            assert s.sigma_e == pytest.approx(3.0, abs=1e-14)
            assert s.remainder_bound == 0.0
            assert s.valid

    def test_symmetric_04_order6_value(self, const2):
        # 1 - e^2/2 - e^4/8 - e^6/16 at e = 0.4: the I-dependent pieces of the
        # 6th-order block cancel identically for a symmetric two-point law
        s = sigma_e_series(two_component(0.6, 1.4), 2, 6, const2)
        assert s.sigma_e == pytest.approx(0.916544, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.4])
    def test_keller_dykhne_defect(self, const2, eps):
        s = sigma_e_series(two_component(1 - eps, 1 + eps), 2, 6, const2)
        assert abs(s.sigma_e - np.sqrt(1 - eps**2)) <= 2 * eps**8

    def test_terms_and_bound_layout(self, const2):
        s = sigma_e_series(two_component(0.6, 1.4), 2, 4, const2)
        assert set(s.terms) == {2, 3, 4}
        u0 = 0.4
        assert s.remainder_bound == pytest.approx((2 * u0) ** 5 / (1 - 2 * u0), rel=1e-9)

    def test_invalid_when_disorder_large(self, const2):
        s = sigma_e_series(two_component(0.2, 1.8), 2, 4, const2)
        assert not s.valid
        assert s.remainder_bound is None
        assert np.isfinite(s.sigma_e)

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, c, const2):
        base = two_component(0.7, 1.5, 0.4)
        s1 = sigma_e_series(base, 2, 6, const2)
        s2 = sigma_e_series(scale(base, c), 2, 6, const2)
        assert s2.sigma_e == pytest.approx(c * s1.sigma_e, rel=1e-12)


class TestRemainderHonesty:
    def test_order_steps_within_bound(self, const2, rng):
        laws = []
        while len(laws) < 8:
            n = int(rng.integers(2, 5))
            vals = 1.0 + rng.uniform(-0.3, 0.3, size=n)
            probs = rng.dirichlet(np.ones(n))
            dist = DistributionSpec(atoms=tuple(zip(vals, probs)))
            if moments(dist, 2).u0 < 0.4:
                laws.append(dist)
        for dist in laws:
            series = {n: sigma_e_series(dist, 2, n, const2) for n in range(2, 7)}
            for n in range(2, 6):
                step = abs(series[n].sigma_e - series[n + 1].sigma_e)
                assert step <= series[n].remainder_bound


class TestOracleEquivalence:
    def test_per_order_terms_match_enumerator(self, table2, const2):
        dist = two_component(1.0, 4.0)  # skewed: odd moments contribute
        mom = moments(dist, 5)
        series = sigma_e_series(dist, 2, 5, const2)
        for k in range(2, 6):
            enum_value = enumerate_order(k, table2).polynomial.evaluate(mom)
            ref = series.terms[k]
            scale_ref = max(abs(ref), 1e-6)
            assert abs(enum_value - ref) / scale_ref < 1e-4
