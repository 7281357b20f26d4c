"""Brute-force path enumeration against the closed-form coefficients."""

import pytest

import homogenize.lattice as lattice
from homogenize import (
    CapabilityError,
    MomentPolynomial,
    build_kernel_table,
    coefficients,
    enumerate_families,
    enumerate_order,
    moments,
    two_component,
)
from homogenize.enumerator import SymbolicMoments, _representative_path


class TestFamilies:
    @pytest.mark.parametrize("k,count", [(2, 1), (3, 1), (4, 4), (5, 11)])
    def test_family_counts(self, k, count):
        assert len(enumerate_families(k, 2)) == count

    def test_k4_patterns(self):
        patterns = {f.pattern for f in enumerate_families(4, 2)}
        assert patterns == {(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)}

    def test_k5_contains_published_patterns(self):
        patterns = {f.pattern for f in enumerate_families(5, 3)}
        published = {
            (0, 0, 0, 0, 0),
            (0, 1, 1, 1, 0), (0, 0, 1, 1, 0), (0, 1, 0, 1, 0), (0, 1, 1, 0, 0),
            (0, 1, 0, 1, 1), (0, 1, 1, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1),
        }
        assert published <= patterns
        # the two extra sequential patterns carry zero cumulant (checked below)
        assert patterns - published == {(0, 0, 1, 1, 1), (0, 0, 0, 1, 1)}

    def test_multiplicities_at_least_two(self):
        for k in range(2, 6):
            for fam in enumerate_families(k, 2):
                assert min(fam.multiplicities) >= 2
                assert sum(fam.multiplicities) == k

    def test_direction_pinning(self):
        by_pattern = {f.pattern: f for f in enumerate_families(4, 2)}
        assert by_pattern[(0, 1, 0, 1)].direction_pinned  # free bond owns the last slot
        assert not by_pattern[(0, 1, 1, 0)].direction_pinned

    def test_sequential_patterns_have_zero_cumulant(self):
        for fam in enumerate_families(5, 2):
            if fam.pattern in {(0, 0, 1, 1, 1), (0, 0, 0, 1, 1)}:
                poly = lattice.path_cumulant(_representative_path(fam), SymbolicMoments(5))
                assert poly.terms == {}

    def test_k_range(self):
        with pytest.raises(CapabilityError):
            enumerate_families(6, 2)
        with pytest.raises(CapabilityError):
            enumerate_families(1, 2)


class TestMomentPolynomial:
    def test_ring_operations(self):
        u2 = MomentPolynomial.variable(2)
        u3 = MomentPolynomial.variable(3)
        p = (u2 * u3 + 2.0 * u2) * 0.5
        assert p.coefficient((2, 3)) == 0.5
        assert p.coefficient((2,)) == 1.0
        assert p.coefficient((5,)) == 0.0

    def test_signature_normalization(self):
        p = MomentPolynomial({(3, 2): 1.0}) + MomentPolynomial({(2, 3): 1.0})
        assert p.coefficient((2, 3)) == 2.0

    def test_zero_terms_pruned(self):
        p = MomentPolynomial.variable(2) - MomentPolynomial.variable(2)
        assert p.terms == {}

    def test_evaluate(self):
        mom = moments(two_component(1.0, 4.0), 5)
        p = MomentPolynomial({(2, 3): 2.0, (5,): 1.0})
        expected = 2.0 * mom.u_moment(2) * mom.u_moment(3) + mom.u_moment(5)
        assert p.evaluate(mom) == pytest.approx(expected)


class TestAk:
    def test_A2_A3_pure(self, table2_small):
        a2 = enumerate_order(2, table2_small).polynomial
        assert a2.coefficient((2,)) == pytest.approx(-0.5, abs=1e-9)
        a3 = enumerate_order(3, table2_small).polynomial
        assert a3.coefficient((3,)) == pytest.approx(0.25, abs=1e-9)

    def test_A4_2d(self, table2_small):
        poly = enumerate_order(4, table2_small).polynomial
        assert poly.coefficient((4,)) == pytest.approx(-0.125, abs=1e-6)
        assert poly.coefficient((2, 2)) == pytest.approx(0.0, abs=1e-4)

    def test_A5_2d_matches_constants(self, table2, const2):
        poly = enumerate_order(5, table2).polynomial
        assert poly.coefficient((5,)) == pytest.approx(1 / 16, abs=1e-6)
        assert poly.coefficient((2, 3)) == pytest.approx(const2.I, abs=1e-4 * const2.I)

    def test_A4_A5_d3_match_closed_form(self, table3, const3):
        ref = coefficients(3, 5, const3)
        e4 = enumerate_order(4, table3)
        e5 = enumerate_order(5, table3)
        for sig, eo in [((4,), e4), ((2, 2), e4), ((5,), e5), ((2, 3), e5)]:
            tol = max(1e-4 * abs(ref.a[sig]), eo.error.coefficient(sig) + ref.err[sig])
            if len(sig) == 1:
                tol = 1e-6
            assert eo.polynomial.coefficient(sig) == pytest.approx(ref.a[sig], abs=tol)

    def test_numeric_equals_symbolic_evaluation(self):
        # the cumulant algebra in float arithmetic against the polynomial ring
        mom = moments(two_component(1.0, 4.0), 5)
        for k in range(2, 6):
            for fam in enumerate_families(k, 2):
                path = _representative_path(fam)
                numeric = lattice.path_cumulant(path, mom)
                symbolic = lattice.path_cumulant(path, SymbolicMoments(k)).evaluate(mom)
                assert numeric == pytest.approx(symbolic, rel=1e-12, abs=1e-15), fam

    def test_truncation_monotonicity(self):
        mom = moments(two_component(1.0, 4.0), 4)
        values = {
            R: enumerate_order(4, build_kernel_table(2, 128, R)).polynomial.evaluate(mom)
            for R in range(5, 11)
        }
        diffs = [abs(values[R] - values[R - 1]) for R in range(6, 11)]
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    def test_moment_order_validation(self, table2_small):
        mom = moments(two_component(1.0, 4.0), 3)
        with pytest.raises(ValueError):
            enumerate_order(5, table2_small).polynomial.evaluate(mom)

    def test_error_estimates_nonnegative(self, table2_small):
        eo = enumerate_order(4, table2_small)
        assert all(c >= 0 for c in eo.error.terms.values())
