"""Brute-force path enumeration against the closed-form coefficients."""

import itertools

import pytest

import homogenize.lattice as lattice
from homogenize import (
    CapabilityError,
    build_kernel_table,
    coefficients,
    enumerate_order,
    moments,
    two_component,
)
from homogenize.distributions import moment_sum
from homogenize.enumerator import enumerate_families


class TestFamilies:
    @pytest.mark.parametrize("k,count", [(2, 1), (3, 1), (4, 4), (5, 11)])
    def test_family_counts(self, k, count):
        assert len(enumerate_families(k)) == count

    def test_k4_patterns(self):
        patterns = {f.pattern for f in enumerate_families(4)}
        assert patterns == {(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)}

    def test_k5_contains_published_patterns(self):
        patterns = {f.pattern for f in enumerate_families(5)}
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
            for fam in enumerate_families(k):
                assert min(fam.multiplicities) >= 2
                assert sum(fam.multiplicities) == k

    def test_direction_pinning(self):
        by_pattern = {f.pattern: f for f in enumerate_families(4)}
        assert by_pattern[(0, 1, 0, 1)].direction_pinned  # free bond owns the last slot
        assert not by_pattern[(0, 1, 1, 0)].direction_pinned

    def test_sequential_patterns_have_zero_cumulant(self):
        for fam in enumerate_families(5):
            if fam.pattern in {(0, 0, 1, 1, 1), (0, 0, 0, 1, 1)}:
                assert lattice.path_cumulant(fam.pattern) == {}

    def test_k_range(self):
        with pytest.raises(CapabilityError):
            enumerate_families(6)
        with pytest.raises(CapabilityError):
            enumerate_families(1)


class TestAk:
    def test_A2_A3_pure(self, table2_small):
        a2 = enumerate_order(2, table2_small).polynomial
        assert a2.get((2,), 0.0) == pytest.approx(-0.5, abs=1e-9)
        a3 = enumerate_order(3, table2_small).polynomial
        assert a3.get((3,), 0.0) == pytest.approx(0.25, abs=1e-9)

    def test_A4_2d(self, table2_small):
        poly = enumerate_order(4, table2_small).polynomial
        assert poly.get((4,), 0.0) == pytest.approx(-0.125, abs=1e-6)
        assert poly.get((2, 2), 0.0) == pytest.approx(0.0, abs=1e-4)

    def test_A5_2d_matches_constants(self, table2, const2):
        poly = enumerate_order(5, table2).polynomial
        assert poly.get((5,), 0.0) == pytest.approx(1 / 16, abs=1e-6)
        assert poly.get((2, 3), 0.0) == pytest.approx(const2.I, abs=1e-4 * const2.I)

    def test_A4_A5_d3_match_closed_form(self, table3, const3):
        ref = coefficients(3, 5, const3)
        e4 = enumerate_order(4, table3)
        e5 = enumerate_order(5, table3)
        for sig, eo in [((4,), e4), ((2, 2), e4), ((5,), e5), ((2, 3), e5)]:
            tol = max(1e-4 * abs(ref.a[sig]), eo.error.get(sig, 0.0) + ref.err[sig])
            if len(sig) == 1:
                tol = 1e-6
            assert eo.polynomial.get(sig, 0.0) == pytest.approx(ref.a[sig], abs=tol)

    def test_numeric_equals_symbolic_evaluation(self):
        # each family's cumulant map on a law against the numeric
        # inclusion-exclusion over cut points, in float moments
        mom = moments(two_component(1.0, 4.0), 5)
        for k in range(2, 6):
            for fam in enumerate_families(k):
                path = fam.pattern
                numeric = 0.0
                for r in range(k):
                    for cuts in itertools.combinations(range(1, k), r):
                        edges = (0,) + cuts + (k,)
                        prod = (-1.0) ** r
                        for a, b in zip(edges[:-1], edges[1:]):
                            block = path[a:b]
                            for bond in set(block):
                                prod *= mom.u_moment(block.count(bond))
                        numeric += prod
                symbolic = moment_sum(lattice.path_cumulant(path), mom.u_moment)
                assert numeric == pytest.approx(symbolic, rel=1e-12, abs=1e-15), fam

    def test_truncation_monotonicity(self):
        mom = moments(two_component(1.0, 4.0), 4)
        values = {}
        for R in range(5, 11):
            poly = enumerate_order(4, build_kernel_table(2, 128, R)).polynomial
            values[R] = moment_sum(poly, mom.u_moment)
        diffs = [abs(values[R] - values[R - 1]) for R in range(6, 11)]
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    def test_moment_order_validation(self, table2_small):
        mom = moments(two_component(1.0, 4.0), 3)
        with pytest.raises(ValueError):
            moment_sum(enumerate_order(5, table2_small).polynomial, mom.u_moment)

    def test_error_estimates_nonnegative(self, table2_small):
        eo = enumerate_order(4, table2_small)
        assert all(c >= 0 for c in eo.error.values())
