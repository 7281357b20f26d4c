"""Path combinatorics on label patterns: compositions, moments, and the ordered cumulant."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogenize import compositions, path_cumulant, path_moment
from homogenize.distributions import moments, two_component
from homogenize.enumerator import SymbolicMoments


class FakeMoments:
    """Moment provider with prescribed values, for oracle-style checks."""

    def __init__(self, table, max_order=8):
        self.table = table
        self.max_order = max_order

    def u_moment(self, n):
        return self.table.get(n, 0.0)


MOM = moments(two_component(1.0, 4.0), 8)  # u = -/+ 0.6, all moments nonzero for even n


def brute_cumulant(path, mom):
    """Independent evaluation: enumerate cut-point subsets directly."""
    k = len(path)
    total = 0.0
    for r in range(k):
        for cuts in itertools.combinations(range(1, k), r):
            edges = (0,) + cuts + (k,)
            prod = (-1.0) ** r
            for a, b in zip(edges[:-1], edges[1:]):
                block = path[a:b]
                m = 1.0
                for bond in set(block):
                    m *= mom.u_moment(sum(1 for x in block if x == bond))
                prod *= m
            total += prod
    return total


class TestCompositions:
    def test_length2_single_split(self):
        path = ("a", "b")
        assert compositions(path, 2) == [((path[0],), (path[1],))]

    def test_length4_three_splits(self):
        path = (0, 1, 2, 3)
        assert len(compositions(path, 2)) == 3

    def test_length5_m3_count_matches_brute_force(self):
        path = tuple(range(5))
        splits = compositions(path, 3)
        # oracle: choose 2 cut points among 4
        assert len(splits) == len(list(itertools.combinations(range(1, 5), 2))) == 6
        assert len(set(splits)) == 6

    def test_out_of_range_m(self):
        path = ("a", "b")
        with pytest.raises(ValueError):
            compositions(path, 0)
        with pytest.raises(ValueError):
            compositions(path, 3)

    @given(k=st.integers(1, 6), m=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_blocks_concatenate_back(self, k, m):
        if m > k:
            return
        path = tuple((i, 1 + i % 3) for i in range(k))
        for blocks in compositions(path, m):
            assert all(len(b) >= 1 for b in blocks)
            assert sum(blocks, ()) == path
        assert len(compositions(path, m)) == math.comb(k - 1, m - 1)


class TestPathMoment:
    def test_single_bond_twice(self):
        assert path_moment(("a", "a"), MOM) == pytest.approx(MOM.u_moment(2))

    def test_two_singletons_vanish(self):
        assert path_moment(("a", "b"), MOM) == 0.0

    def test_factorizes_over_distinct_bonds(self):
        path = ("a", "b", "b", "a")
        assert path_moment(path, MOM) == pytest.approx(MOM.u_moment(2) ** 2)

    def test_insufficient_order(self):
        shallow = moments(two_component(1.0, 4.0), 2)
        with pytest.raises(ValueError):
            path_moment(("a", "a", "a"), shallow)


class TestPathCumulant:
    def test_double_bond(self):
        assert path_cumulant(("a", "a"), MOM) == pytest.approx(MOM.u_moment(2))

    def test_nested_pairs_vanish(self):
        # consecutive repetition groups: (b b c c) has zero cumulant
        path = ("b", "b", "c", "c")
        assert path_cumulant(path, MOM) == pytest.approx(0.0, abs=1e-15)

    def test_interleaved_pairs(self):
        path = ("b", "c", "b", "c")
        expected = brute_cumulant(path, MOM)
        assert expected == pytest.approx(MOM.u_moment(2) ** 2)
        assert path_cumulant(path, MOM) == pytest.approx(expected)

    @given(labels=st.lists(st.integers(0, 2), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_and_singleton_rule(self, labels):
        path = tuple(labels)
        got = path_cumulant(path, MOM)
        assert got == pytest.approx(brute_cumulant(path, MOM), abs=1e-14)
        if any(labels.count(l) == 1 for l in set(labels)):
            assert got == pytest.approx(0.0, abs=1e-14)

    @given(
        labels=st.lists(st.integers(0, 5), min_size=2, max_size=6),
        names=st.permutations(["p", "q", "r", "s", "t", "u"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_depends_only_on_repetition_pattern(self, labels, names):
        # relabelling by any bijection (ints to strings) keeps the cumulant exactly
        path = tuple(labels)
        renamed = tuple(names[lbl] for lbl in labels)
        assert path_cumulant(renamed, MOM) == path_cumulant(path, MOM)
        symbolic = SymbolicMoments(6)
        assert path_cumulant(renamed, symbolic).terms == path_cumulant(path, symbolic).terms

    @pytest.mark.parametrize("k", range(2, 7))
    def test_signed_composition_counts_cancel(self, k):
        # with all block moments forced to 1, E = sum_m (-1)^(m-1) C(k-1, m-1) = 0
        ones = FakeMoments({n: 1.0 for n in range(1, 9)})
        path = ("a",) * k
        assert path_cumulant(path, ones) == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_empty_path(self):
        with pytest.raises(ValueError):
            path_cumulant((), MOM)

    def test_path_too_long(self):
        with pytest.raises(ValueError):
            path_cumulant(tuple(range(9)), MOM)
