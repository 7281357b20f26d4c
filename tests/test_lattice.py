"""Path combinatorics on label patterns: compositions, moments, and the ordered cumulant."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogenize import compositions, path_cumulant, path_moment
from homogenize.distributions import moment_sum, moments, two_component

MOM = moments(two_component(1.0, 4.0), 8)  # u = -/+ 0.6, all moments nonzero for even n


def brute_cumulant_map(path):
    """Independent construction: every subset of cut points, each block's
    moment signature read off its label counts."""
    k = len(path)
    total = Counter()
    for r in range(k):
        for cuts in itertools.combinations(range(1, k), r):
            edges = (0,) + cuts + (k,)
            sig = []
            for a, b in zip(edges[:-1], edges[1:]):
                block = path[a:b]
                sig += [block.count(bond) for bond in set(block)]
            if 1 not in sig:
                total[tuple(sorted(sig))] += (-1) ** r
    return {s: c for s, c in total.items() if c}


def brute_cumulant(path, mom):
    """Independent numeric evaluation: cut-point subsets with float moments."""
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
        assert path_moment(("a", "a")) == (2,)

    def test_two_singletons_vanish(self):
        assert path_moment(("a", "b")) is None

    def test_factorizes_over_distinct_bonds(self):
        assert path_moment(("a", "b", "b", "a")) == (2, 2)
        assert path_moment(("b", "a", "b", "a", "a")) == (2, 3)

    def test_insufficient_order(self):
        # a signature asks for moments up to its largest order
        shallow = moments(two_component(1.0, 4.0), 2)
        with pytest.raises(ValueError):
            moment_sum({path_moment(("a", "a", "a")): 1}, shallow.u_moment)


class TestPathCumulant:
    def test_double_bond(self):
        assert path_cumulant(("a", "a")) == {(2,): 1}

    def test_nested_pairs_vanish(self):
        # consecutive repetition groups: (b b c c) has zero cumulant
        assert path_cumulant(("b", "b", "c", "c")) == {}

    def test_interleaved_pairs(self):
        path = ("b", "c", "b", "c")
        assert path_cumulant(path) == brute_cumulant_map(path) == {(2, 2): 1}

    @given(labels=st.lists(st.integers(0, 3), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_equals_brute_force_map(self, labels):
        path = tuple(labels)
        assert path_cumulant(path) == brute_cumulant_map(path)

    @given(labels=st.lists(st.integers(0, 2), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_and_singleton_rule(self, labels):
        # the map evaluated on a law against the numeric inclusion-exclusion
        path = tuple(labels)
        cumulant = path_cumulant(path)
        got = moment_sum(cumulant, MOM.u_moment)
        assert got == pytest.approx(brute_cumulant(path, MOM), abs=1e-14)
        if any(labels.count(l) == 1 for l in set(labels)):
            assert cumulant == {}

    @given(
        labels=st.lists(st.integers(0, 5), min_size=2, max_size=6),
        names=st.permutations(["p", "q", "r", "s", "t", "u"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_depends_only_on_repetition_pattern(self, labels, names):
        # relabelling by any bijection (ints to strings) keeps the cumulant exactly
        path = tuple(labels)
        renamed = tuple(names[lbl] for lbl in labels)
        assert path_cumulant(renamed) == path_cumulant(path)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_signed_composition_counts_cancel(self, k):
        # u = +-1: every even moment is 1, so a bond repeated k times sums
        # (-1)^(m-1) over the compositions of k into m even parts, which is
        # sum_m (-1)^(m-1) C(k/2 - 1, m - 1) = 0 for k > 2 (none for odd k)
        value = moment_sum(path_cumulant(("a",) * k), lambda n: float(n % 2 == 0))
        assert value == (1.0 if k == 2 else 0.0)


class TestValidation:
    def test_empty_path(self):
        with pytest.raises(ValueError):
            path_cumulant(())

    def test_path_too_long(self):
        with pytest.raises(ValueError):
            path_cumulant(tuple(range(9)))
