"""Laws, moments, duality transform, and the eps-series duality engine."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogenize import (
    CapabilityError,
    DistributionSpec,
    DualityProbe,
    ExpansionCoefficients,
    constant,
    dual,
    duality_residual_series,
    load_distribution,
    moments,
    recover_relations_order4,
    recover_relations_order6,
    scale,
    self_dual_scale,
    three_value,
    two_component,
)
from homogenize import distributions as dist_mod
from homogenize.distributions import DUALITY_GATE, PowerSeries, moment_sum

I_REF = 0.0683


def reference_coefficients(order=6) -> ExpansionCoefficients:
    """The published 2D coefficient set, I-consistent by construction."""
    a = {
        (2,): -0.5,
        (3,): 0.25,
        (4,): -0.125,
        (2, 2): 0.0,
        (5,): 1 / 16,
        (2, 3): I_REF,
        (6,): -1 / 32,
        (2, 4): 1 / 32 - 1.5 * I_REF,
        (3, 3): 1 / 32 - I_REF,
        (2, 2, 2): 1.5 * I_REF - 1 / 16,
    }
    a = {sig: c for sig, c in a.items() if sum(sig) <= order}
    return ExpansionCoefficients(d=2, order=order, a=a, err={s: 0.0 for s in a})


class TestMoments:
    def test_symmetric_two_component(self):
        m = moments(two_component(1 - 0.3, 1 + 0.3), 4)
        assert m.mean_sigma == pytest.approx(1.0)
        assert m.u_moment(1) == 0.0
        assert m.u_moment(2) == pytest.approx(0.09)
        assert m.u_moment(3) == pytest.approx(0.0, abs=1e-15)
        assert m.u0 == pytest.approx(0.3)

    def test_constant_law(self):
        m = moments(constant(5.0), 6)
        assert m.mean_sigma == 5.0
        assert all(m.u_moment(n) == 0.0 for n in range(1, 7))
        assert m.u0 == 0.0

    def test_one_four_law(self):
        m = moments(two_component(1.0, 4.0), 3)
        assert m.mean_sigma == pytest.approx(2.5)
        assert m.u_moment(2) == pytest.approx(0.36)
        assert m.u_moment(3) == pytest.approx(0.0, abs=1e-15)
        assert m.u0 == pytest.approx(0.6)

    @given(
        vals=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5, unique=True),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_moment_bounds(self, vals, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(len(vals)))
        m = moments(DistributionSpec(atoms=tuple(zip(vals, probs))), 6)
        for n in range(2, 7):
            assert abs(m.u_moment(n)) <= m.u0**n * (1 + 1e-9) + 1e-12
            if n % 2 == 0:
                assert m.u_moment(n) >= -1e-15

    def test_raw_moment_mode(self):
        dist = DistributionSpec(
            atoms=None, raw_mean=2.0, raw_u_moments=(0.04, 0.001, 0.002), raw_u0=0.25
        )
        m = moments(dist, 4)
        assert m.mean_sigma == 2.0
        assert m.u_moment(2) == 0.04
        with pytest.raises(ValueError):
            moments(dist, 6)
        with pytest.raises(ValueError, match="max_order must be >= 2"):
            moments(dist, 1)
        with pytest.raises(CapabilityError):
            dual(dist)


class TestMomentSum:
    def test_evaluate(self):
        mom = moments(two_component(1.0, 4.0), 5)
        terms = {(2, 3): 2.0, (5,): 1.0}
        expected = 2.0 * mom.u_moment(2) * mom.u_moment(3) + mom.u_moment(5)
        assert moment_sum(terms, mom.u_moment) == pytest.approx(expected)
        # a zero coefficient is skipped: its order-7 moment is never asked for
        assert moment_sum({(7,): 0.0}, mom.u_moment, total=1.5) == 1.5


class TestValidation:
    def test_negative_value(self):
        with pytest.raises(ValueError):
            DistributionSpec(atoms=((-1.0, 0.5), (2.0, 0.5)))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.6)))

    @given(
        atoms=st.lists(
            st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 1.0)), min_size=0, max_size=4
        ),
        bad=st.sampled_from([math.inf, -math.inf, math.nan, -math.nan]),
        good=st.floats(0.01, 10.0),
        in_value=st.booleans(),
        where=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_atom_rejected(self, atoms, bad, good, in_value, where):
        atom = (bad, good) if in_value else (good, bad)
        atoms.insert(where % (len(atoms) + 1), atom)
        with pytest.raises(ValueError, match="finite"):
            DistributionSpec(atoms=tuple(atoms))

    @pytest.mark.parametrize("missing", ["raw_mean", "raw_u_moments", "raw_u0"])
    def test_raw_law_needs_every_field(self, missing):
        fields = {"raw_mean": 1.0, "raw_u_moments": (0.01,), "raw_u0": 0.2}
        del fields[missing]
        with pytest.raises(ValueError, match="need atoms, or mean"):
            DistributionSpec(**fields)

    def test_non_finite_raw_mean_rejected(self):
        for mean in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                DistributionSpec(raw_mean=mean, raw_u_moments=(0.01,), raw_u0=0.2)

    @given(
        u_moments=st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=5),
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
        where=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_raw_input_rejected(self, u_moments, bad, where):
        u_moments = [abs(m) if n % 2 == 0 else m for n, m in enumerate(u_moments, start=2)]
        if where == 5:  # in u0
            kwargs = {"raw_u_moments": tuple(u_moments), "raw_u0": bad}
        else:
            u_moments.insert(where % (len(u_moments) + 1), bad)
            kwargs = {"raw_u_moments": tuple(u_moments), "raw_u0": 0.45}
        with pytest.raises(ValueError, match="finite"):
            DistributionSpec(raw_mean=1.0, **kwargs)

    @given(
        vals=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_raw_moment_bounds(self, vals, seed, n):
        rng = np.random.default_rng(seed)
        m = moments(DistributionSpec(atoms=tuple(zip(vals, rng.dirichlet(np.ones(len(vals)))))), 6)

        def raw(u0=m.u0, moment_n=None):
            mom = list(m.u_moments[1:])
            if moment_n is not None:
                mom[n - 2] = moment_n
            return DistributionSpec(raw_mean=m.mean_sigma, raw_u_moments=tuple(mom), raw_u0=u0)

        raw()  # the moments of an atomic law pass with its own u0
        past = 1.01 * m.u0**n + 1e-12
        with pytest.raises(ValueError, match="exceeds"):
            raw(moment_n=past if n % 2 == 0 else -past)
        if n % 2 == 0:
            with pytest.raises(ValueError, match="even moment"):
                raw(moment_n=-m.u_moment(n) - 1e-12)
        with pytest.raises(ValueError, match="u0"):
            raw(u0=-m.u0 - 1e-12)

    def test_duplicates_merged(self):
        d = DistributionSpec(atoms=((2.0, 0.25), (1.0, 0.5), (2.0, 0.25)))
        assert d.atoms == ((1.0, 0.5), (2.0, 0.5))


class TestDuality:
    def test_reciprocal_atoms(self):
        d = dual(two_component(1.0, 4.0))
        assert d.atoms == ((0.25, 0.5), (1.0, 0.5))

    def test_self_dual_law_maps_to_itself(self):
        d = two_component(2.0, 0.5)
        assert dual(d).atoms == d.atoms

    def test_constant_dual(self):
        assert dual(constant(1.0)).atoms == ((1.0, 1.0),)

    @given(
        vals=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_involution(self, vals, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(len(vals)))
        d = DistributionSpec(atoms=tuple(zip(vals, probs)))
        dd = dual(dual(d))
        # float reciprocal is not exactly involutive; demand <= 1 ulp drift
        for (v1, p1), (v2, p2) in zip(d.atoms, dd.atoms):
            assert v2 == pytest.approx(v1, rel=1e-15)
            assert p1 == p2

    def test_self_dual_scale_two_component(self):
        s0 = self_dual_scale(two_component(1.0, 4.0))
        assert s0 == pytest.approx(0.5)

    def test_self_dual_scale_generic_three_value_absent(self):
        assert self_dual_scale(three_value(0.3, 2.0, 0.25)) is None

    def test_self_dual_scale_constant(self):
        assert self_dual_scale(constant(2.0)) == pytest.approx(0.5)

    def test_scaled_law_moments_match_dual(self):
        d = two_component(1.0, 4.0)
        s0 = self_dual_scale(d)
        scaled = scale(d, s0)
        md, ms = moments(dual(scaled), 5), moments(scaled, 5)
        for n in range(2, 6):
            assert md.u_moment(n) == pytest.approx(ms.u_moment(n), abs=1e-14)


class TestPowerSeries:
    def test_multiplication_truncates(self):
        x = PowerSeries.variable(4)
        p = (1 + x) * (1 + x)
        assert np.allclose(p.c, [1, 2, 1, 0, 0])

    def test_reciprocal(self):
        x = PowerSeries.variable(6)
        s = 1 + 2 * x + 3 * x**2
        prod = s * s.reciprocal()
        assert np.allclose(prod.c, [1, 0, 0, 0, 0, 0, 0], atol=1e-14)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries.variable(3).reciprocal()

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries.variable(3) + PowerSeries.variable(4)


class TestDualityResidual:
    def test_reference_coefficients_annihilate_even_orders(self):
        coeffs = reference_coefficients()
        for p, alpha in [(0.3, 2.0), (0.1, -1.5), (0.45, 0.7), (0.2, 3.0)]:
            res = duality_residual_series(
                DualityProbe(p=p, alpha_ratio=alpha, order=6), coeffs
            )
            assert max(abs(res[2]), abs(res[4]), abs(res[6])) < 1e-8

    def test_perturbed_a4_breaks_order4(self):
        coeffs = reference_coefficients()
        bad = dict(coeffs.a)
        bad[(4,)] = -0.125 + 0.01
        broken = ExpansionCoefficients(d=2, order=6, a=bad, err=coeffs.err)
        res = duality_residual_series(
            DualityProbe(p=0.3, alpha_ratio=2.0, order=6), broken
        )
        assert abs(res[4]) > 1e-6

    def test_degenerate_alpha_one(self):
        res = duality_residual_series(
            DualityProbe(p=0.3, alpha_ratio=1.0, order=6), reference_coefficients()
        )
        assert max(abs(res[2]), abs(res[4]), abs(res[6])) < 1e-8

    def test_order8_is_informational_but_computable(self):
        res = duality_residual_series(
            DualityProbe(p=0.3, alpha_ratio=2.0, order=8), reference_coefficients()
        )
        assert len(res) == 9

    def test_order_beyond_capability(self):
        with pytest.raises(CapabilityError):
            duality_residual_series(
                DualityProbe(p=0.3, alpha_ratio=2.0, order=8), reference_coefficients(order=4)
            )

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            DualityProbe(p=0.6, alpha_ratio=1.0)
        with pytest.raises(ValueError):
            DualityProbe(p=0.3, alpha_ratio=1.0, order=5)
        with pytest.raises(ValueError):
            DualityProbe(p=0.3, alpha_ratio=1.0, order=10)
        for alpha in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="alpha ratio must be finite"):
                DualityProbe(p=0.3, alpha_ratio=alpha)

    @pytest.mark.parametrize("order, coeff_order", [(2, 2), (4, 4), (6, 6), (8, 6)])
    def test_rounding_bound_holds_up_to_the_refusal_limit(self, order, coeff_order):
        coeffs = reference_coefficients(order=coeff_order)
        k = min(order, coeff_order)
        limit = (DUALITY_GATE / (16.0 * np.finfo(float).eps)) ** (1.0 / k)
        rng = np.random.default_rng(order + coeff_order)
        for _ in range(40):
            p = float(rng.uniform(1e-3, 0.499))
            alpha = float(rng.choice([-1.0, 1.0]) * limit ** rng.uniform(-0.5, 1.0))
            res = duality_residual_series(DualityProbe(p, alpha, order), coeffs)
            for j in range(1, k + 1):
                assert abs(res[j]) <= 16.0 * np.finfo(float).eps * max(1.0, abs(alpha)) ** j
        for alpha in (1.001 * limit, -1.001 * limit):
            with pytest.raises(ValueError, match=r"p=0\.3, alpha ratio .* lost to rounding"):
                duality_residual_series(DualityProbe(0.3, alpha, order), coeffs)

    def test_requires_2d(self):
        coeffs = reference_coefficients()
        threed = ExpansionCoefficients(d=3, order=6, a=coeffs.a, err=coeffs.err)
        with pytest.raises(CapabilityError):
            duality_residual_series(DualityProbe(p=0.3, alpha_ratio=2.0), threed)


class TestRelationRecovery:
    @pytest.mark.parametrize("a3", [0.25, 0.4, -0.1])
    def test_order4_relations(self, a3):
        rel = recover_relations_order4(a3)
        assert rel[(2, 2)] == pytest.approx(1.5 * a3 - 0.375, abs=1e-8)
        assert rel[(4,)] == pytest.approx(0.25 - 1.5 * a3, abs=1e-8)

    def test_order6_relations_at_published_inputs(self):
        rel = recover_relations_order6(0.25, 1 / 16, I_REF)
        assert rel[(2, 2, 2)] == pytest.approx(1.5 * I_REF - 1 / 16, abs=1e-8)
        assert rel[(3, 3)] == pytest.approx(1 / 32 - I_REF, abs=1e-8)
        assert rel[(2, 4)] == pytest.approx(1 / 32 - 1.5 * I_REF, abs=1e-8)
        assert rel[(6,)] == pytest.approx(-1 / 32, abs=1e-8)

    def test_fits_match_per_map_residuals_bit_for_bit(self, monkeypatch):
        # the fits build one moment series per probe and evaluate every
        # coefficient map against it; each residual must equal the one-map path
        made, calls = [], []
        probe_series, series_residual = dist_mod._probe_series, dist_mod._series_residual

        def spy_series(p, alpha, order, max_moment):
            made.append((probe_series(p, alpha, order, max_moment), (p, alpha, order)))
            return made[-1][0]

        def spy_residual(series, coeff_map):
            key = next(key for s, key in made if s is series)
            calls.append((key, dict(coeff_map), series_residual(series, coeff_map)))
            return calls[-1][2]

        monkeypatch.setattr(dist_mod, "_probe_series", spy_series)
        monkeypatch.setattr(dist_mod, "_series_residual", spy_residual)
        recover_relations_order4(0.25)
        recover_relations_order6(0.25, 1 / 16, I_REF)
        monkeypatch.undo()
        probes = len(dist_mod._PROBES)
        assert len(made) == 2 * probes
        assert len(calls) == probes * (3 + 5)  # a zero map plus one bump per unknown
        for (p, alpha, order), coeff_map, res in calls:
            assert np.array_equal(res, dist_mod._three_value_residual(p, alpha, coeff_map, order))

    # The fits as the one-map-at-a-time path gave them, before the moment
    # series were shared across coefficient maps.
    @pytest.mark.parametrize("args, expected", [
        ((0.25,), {(4,): "-0x1.0000000000000p-3", (2, 2): "0x1.4e916d82b798bp-52"}),
        ((0.4,), {(4,): "-0x1.6666666666668p-2", (2, 2): "0x1.cccccccccccfep-3"}),
        ((0.25, 1 / 16, I_REF), {
            (6,): "-0x1.0000000000097p-5", (2, 4): "-0x1.23a29c779a53cp-4",
            (3, 3): "-0x1.2f837b4a230f0p-5", (2, 2, 2): "0x1.474538ef349c2p-5"}),
    ])
    def test_fitted_values_unchanged(self, args, expected):
        recover = recover_relations_order4 if len(args) == 1 else recover_relations_order6
        assert recover(*args) == {sig: float.fromhex(h) for sig, h in expected.items()}


class TestFileFormat:
    def test_atom_roundtrip(self, tmp_path):
        path = tmp_path / "dist.json"
        atoms = [{"value": 1.4, "prob": 0.5}, {"value": 0.6, "prob": 0.5}]
        path.write_text(json.dumps({"atoms": atoms}))
        assert load_distribution(path) == two_component(0.6, 1.4)

    def test_label_key_is_ignored(self, tmp_path):
        # law files written when laws carried a label still load
        path = tmp_path / "dist.json"
        atoms = [{"value": 0.6, "prob": 0.5}, {"value": 1.4, "prob": 0.5}]
        path.write_text(json.dumps({"atoms": atoms, "label": "kd"}))
        assert load_distribution(path) == two_component(0.6, 1.4)

    def test_moment_roundtrip(self, tmp_path):
        d = DistributionSpec(
            atoms=None, raw_mean=1.0, raw_u_moments=(0.01, 0.0), raw_u0=0.1
        )
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"u_moments": [0.01, 0], "mean": 1, "u0": 0.1}))
        assert load_distribution(path) == d

    def test_bad_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"values": [1, 2]}))
        with pytest.raises(ValueError):
            load_distribution(path)
