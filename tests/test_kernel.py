"""Kernel quadrature: exact identities, symmetries, power sums, cache."""

import itertools
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import zeta

from homogenize import (
    CapacityError,
    build_kernel_table,
    channel_array,
    dimension_constants,
    gamma,
    lattice_power_sum,
)
import homogenize.cli as cli
import homogenize.kernel as kernel
from homogenize.kernel import (
    DEFAULTS,
    GRID_CAP,
    _BASE,
    _SLAB,
    _folded_sum,
    _hurwitz_zeta,
    direct_quadrature,
    get_kernel_table,
    load_table,
    save_table,
    shell_radii,
    tail_corrected_sum,
)
from test_constants import REFINED


def _along(v, d, ax):
    """1-D array v laid along axis ax of a d-dimensional grid."""
    return v.reshape([v.size if i == ax else 1 for i in range(d)])


def _channel_by_own_fft(d, N, R, a, b):
    """G_ab on the box from a transform of its own integrand (any a, b)."""
    x = (np.arange(N) + 0.5) / N
    s = np.sin(np.pi * x)
    t = s * np.exp(-1j * np.pi * x)
    denom = sum(_along(s**2, d, ax) for ax in range(d))
    g = _along(t, d, a - 1) * np.conj(_along(t, d, b - 1)) / denom
    idx = np.arange(-R, R + 1)
    box = np.fft.ifftn(g)[np.ix_(*([idx % N] * d))]
    for ax in range(d):
        box = box * _along(np.exp(1j * np.pi * idx / N), d, ax)
    return -box.real


def _one_shot_folded_sum(d, N, a, b, sites):
    """`_folded_sum` as one contraction of the whole (N/2)^d half-grid."""
    M = N // 2
    odd = 2 * np.arange(M) + 1
    s = np.sin(np.pi / (2 * N) * odd)
    out = sum(_along(s * s, d, ax) for ax in range(d))
    np.reciprocal(out, out=out)
    spread, sign = [], 1
    for ax in range(d):
        shift = (ax == b - 1) - (ax == a - 1)
        k = 2 * np.asarray(sites[ax]) + shift
        rows, inv = np.unique(np.abs(k), return_inverse=True)
        angle = np.pi / (2 * N) * (np.multiply.outer(rows, odd) % (4 * N))
        trig = np.sin(angle) if shift else np.cos(angle)
        out = np.einsum("x...,zx->...z", out, 2 * s ** ((ax == a - 1) + (ax == b - 1)) * trig)
        spread.append(inv)
        if shift:
            sign = sign * _along(np.sign(k), d, ax)
    return out[np.ix_(*spread)] * sign * ((-1.0 if a == b else 1.0) / N**d)


def _full_grid_quadrature(d, N, z, a, b):
    """Unfolded midpoint sum over all N^d points (small N only)."""
    x = (np.arange(N) + 0.5) / N
    t = np.sin(np.pi * x) * np.exp(-1j * np.pi * x)
    numer, denom = 1.0, 0.0
    for ax in range(d):
        f = np.exp(2j * np.pi * x * z[ax])
        if ax == a - 1:
            f = f * t
        if ax == b - 1:
            f = f * np.conj(t)
        numer = numer * _along(f, d, ax)
        denom = denom + _along(np.sin(np.pi * x) ** 2, d, ax)
    return float(-np.sum(numer / denom).real / N**d)


def _assert_same_table(got, want):
    assert (got.d, got.N, got.R) == (want.d, want.N, want.R)
    assert got.quad_defect == want.quad_defect
    assert sorted(got.values) == sorted(want.values)
    for key, arr in want.values.items():
        assert np.array_equal(got.values[key], arr)


def _v1_file_bytes(table):
    """The layout of format version 1: every channel a <= b, in (a, b) order."""
    out = b"GKTB" + struct.pack("<IIII", 1, table.d, table.N, table.R)
    out += struct.pack("<dd", table.quad_defect, 0.0)
    for a in range(1, table.d + 1):
        for b in range(a, table.d + 1):
            out += np.ascontiguousarray(channel_array(table, a, b)).astype("<f8").tobytes()
    return out


def _v2_file_bytes(table):
    """The layout of format version 2: the base channels after a header with
    a tail slot."""
    out = b"GKTB" + struct.pack("<IIIIdd", 2, table.d, table.N, table.R, table.quad_defect, 0.0)
    return out + np.asarray([table.values[k] for k in ((1, 1), (1, 2))], dtype="<f8").tobytes()


#: (H, I1, I2, I, K5) at the default (N, R), pinned from a build that ran one
#: FFT per channel a <= b and summed the unfolded 2N probe grid.
PINNED_CONSTANTS = {
    2: (1.0, 0.06391348772104183, 0.004396398462964813, 0.06830988618400664,
        0.06830988618400664),
    3: (0.9237824903392304, 0.012871714772907909, 0.0013639863658431177,
        0.015599687504594145, 0.04887289690406229),
    4: (0.8739836828235181, 0.004142939582854012, 0.0005405176103271446,
        0.0057644924138354455, 0.027232987457952915),
    5: (0.8442380226251048, 0.001717107236985753, 0.0002523981755237641,
        0.0027266999390808096, 0.01612982328388148),
}


class TestOriginAndSymmetry:
    def test_origin_d2(self):
        table = build_kernel_table(2, 256, 4)
        assert gamma(table, 1, 1, (0, 0)) == pytest.approx(-0.5, abs=1e-6)

    def test_origin_d3(self, table3):
        assert gamma(table3, 1, 1, (0, 0, 0)) == pytest.approx(-1 / 3, abs=1e-5)

    def test_origin_d4(self):
        table = build_kernel_table(4, 16, 2)
        assert gamma(table, 1, 1, (0, 0, 0, 0)) == pytest.approx(-0.25, abs=1e-6)

    def test_reflection_symmetry_exact(self, table2_small):
        for z in [(1, 2), (-3, 1), (0, 5), (2, -2)]:
            mz = tuple(-c for c in z)
            assert gamma(table2_small, 1, 2, z) == gamma(table2_small, 2, 1, mz)

    def test_2d_antisymmetry(self):
        table = build_kernel_table(2, 256, 6)
        assert gamma(table, 1, 1, (1, 2)) + gamma(table, 1, 1, (2, 1)) == pytest.approx(
            0.0, abs=1e-6
        )
        arr = channel_array(table, 1, 1)
        off_diag = arr + arr.T
        off_diag[table.R, table.R] = 0.0  # origin carries the trace, exclude it
        assert np.max(np.abs(off_diag)) < 1e-6

    def test_trace_identity(self, table2_small):
        # G_11(z) + G_22(z) = -delta_{z,0}
        total = channel_array(table2_small, 1, 1) + channel_array(table2_small, 2, 2)
        expect = np.zeros_like(total)
        expect[table2_small.R, table2_small.R] = -1.0
        assert np.max(np.abs(total - expect)) < 1e-7


class TestPowerSums:
    def test_row_square_sum_d2(self, table2):
        ps = [lattice_power_sum(table2, 1, a, 2) for a in (1, 2)]
        total = sum(p.value + p.tail for p in ps)
        assert total == pytest.approx(0.5, abs=1e-4)

    def test_offorigin_cube_sum_d2(self, table2):
        ps = lattice_power_sum(table2, 1, 1, 3, include_origin=False)
        assert ps.value + ps.tail == pytest.approx(0.0, abs=1e-5)

    def test_normalization_d2(self, table2):
        total = 0.0
        for a in (1, 2):
            for b in (1, 2):
                p = lattice_power_sum(table2, min(a, b), max(a, b), 2)
                total += p.value + p.tail
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_row_sum_beta_independent(self, table2):
        def row(beta):
            out = 0.0
            for a in (1, 2):
                arr = channel_array(table2, beta, a)
                out += tail_corrected_sum(arr**2, table2.R, 2).value
            return out

        assert abs(row(1) - row(2)) < 1e-8

    def test_tail_improves_identity(self, table2):
        ps = [lattice_power_sum(table2, 1, a, 2) for a in (1, 2)]
        raw = abs(sum(p.value for p in ps) - 0.5)
        corrected = abs(sum(p.value + p.tail for p in ps) - 0.5)
        assert corrected < raw / 10

    def test_power_validation(self, table2_small):
        with pytest.raises(ValueError):
            lattice_power_sum(table2_small, 1, 1, 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_power_sums_match_pow_reference(self, d, request):
        # the sums take powers by repeated multiplication; `arr ** p` calls libm pow
        table = request.getfixturevalue(f"table{d}")
        for a, b in ((1, 1), (1, 2)):
            arr = channel_array(table, a, b)
            for p in range(1, 7):
                ref = arr**p
                ref_ps = tail_corrected_sum(ref, table.R, d)
                # odd powers of G_12 cancel by symmetry to ~1e-20, where any two
                # summation orders differ; so the bound is relative to sum |G|^p,
                # which equals |sum G^p| wherever the sum does not cancel
                scale = np.sum(np.abs(ref))
                ps = lattice_power_sum(table, a, b, p)
                assert abs(ps.value - np.sum(ref)) <= 1e-13 * scale, (a, b, p)
                assert abs(ps.tail - ref_ps.tail) <= 1e-13 * scale, (a, b, p)
                ref_err = p * table.quad_defect * np.sum(np.abs(arr) ** (p - 1))
                assert ps.quad == pytest.approx(ref_err, rel=1e-13, abs=0), (a, b, p)


class TestAccuracy:
    def test_richardson_consistency_d2(self):
        a = build_kernel_table(2, 128, 6)
        b = build_kernel_table(2, 256, 6)
        worst = max(np.max(np.abs(a.values[k] - b.values[k])) for k in a.values)
        assert worst < 1e-5

    def test_probe_defect_small(self, table2):
        assert 0 <= table2.quad_defect < 1e-6

    @pytest.mark.parametrize("d, N", [(2, 8), (2, 64), (3, 16)])
    def test_radius_one_builds_with_the_radius_two_defect(self, d, N):
        # the probe reads its own radius-2 boxes, not the table's sites
        one, two = build_kernel_table(d, N, 1), build_kernel_table(d, N, 2)
        assert one.R == 1
        assert one.quad_defect == two.quad_defect > 0

    def test_direct_quadrature_matches_fft(self, table2_small):
        z = (2, 1)
        direct = direct_quadrature(2, table2_small.N, z, 1, 1)
        assert direct == pytest.approx(gamma(table2_small, 1, 1, z), abs=1e-12)


class TestBaseChannels:
    @pytest.mark.parametrize("d, N, R", [(2, 32, 5), (3, 16, 4), (4, 8, 3), (5, 8, 2)])
    def test_every_channel_matches_its_own_fft(self, d, N, R):
        table = build_kernel_table(d, N, R)
        assert sorted(table.values) == [(1, 1), (1, 2)]
        for a, b in itertools.product(range(1, d + 1), repeat=2):
            want = _channel_by_own_fft(d, N, R, a, b)
            assert np.max(np.abs(channel_array(table, a, b) - want)) <= 1e-15, (a, b)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_base_channels_match_their_own_fft_at_defaults(self, d, request):
        table = request.getfixturevalue(f"table{d}")
        for (a, b), arr in table.values.items():
            want = _channel_by_own_fft(d, table.N, table.R, a, b)
            assert np.max(np.abs(arr - want)) <= 1e-15, (a, b)

    def test_gamma_reads_the_derived_channel(self):
        table = build_kernel_table(4, 8, 2)
        sites = list(itertools.product(range(-2, 3), repeat=4))
        for a, b in itertools.product(range(1, 5), repeat=2):
            arr = channel_array(table, a, b)
            for z in sites:
                assert gamma(table, a, b, z) == arr[tuple(c + 2 for c in z)]

    @pytest.mark.parametrize("d, N", [(2, 16), (3, 12), (4, 8)])
    def test_folded_quadrature_matches_full_grid(self, d, N):
        sites = [(1,) + (0,) * (d - 1), (-2, 1) + (0,) * (d - 2), (0, -1) + (3,) * (d - 2)]
        for a, b in itertools.product(range(1, d + 1), repeat=2):
            for z in sites:
                folded = direct_quadrature(d, N, z, a, b)
                assert abs(folded - _full_grid_quadrature(d, N, z, a, b)) <= 1e-15, (a, b, z)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_slabs_match_one_shot_contraction_at_defaults(self, d):
        N, R = DEFAULTS[d]
        grids = [(N, [np.arange(-R, R + 1)] * d), (2 * N, [np.arange(-2, 3)] * d)]  # box, probe
        for n, sites in grids:
            for a, b in _BASE:
                want = _one_shot_folded_sum(d, n, a, b, sites)
                assert np.array_equal(_folded_sum(d, n, a, b, sites), want), (n, a, b)

    @pytest.mark.parametrize("d, N, rows", [(2, 102, 10), (3, 26, 4), (4, 14, 2), (3, 200, None)])
    def test_ragged_last_slab_matches_one_shot_contraction(self, d, N, rows, monkeypatch):
        # N/2 = 51, 13, 7 and 100 rows: the last slab takes 11, 5, 3 and 48 of them
        M = N // 2
        if rows is not None:
            monkeypatch.setattr(kernel, "_SLAB", rows * M ** (d - 1))
        step = max(2, kernel._SLAB // M ** (d - 1))
        assert step < M and M % step != 0
        sites = [np.arange(-3, 4)] * d
        for a, b in itertools.product(range(1, d + 1), repeat=2):
            want = _one_shot_folded_sum(d, N, a, b, sites)
            assert np.array_equal(_folded_sum(d, N, a, b, sites), want), (a, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_one_site_lists_match_one_shot_contraction(self, d, rng):
        for N in (2, 8, 14, 32):
            z = [[int(c)] for c in rng.integers(-6, 7, size=d)]
            for a, b in itertools.product(range(1, d + 1), repeat=2):
                want = _one_shot_folded_sum(d, N, a, b, z)
                assert np.array_equal(_folded_sum(d, N, a, b, z), want), (N, z, a, b)

    def test_quadrature_needs_even_resolution(self):
        with pytest.raises(ValueError, match="even"):
            direct_quadrature(2, 15, (1, 0), 1, 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_constants_equal_pinned_values(self, d, request):
        consts, _ = dimension_constants(table=request.getfixturevalue(f"table{d}"))
        got = (consts.H, consts.I1, consts.I2, consts.I, consts.K5)
        for name, value, want in zip(("H", "I1", "I2", "I", "K5"), got, PINNED_CONSTANTS[d]):
            assert abs(value - want) <= 1e-14, name


def _assert_build_peak_within_one_slab(d, N, R):
    """The largest arrays of a build are one slab of the defect probe's
    half-grid at 2N (_SLAB points, two rows of N^(d-1) where a row outgrows
    it, or the whole N^d grid where that is smaller), the row of 1/D terms
    shared by its slabs, and a slab's first contraction, three rows of N: at
    most a quarter of it.  The rest is a few (2R+1)^d boxes: channels,
    powers, shell sums."""
    row = N ** (d - 1)
    slab = min(max(_SLAB, 2 * row), N**d)
    tracemalloc.start()
    try:
        build_kernel_table(d, N, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (1.25 * slab + row + 4 * (2 * R + 1) ** d)


class TestValidationAndCapacity:
    def test_capacity_error(self):
        with pytest.raises(CapacityError, match="feasible N"):
            build_kernel_table(6, 64, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_capacity_error_names_largest_feasible_resolution(self, d):
        feasible = max(n for n in range(8, 6000, 2) if n**d <= GRID_CAP)
        with pytest.raises(CapacityError, match=f"feasible N <= {feasible} for d={d}$"):
            build_kernel_table(d, feasible + 2, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_build_peak_memory_at_defaults(self, d):
        _assert_build_peak_within_one_slab(d, *DEFAULTS[d])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_build_peak_memory_at_refined_grids(self, d):
        _assert_build_peak_within_one_slab(d, *REFINED[d])

    def test_odd_resolution(self):
        with pytest.raises(ValueError):
            build_kernel_table(2, 127, 4)

    def test_radius_too_large(self):
        with pytest.raises(ValueError):
            build_kernel_table(2, 16, 8)
        with pytest.raises(ValueError, match="R must be >= 1"):
            build_kernel_table(2, 16, 0)

    def test_no_default_resolution_past_d5(self):
        with pytest.raises(ValueError, match="no default resolution for d=6"):
            get_kernel_table(6)

    @pytest.mark.parametrize("d", [9, 40, 400])
    def test_no_resolution_fits_past_d8(self, d, capsys):
        # 8^8 = 2^24 is the last smallest grid within GRID_CAP; 8^400 is past float range
        with pytest.raises(CapacityError, match=f"no N >= 8 fits for d={d}$"):
            build_kernel_table(d, 8, 1)
        assert cli.main(["kernel", "--dim", str(d), "--resolution", "8", "--radius", "1"]) == 3
        assert f"no N >= 8 fits for d={d}" in capsys.readouterr().err

    def test_oversized_quadrature_is_refused_before_allocating(self):
        # at d=6, N=64 the folded sum would hold a 32^5 head and a 2-row slab
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="feasible N <= 16 for d=6$"):
                direct_quadrature(6, 64, (1, 0, 0, 0, 0, 0), 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_get_kernel_table_checks_the_dimension_first(self):
        with pytest.raises(ValueError) as built:
            build_kernel_table(1, 8, 1)
        with pytest.raises(ValueError) as got:
            get_kernel_table(1)
        assert str(got.value) == str(built.value) == "dimension must be >= 2"

    def test_low_dimension(self):
        with pytest.raises(ValueError):
            build_kernel_table(1, 64, 4)

    def test_gamma_range_errors(self, table2_small):
        with pytest.raises(ValueError):
            gamma(table2_small, 1, 1, (table2_small.R + 1, 0))
        with pytest.raises(ValueError):
            gamma(table2_small, 0, 1, (0, 0))
        with pytest.raises(ValueError):
            gamma(table2_small, 1, 3, (0, 0))
        with pytest.raises(ValueError, match="2 coordinates"):
            gamma(table2_small, 1, 1, (0,))


class TestShellMachinery:
    def test_shell_radii(self):
        sh = shell_radii(2, 2)
        assert sh[2, 2] == 0
        assert sh[0, 0] == 2
        assert sh[2, 3] == 1
        assert np.sum(sh == 1) == 8

    @pytest.mark.parametrize("which, p", [("table2", 2), ("table2", 4), ("table3", 2),
                                          ("table3", 4), ("table4", 2)])
    def test_tail_fit_matches_polyfit(self, which, p, request):
        table = request.getfixturevalue(which)
        d, R = table.d, table.R
        arr = channel_array(table, 1, 1) ** p
        shells = np.bincount(shell_radii(R, d).ravel(), weights=arr.ravel())
        rs = np.arange(R - 2, R + 1)
        q, logc = np.polyfit(np.log(rs), np.log(np.abs(shells[rs])), 1)
        assert q < -1.0  # a case the fit does not refuse
        expected = np.sign(shells[R]) * np.exp(logc) * zeta(-q, R + 1)
        assert tail_corrected_sum(arr, R, d).tail == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("c, q", [(0.3, -2.5), (-1.7e-4, -4.0), (2.0, -1.2)])
    def test_tail_fit_recovers_power_law(self, c, q):
        # one site per shell carries the whole shell sum c * r^q exactly
        R, d = 6, 2
        arr = np.zeros((2 * R + 1,) * d)
        for r in range(1, R + 1):
            arr[R + r, R] = c * r**q
        expected = c * zeta(-q, R + 1)
        assert tail_corrected_sum(arr, R, d).tail == pytest.approx(expected, rel=1e-12, abs=0)
        for r in range(1, R + 1):
            arr[R + r, R] = c * r**-0.8  # the tail would diverge: refused
        assert tail_corrected_sum(arr, R, d).tail == 0.0

    def test_tail_fit_steep_outer_shells(self):
        # shells falling like r^-400 near R, as when R is close to N/2: the
        # fitted C alone overflows and zeta(400, R + 1) underflows
        R, d, q = 200, 2, -400.0
        arr = np.zeros((2 * R + 1,) * d)
        for r in range(R - 2, R + 1):
            arr[R + r, R] = 1e-3 * (r / R) ** q
        expected = 1e-3 * math.fsum((r / R) ** q for r in range(R + 1, 40 * R))
        assert tail_corrected_sum(arr, R, d).tail == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("N, R", [(512, 255), (2048, 1023)])
    def test_largest_radius_gives_finite_tail_and_constants(self, N, R):
        table = build_kernel_table(2, N, R)
        assert all(math.isfinite(lattice_power_sum(table, 1, a, 2).tail) for a in (1, 2))
        consts, _ = dimension_constants(table=table)
        got = [consts.H, consts.I1, consts.I2, consts.I, consts.K5, *consts.err.values()]
        assert all(math.isfinite(v) for v in got), consts

    def test_hurwitz_zeta_matches_scipy(self):
        s = np.linspace(1.05, 12.0, 111)
        for a in range(2, 60):
            got = [_hurwitz_zeta(float(x), a) for x in s]
            np.testing.assert_allclose(got, zeta(s, a), rtol=1e-14, atol=0, err_msg=f"a={a}")

    def test_tail_sign_guard(self):
        # alternating shells must yield a zero tail estimate
        arr = np.zeros((9, 9))
        sh = shell_radii(4, 2)
        for r in range(1, 5):
            arr[sh == r] = (-1.0) ** r
        assert tail_corrected_sum(arr, 4, 2).tail == 0.0


class TestCache:
    def test_roundtrip(self, table2_small, tmp_path):
        path = tmp_path / "table.bin"
        save_table(table2_small, path)
        loaded = load_table(path)
        assert (loaded.d, loaded.N, loaded.R) == (
            table2_small.d,
            table2_small.N,
            table2_small.R,
        )
        assert loaded.quad_defect == table2_small.quad_defect
        for key, arr in table2_small.values.items():
            assert np.array_equal(loaded.values[key], arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_table(path)

    def test_file_holds_the_two_base_channels(self, table2_small, tmp_path):
        path = tmp_path / "table.bin"
        save_table(table2_small, path)
        box = (2 * table2_small.R + 1) ** 2
        assert path.stat().st_size == 28 + 2 * 8 * box
        assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]

    def test_failed_write_keeps_the_old_file(self, table2_small, tmp_path):
        path = tmp_path / "table.bin"
        save_table(table2_small, path)
        # the header goes out, then the missing (1, 2) channel stops the write
        broken = replace(table2_small, values={(1, 1): table2_small.values[(1, 1)]})
        with pytest.raises(KeyError):
            save_table(broken, path)
        assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]
        _assert_same_table(load_table(path), table2_small)

    def test_failed_first_write_leaves_no_file(self, table2_small, tmp_path):
        broken = replace(table2_small, values={(1, 1): table2_small.values[(1, 1)]})
        with pytest.raises(KeyError):
            save_table(broken, tmp_path / "table.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "truncated_body", "short_header", "v1_file", "v2_file", "bad_magic",
         "huge_d", "other_key"],
    )
    def test_unreadable_cache_file_heals(self, damage, tmp_path, monkeypatch):
        monkeypatch.setenv("HOMOGENIZE_CACHE_DIR", str(tmp_path))
        path = tmp_path / "kernel_d3_N16_R4.bin"
        fresh = build_kernel_table(3, 16, 4)
        save_table(fresh, path)
        data = path.read_bytes()
        if damage == "other_key":
            save_table(build_kernel_table(3, 16, 3), path)
        else:
            path.write_bytes({
                "truncated": data[:-100],
                "truncated_body": data[:-96],  # whole float64s: refused by its length
                "short_header": data[:20],
                "v1_file": _v1_file_bytes(fresh),
                "v2_file": _v2_file_bytes(fresh),
                "bad_magic": b"NOPE" + data[4:],
                "huge_d": data[:8] + struct.pack("<I", 4_000_000_000) + data[12:],
            }[damage])
        _assert_same_table(get_kernel_table(3, 16, 4), fresh)
        _assert_same_table(load_table(path), fresh)

    def test_header_with_odd_resolution_is_corrupt(self, tmp_path):
        path = tmp_path / "table.bin"
        save_table(build_kernel_table(2, 16, 3), path)
        data = path.read_bytes()
        path.write_bytes(data[:12] + struct.pack("<I", 17) + data[16:])  # N, after d
        with pytest.raises(ValueError, match=r"corrupt kernel table header \(d=2, N=17, R=3\)"):
            load_table(path)

    def test_get_kernel_table_uses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOMOGENIZE_CACHE_DIR", str(tmp_path))
        a = get_kernel_table(2, 64, 5)
        assert (tmp_path / "kernel_d2_N64_R5.bin").exists()
        b = get_kernel_table(2, 64, 5)
        for key in a.values:
            assert np.array_equal(a.values[key], b.values[key])
