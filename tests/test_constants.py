"""Dimension constants against their published values and internal identities."""

import numpy as np
import pytest

from homogenize import (
    build_kernel_table,
    dimension_constants,
    h_strictly_decreasing,
    k5_via_H,
)
from homogenize.kernel import KernelTable, lattice_power_sum


class TestPublishedValues:
    def test_H2_is_one(self, const2):
        assert const2.H == pytest.approx(1.0, abs=1e-3)
        assert const2.err["H"] < 1e-3

    def test_H3(self, const3):
        assert const3.H == pytest.approx(0.923, abs=5e-3)

    def test_I1_I2_I_d2(self, const2):
        assert const2.I1 == pytest.approx(0.06391, abs=5e-4)
        assert const2.I2 == pytest.approx(0.00439, abs=5e-4)
        assert const2.I == pytest.approx(0.0683, abs=1e-3)
        assert const2.I1 > 0 and const2.I2 > 0

    def test_K5_d2_reduces_to_I(self, const2):
        # the dimension-dependent terms vanish in 2D
        assert const2.K5 == pytest.approx(const2.I, abs=1e-3)
        assert const2.K5 == pytest.approx(0.0683, abs=1e-3)


class TestConsistency:
    @pytest.mark.parametrize("which", ["d2", "d3"])
    def test_two_routes_to_K5(self, which, const2, const3):
        consts = {"d2": const2, "d3": const3}[which]
        combined = max(2 * consts.err["K5"], 1e-9)
        assert consts.K5 == pytest.approx(k5_via_H(consts), abs=combined)

    def test_monotonicity_helper(self):
        assert h_strictly_decreasing([1.0, 0.923, 0.874, 0.846])
        assert not h_strictly_decreasing([1.0, 0.95, 0.95])

    def test_computed_H_sequence_decreases(self, const2, const3):
        # d = 4, 5 are exercised in the acceptance suite; the trend must
        # already show between 2 and 3
        assert const2.H > const3.H

    def test_errors_are_reported(self, const3):
        assert set(const3.err) == {"H", "I1", "I2", "I", "K5"}
        assert all(v >= 0 for v in const3.err.values())


class TestFormulaReduction:
    def test_K5_on_null_table(self):
        # all-zero kernel: the off-origin cube sum and I vanish, leaving the
        # rational term alone
        d, R = 3, 2
        shape = (2 * R + 1,) * d
        values = {
            (a, b): np.zeros(shape) for a in range(1, d + 1) for b in range(a, d + 1)
        }
        table = KernelTable(d=d, N=16, R=R, values=values, quad_defect=0.0)
        consts, _ = dimension_constants(table=table)
        assert consts.I == 0.0
        assert consts.K5 == pytest.approx(3 * (d - 2) / d**4, abs=1e-15)

    def test_compute_H_and_I_on_shared_table(self, table2):
        consts, _ = dimension_constants(table=table2)
        assert consts.H == pytest.approx(1.0, abs=1e-3)
        assert consts.I == pytest.approx(consts.I1 + consts.I2, abs=1e-15)
        assert consts.err["H"] >= 0 and consts.err["I"] >= 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_shared_cube_sum_changes_no_bit(self, d, request):
        table = request.getfixturevalue(f"table{d}")
        consts, _ = dimension_constants(table=table)
        box = lattice_power_sum(table, 1, 1, 3)
        assert consts.H == -(d**3) * (box.value + box.tail)
        off = lattice_power_sum(table, 1, 1, 3, include_origin=False)
        s3 = off.value + off.tail
        assert consts.K5 == 3.0 * (d - 2) / d**4 + consts.I - (4.0 / d) * s3

    def test_dimension_mismatch_guard(self, table3):
        consts, table = dimension_constants(table=table3)
        assert consts.d == 3 and table is table3

    def test_conflicting_dimension_refused(self, table2):
        with pytest.raises(ValueError, match="d=3"):
            dimension_constants(3, table=table2)
        consts, _ = dimension_constants(2, table=table2, N=table2.N, R=table2.R)
        assert consts.d == 2

    def test_conflicting_resolution_refused(self, table2):
        with pytest.raises(ValueError, match="N=64"):
            dimension_constants(table=table2, N=64)

    def test_conflicting_radius_refused(self, table2):
        with pytest.raises(ValueError, match="R=8"):
            dimension_constants(table=table2, R=8)


#: Grids refined from DEFAULTS in both N and R.
REFINED = {2: (1024, 48), 3: (128, 16), 4: (48, 8), 5: (24, 5)}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_err_covers_the_change_on_a_refined_grid(d, request):
    coarse = request.getfixturevalue(f"const{d}")
    fine, _ = dimension_constants(table=build_kernel_table(d, *REFINED[d]))
    for name in ("H", "I1", "I2", "I", "K5"):
        change = abs(getattr(coarse, name) - getattr(fine, name))
        assert change <= coarse.err[name], (name, change, coarse.err[name])
