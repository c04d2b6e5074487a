"""Closed-form profiles, their mass law, multipliers and critical points."""

import warnings

import numpy as np
import pytest

from multibump.errors import CriticalExponentError, PreconditionError
from multibump.grid import Field, GridSpec, inner_l2, translate
from multibump.stationary import (
    ConstrainedCriticalPoint,
    lagrange_multiplier,
    limit_profile,
    profile_coefficient,
)


class TestLimitProfile:
    def test_rejects_bad_exponent(self, grid24):
        with pytest.raises(PreconditionError):
            limit_profile(grid24, 2.0)

    @pytest.mark.parametrize("p,vbar", [(4.0, 1.0), (5.5, 1.0), (8.0, 2.0), (3.0, 2.0)])
    def test_solves_its_equation(self, grid24, p, vbar):
        u = limit_profile(grid24, p, vbar=vbar)
        from multibump.grid import laplacian_apply

        residual = laplacian_apply(u).values + vbar * u.values - u.values ** (p - 1)
        assert np.max(np.abs(residual)) < 1e-8

    def test_peak_and_mass(self, soliton40):
        assert soliton40.values.max() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert inner_l2(soliton40, soliton40) == pytest.approx(4.0, abs=1e-10)

    def test_even_symmetry(self, grid24):
        u = limit_profile(grid24, 4.0)
        vals = u.values
        # x_j and -x_j are both nodes away from the left endpoint
        assert np.array_equal(vals[1:], vals[1:][::-1])

    def test_center_offset(self, grid24):
        u = limit_profile(grid24, 4.0, center=3.0)
        assert grid24.x[np.argmax(u.values)] == pytest.approx(3.0)

    def test_sampled_at_the_periodic_distance(self):
        # centred near the box's edge, the profile wraps round instead of
        # jumping at the antipode of its centre
        grid = GridSpec(4, 256)
        u = limit_profile(grid, 4.0, vbar=0.5, center=3.5)
        assert u.values == pytest.approx(np.roll(limit_profile(grid, 4.0, vbar=0.5).values, 112),
                                         abs=1e-15)

    def test_far_tail_is_zero_without_overflow(self):
        # cosh overflows at this decay rate; sech is 0 there, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = limit_profile(GridSpec(16, 1024), 4.0, vbar=4000.0)
        assert u.values[0] == 0.0 and np.all(np.isfinite(u.values))


class TestProfileCoefficient:
    @pytest.mark.parametrize("p,mass", [(3.0, 0.5), (4.0, 4.5), (5.0, 4.5), (8.0, 2.0),
                                        (9.687, 2.09)])
    def test_profile_has_the_mass(self, p, mass):
        vbar = profile_coefficient(p, mass)
        u = limit_profile(GridSpec(32, 8192), p, vbar=vbar)
        assert inner_l2(u, u) == pytest.approx(mass, rel=1e-10)

    def test_soliton(self):
        # the p = 4 profile at vbar = 1 is sqrt(2) sech x, of mass 4
        assert profile_coefficient(4.0, 4.0) == pytest.approx(1.0, rel=1e-14)

    def test_critical_exponent_raises(self):
        with pytest.raises(CriticalExponentError):
            profile_coefficient(6.0, 2.0)

    @pytest.mark.parametrize("mass", [0.0, -1.0])
    def test_rejects_nonpositive_mass(self, mass):
        with pytest.raises(PreconditionError):
            profile_coefficient(4.0, mass)

    def test_out_of_range_is_zero_or_inf(self):
        # next to p = 6 the mass law is nearly flat in vbar
        assert profile_coefficient(5.9999, 1.0) == profile_coefficient(6.0001, 10.0) == 0.0
        assert profile_coefficient(5.9999, 10.0) == profile_coefficient(6.0001, 1.0) == np.inf


class TestLagrangeMultiplier:
    def test_soliton_zero(self, soliton40, V1, f4):
        assert abs(lagrange_multiplier(soliton40, V1, f4)) < 1e-8

    def test_linear_eigenfunction_exact(self, grid24, vcos, zero_f):
        # with the nonlinearity off, an eigenfunction returns its eigenvalue
        k = 2 * np.pi / grid24.L
        u = Field.from_function(grid24, lambda x: np.cos(k * x))
        lam = lagrange_multiplier(u, vcos, zero_f)
        from multibump.model import l2_residual as strong

        r = strong(u, lam, vcos, zero_f)
        assert inner_l2(r, u) == pytest.approx(0.0, abs=1e-10)

    def test_translation_invariance(self, soliton24, vcos, f4):
        lam = lagrange_multiplier(soliton24, vcos, f4)
        shifted = lagrange_multiplier(translate(soliton24, 5), vcos, f4)
        assert shifted == pytest.approx(lam, rel=1e-12, abs=1e-12)

    def test_zero_field_raises(self, grid24, vcos, f4):
        with pytest.raises(PreconditionError):
            lagrange_multiplier(Field.zeros(grid24), vcos, f4)


class TestConstrainedCriticalPoint:
    def test_certify_passes_for_refined_point(self, ubar):
        ubar.certify()

    def test_certify_rejects_sloppy_point(self, grid24, vcos, f4):
        rough = limit_profile(grid24, 4.0, center=0.5)
        point = ConstrainedCriticalPoint.measure(rough, 0.0, 4.0, vcos, f4)
        with pytest.raises(PreconditionError):
            point.certify()

    def test_user_gauge_multiplier(self, ubar):
        assert ubar.lam_user == ubar.lam  # no shift was applied
        shifted = ConstrainedCriticalPoint(
            u=ubar.u, lam=ubar.lam + 2.0, mass=ubar.mass,
            l2_residual_norm=0.0, constraint_violation=0.0, potential_shift=2.0,
        )
        assert shifted.lam_user == pytest.approx(ubar.lam)


def test_refined_point_satisfies_sign_test(ubar, vcos, f4):
    # the second-derivative form is negative on the wave at any critical point
    from multibump.model import hessian_form

    form = hessian_form(ubar.u, ubar.lam, vcos, f4)
    assert form(ubar.u, ubar.u) < 0
