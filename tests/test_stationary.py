"""Closed-form profiles, multipliers, and the normalized flow."""

import numpy as np
import pytest

from multibump.errors import FlowStalledError, PreconditionError
from multibump.grid import Field, inner_l2, operator_bottom_eigenvalue, translate
from multibump.stationary import (
    ConstrainedCriticalPoint,
    lagrange_multiplier,
    limit_profile,
    normalized_flow,
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


class TestNormalizedFlow:
    def test_finds_local_minimizer(self, grid24, vcos, f4):
        guess = limit_profile(grid24, 4.0, center=0.5)
        point = normalized_flow(guess, 4.5, vcos, f4)
        assert point.constraint_violation < 1e-10
        # multiplier sits below the operator's spectrum bottom
        assert point.lam < operator_bottom_eigenvalue(vcos, grid24)
        # positivity of the minimizer
        assert point.u.values.min() > 0

    def test_mass_exact_after_renormalization(self, grid24, vcos, f4, monkeypatch):
        monkeypatch.setattr("multibump.stationary._FLOW_TOL", 1e-4)
        guess = limit_profile(grid24, 4.0, center=0.5)
        point = normalized_flow(guess, 4.5, vcos, f4)
        assert abs(inner_l2(point.u, point.u) - 4.5) < 1e-12 * 4.5

    def test_fixed_point_returns_immediately(self, ubar, vcos, f4, monkeypatch):
        monkeypatch.setattr("multibump.stationary._FLOW_TOL", 1e-5)
        monkeypatch.setattr("multibump.stationary._FLOW_MAX_ITER", 2)
        point = normalized_flow(ubar.u, ubar.mass, vcos, f4)
        assert abs(point.lam - ubar.lam) < 1e-6

    def test_stall_raises_with_residual(self, grid24, vcos, f4, monkeypatch):
        monkeypatch.setattr("multibump.stationary._FLOW_TOL", 1e-14)
        monkeypatch.setattr("multibump.stationary._FLOW_MAX_ITER", 3)
        guess = limit_profile(grid24, 4.0, center=0.5)
        with pytest.raises(FlowStalledError) as err:
            normalized_flow(guess, 4.5, vcos, f4)
        assert err.value.last_residual is not None

    def test_rejects_zero_start(self, grid24, vcos, f4):
        with pytest.raises(PreconditionError):
            normalized_flow(Field.zeros(grid24), 1.0, vcos, f4)


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
