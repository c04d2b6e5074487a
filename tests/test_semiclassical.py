"""Single-peak families, the limit criterion, and index predictions."""

import numpy as np
import pytest

from multibump.errors import (
    CriticalExponentError,
    MassRangeError,
    PreconditionError,
)
from multibump.grid import norm_h1
from multibump.semiclassical import (
    criterion_value,
    morse_check,
    rescaled_solve,
    select_mass_epsilon,
    continue_family,
    translation_mode_estimate,
    z_eps_check,
)
from multibump.stationary import limit_profile


class TestRescaledSolve:
    def test_constant_potential_returns_profile(self, grid_semi, V1):
        # at constant V the problem is translation degenerate: the solve
        # returns the profile up to a sub-grid drift along the orbit
        from multibump.semiclassical import _peak_location

        point = rescaled_solve(grid_semi, 0.1, V1, 4.0)
        shift = _peak_location(point.u)
        assert abs(shift) < 1e-3
        recentered = limit_profile(grid_semi, 4.0, center=shift)
        assert norm_h1(point.u - recentered) < 1e-7
        assert point.lam == 0.0

    def test_concentration_near_origin(self, family_min_p4):
        for member in family_min_p4.members:
            assert abs(member.x_peak) < 0.5

    def test_residuals(self, family_min_p4):
        for member in family_min_p4.members:
            assert member.point.l2_residual_norm < 1e-10

    def test_rejects_unnormalized_potential(self, grid_semi, vcos):
        # vcos has V(0) = 1.5
        with pytest.raises(PreconditionError):
            rescaled_solve(grid_semi, 0.1, vcos, 4.0)


class TestContinueFamily:
    def test_newton_step_budget(self, family_min_p4):
        assert all(m.newton_iters <= 8 for m in family_min_p4.members)

    def test_unrescaled_masses_decreasing(self, family_min_p4):
        masses = family_min_p4.unrescaled_masses
        assert np.all(np.diff(masses) < 0)

    def test_profile_gap_shrinks(self, family_min_p4):
        gaps = [m.h1_gap_to_profile for m in family_min_p4.members]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_nondescending_eps(self, grid_semi, vmin_well):
        with pytest.raises(PreconditionError):
            continue_family(grid_semi, [0.1, 0.2], vmin_well, 4.0)


class TestCriterionValue:
    @pytest.mark.parametrize("p", [4.0, 5.5, 6.5, 8.0])
    def test_matches_closed_form(self, p):
        result = criterion_value(p)
        assert result.relative_error < 1e-4

    def test_p4_anchor(self):
        # (1/4 - 1/2) * 4 = -1
        result = criterion_value(4.0)
        assert result.analytic == pytest.approx(-1.0, abs=1e-9)
        assert result.numeric == pytest.approx(-1.0, abs=1e-4)

    def test_sign_flip_across_critical_exponent(self):
        assert criterion_value(5.5).numeric < 0
        assert criterion_value(6.5).numeric > 0

    def test_critical_exponent_rejected(self):
        with pytest.raises(CriticalExponentError):
            criterion_value(6.0)


class TestZEpsCheck:
    def test_signs_subcritical(self, family_min_p4):
        for row in z_eps_check(family_min_p4):
            assert np.sign(row["pairing"]) == row["expected_sign"] == -1.0

    def test_signs_supercritical(self, family_min_p8):
        for row in z_eps_check(family_min_p8):
            assert np.sign(row["pairing"]) == row["expected_sign"] == 1.0

    def test_convergence_to_limit(self, grid_semi, vmin_well):
        # the asymptotic regime: the gap to the limit decays along the family
        family = continue_family(grid_semi, [0.4, 0.2, 0.1], vmin_well, 4.0)
        rows = z_eps_check(family)
        assert not any(row["flagged"] for row in rows)
        gaps = [row["gap_to_limit"] for row in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_h2_rate_bounded(self, family_min_p4):
        from multibump.semiclassical import h2_rate_table

        ratios = [row["ratio_to_eps2"] for row in h2_rate_table(family_min_p4)]
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 10 * min(ratios)


class TestTranslationMode:
    def test_ratio_approaches_one(self, family_min_p4):
        rows = translation_mode_estimate(family_min_p4)
        assert abs(rows[-1]["ratio"] - 1.0) < 0.10
        # and it improves along the family
        errs = [abs(r["ratio"] - 1.0) for r in rows]
        assert errs[0] > errs[-1]

    def test_sign_follows_curvature(self, family_min_p4, family_max_p4):
        for row in translation_mode_estimate(family_min_p4):
            assert row["rayleigh"] > 0
        for row in translation_mode_estimate(family_max_p4):
            assert row["rayleigh"] < 0

    def test_constant_potential_exact_kernel(self, grid_semi, V1):
        family = continue_family(grid_semi, [0.1], V1, 4.0)
        rows = translation_mode_estimate(family)
        assert abs(rows[0]["rayleigh"]) < 1e-8


class TestMorseCheck:
    def test_minimum_subcritical(self, family_min_p4):
        for row in morse_check(family_min_p4, m_V=0):
            if row["flagged"]:
                continue
            assert row["m_f"] == row["expected_m_f"] == 1
            assert row["m"] == row["expected_m"] == 0

    def test_minimum_supercritical(self, family_min_p8):
        for row in morse_check(family_min_p8, m_V=0):
            if row["flagged"]:
                continue
            assert row["m_f"] == 1
            assert row["m"] == 1

    def test_maximum_subcritical(self, family_max_p4):
        rows = [row for row in morse_check(family_max_p4, m_V=1) if not row["flagged"]]
        assert rows, "every row was flagged"
        for row in rows:
            assert row["m_f"] == 2
            assert row["m"] == 1

    def test_tables_share_one_eigensolve_per_member(self, grid_semi, vmin_well,
                                                    eigensolve_sizes, monkeypatch):
        from multibump import spectra

        blocks = []
        original = spectra._lowest_ritz

        def counted(op, start, tol, constraint, settled):
            blocks.append(constraint is None)
            return original(op, start, tol, constraint, settled)

        monkeypatch.setattr(spectra, "_lowest_ritz", counted)
        family = continue_family(grid_semi, [0.2, 0.1], vmin_well, 4.0)
        z_eps_check(family)
        morse_check(family, m_V=0)
        # one LOBPCG block of L per member, shared by both tables; nothing
        # dense but LOBPCG's Rayleigh-Ritz solves
        assert blocks == [True] * len(family.members)
        assert eigensolve_sizes and max(eigensolve_sizes) < grid_semi.M // 4


class TestSelectMassEpsilon:
    def test_matches_target_mass(self, family_min_p4):
        target_eps = 0.12
        # build a self-consistent target from the curve itself
        masses = family_min_p4.unrescaled_masses
        alpha = 2 * float(np.interp(target_eps, family_min_p4.eps_values[::-1],
                                    masses[::-1]))
        eps_n, point = select_mass_epsilon(alpha, 2, family_min_p4)
        assert abs(eps_n * point.mass - alpha / 2) < 1e-8

    def test_out_of_range_rejected(self, family_min_p4):
        with pytest.raises(MassRangeError) as err:
            select_mass_epsilon(100.0, 2, family_min_p4)
        assert err.value.mass_range is not None

    def test_mass_curve_monotone(self, family_min_p4):
        masses = family_min_p4.unrescaled_masses
        assert np.all(np.diff(masses) < 0)
