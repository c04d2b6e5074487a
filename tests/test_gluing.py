"""Superposition, the extended functional, bordered solves and gluing."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from multibump import cli, gluing
from multibump.errors import (
    AssumptionViolationError,
    ContinuationNeededError,
    CriticalExponentError,
    DegenerateSuperpositionError,
    GluingFailedError,
    LinearSolverError,
    PreconditionError,
)
from multibump.gluing import (
    BumpConfig,
    ExtendedPoint,
    bordered_sigma_min,
    extended_gradient,
    extended_gradient_norm,
    glue,
    ground_state,
    newton_correct,
    shadowing_certificate,
    superpose,
)
from multibump.grid import (
    Field,
    FourierOperator,
    GridSpec,
    inner_h1v,
    inner_l2,
    norm_h1,
    operator_bottom_eigenvalue,
    translate,
)
from multibump.model import Nonlinearity, Potential, energy
from multibump.semiclassical import rescaled_solve
from multibump.spectra import classify


class TestBumpConfig:
    def test_separation(self):
        cfg = BumpConfig(3, (-8, 0, 9))
        assert cfg.separation == 8

    def test_single_bump_sentinel(self):
        assert BumpConfig(1, (0,)).separation == np.inf

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BumpConfig(2, (3, 3))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            BumpConfig(2, (0.5, 3))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            BumpConfig(2, (0, 1, 2))


class TestSuperpose:
    def test_single_bump_identity(self, soliton24):
        out = superpose(soliton24, BumpConfig(1, (0,)))
        assert np.array_equal(out.values, soliton24.values)

    def test_two_bump_mass_oracle(self, soliton24):
        # |v|_2^2 = 2 |u|_2^2 + 2 (T_{-6} u, T_6 u)_2 with the cross term
        # given by the tail-overlap integral 2 * 24 / sinh(12)
        v = superpose(soliton24, BumpConfig(2, (-6, 6)))
        cross_oracle = 2.0 * quad(
            lambda x: 2.0 / (np.cosh(x - 6) * np.cosh(x + 6)), -24, 24
        )[0]
        assert cross_oracle == pytest.approx(2 * 2 * 24 / np.sinh(12.0), rel=1e-8)
        mass = inner_l2(v, v)
        assert mass == pytest.approx(2 * inner_l2(soliton24, soliton24) + cross_oracle,
                                     abs=1e-10)
        assert cross_oracle < 2e-3  # tail-overlap scale exp(-12)

    def test_translation_commutes(self, soliton24):
        cfg = BumpConfig(2, (-6, 6))
        shifted_cfg = BumpConfig(2, (-5, 7))
        lhs = superpose(soliton24, shifted_cfg)
        rhs = translate(superpose(soliton24, cfg), 1)
        assert np.array_equal(lhs.values, rhs.values)

    def test_boundary_guard(self, soliton24):
        with pytest.raises(PreconditionError):
            superpose(soliton24, BumpConfig(2, (-23, 23)))


class TestExtendedGradient:
    def test_zero_at_critical_point(self, ubar, vcos, f4):
        g_field, g_scalar = extended_gradient(
            ExtendedPoint(ubar.u, ubar.lam), ubar.mass, vcos, f4
        )
        assert np.sqrt(max(inner_h1v(g_field, g_field, vcos), 0)) < 1e-9
        assert abs(g_scalar) < 1e-11

    def test_scalar_component_exact(self, soliton24, vcos, f4):
        alpha = inner_l2(soliton24, soliton24)
        _, g_scalar = extended_gradient(ExtendedPoint(soliton24, 0.1), alpha, vcos, f4)
        assert g_scalar == 0.0

    def test_finite_difference_consistency(self, ubar, vcos, f4, smooth_field):
        # directional derivative of G matches the gradient pairing, O(t^2)
        grid = ubar.u.grid
        alpha = ubar.mass
        u, lam = ubar.u, ubar.lam + 0.05
        pt = ExtendedPoint(u, lam)
        g_field, g_scalar = extended_gradient(pt, alpha, vcos, f4)

        def G(uu, ll):
            return energy(uu, vcos, f4) - 0.5 * ll * (inner_l2(uu, uu) - alpha)

        rng = np.random.default_rng(0)
        for seed in range(5):
            v = smooth_field(grid, seed=100 + seed)
            mu = float(rng.standard_normal())
            pairing = inner_h1v(g_field, v, vcos) + g_scalar * mu
            errs = []
            for t in (1e-4, 5e-5):
                fd = (G(u + t * v, lam + t * mu) - G(u - t * v, lam - t * mu)) / (2 * t)
                errs.append(abs(fd - pairing))
            assert errs[1] < errs[0] / 2.0 + 1e-12
            assert errs[0] < 1e-6


class TestGroundState:
    def test_finds_local_minimizer(self, ubar, grid24, vcos):
        assert ubar.constraint_violation < 1e-10
        # multiplier sits below the operator's spectrum bottom
        assert ubar.lam < operator_bottom_eigenvalue(vcos, grid24)
        assert ubar.u.values.min() > 0

    def test_mass_exact(self, ubar):
        assert abs(inner_l2(ubar.u, ubar.u) - 4.5) < 1e-12 * 4.5

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_rejects_nonpositive_mass(self, grid24, vcos, f4, alpha):
        with pytest.raises(PreconditionError):
            ground_state(grid24, alpha, vcos, f4)

    def test_supercritical_bump(self, vcos):
        # p = 8: the bump is a saddle on the sphere, not the flat state
        f8 = Nonlinearity(8.0)
        point = ground_state(GridSpec(8, 512), 2.0, vcos, f8, center=0.5)
        point.certify()
        assert point.lam == pytest.approx(-0.60294, abs=1e-5)
        report = classify(point.u, point.lam, vcos, f8)
        assert (report.m, report.m_f) == (1, 1)

    def test_supercritical_chain(self, vcos):
        f8 = Nonlinearity(8.0)
        base = ground_state(GridSpec(24, 1536), 2.5, vcos, f8, center=0.5)
        result = glue(base, BumpConfig(2, (-4, 4)), 5.0, vcos, f8)
        report = classify(result.point.u, result.point.lam, vcos, f8)
        assert (report.m, report.m_f) == (2, 2)

    def test_bump_stays_at_a_maximum_of_the_potential(self):
        # center 0.5 is the top of V = 1.3 - 0.3 cos(2 pi x): Newton keeps the
        # bump there, a saddle with one negative direction
        V, f5, grid = Potential.cosine(-0.3, shift=0.3), Nonlinearity(5.0), GridSpec(4, 256)
        point = ground_state(grid, 4.5, V, f5, center=0.5)
        assert grid.x[np.argmax(point.u.values)] == 0.5
        assert classify(point.u, point.lam, V, f5).m == 1

    def test_wide_state_starts_flat(self, vcos, f4):
        # at mass 0.5 the p = 4 profile decays over 8, the half-width
        point = ground_state(GridSpec(8, 512), 0.5, vcos, f4)
        point.certify()
        assert point.u.values.min() > 0

    def test_unresolved_bump_raises(self):
        # at p = 5 a bump of mass 9 decays over 0.03, under half of h = 0.125
        with pytest.raises(PreconditionError, match="decays over 2.9"):
            ground_state(GridSpec(8, 128), 9.0, Potential.const(1.0), Nonlinearity(5.0))

    def test_critical_exponent_raises(self, vcos):
        with pytest.raises(CriticalExponentError):
            ground_state(GridSpec(8, 512), 2.0, vcos, Nonlinearity(6.0))


class TestGlue:
    def test_single_bump_refinement_is_fixed_point(self, ubar, vcos, f4):
        result = glue(ubar, BumpConfig(1, (0,)), ubar.mass, vcos, f4)
        assert norm_h1(result.point.u - ubar.u) < 1e-8
        assert result.iterations <= 1

    def test_two_bumps_converge_quickly(self, glued_two):
        for d, result in glued_two.items():
            assert result.iterations <= 10
            assert result.point.l2_residual_norm < 1e-8
            assert result.point.constraint_violation < 1e-10
            assert result.point.u.values.min() > 0

    def test_distance_decays_exponentially(self, glued_two):
        ds = np.array(sorted(glued_two))
        logs = np.log([glued_two[d].distance_h1 for d in ds])
        slope, _ = np.polyfit(ds, logs, 1)
        fit = np.poly1d(np.polyfit(ds, logs, 1))(ds)
        ss_res = np.sum((logs - fit) ** 2)
        ss_tot = np.sum((logs - logs.mean()) ** 2)
        assert slope < 0
        assert 1 - ss_res / ss_tot > 0.99

    def test_multiplier_gap_decreases(self, glued_two):
        gaps = [glued_two[d].dlambda for d in sorted(glued_two)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_starting_merit_is_evaluated_once(self, ubar, glued_two, vcos, f4, monkeypatch):
        # the cap check's value is damped_newton's first merit, not recomputed
        cfg = BumpConfig(2, (-6, 6))
        v0 = superpose(ubar.u, cfg).values
        at_start = []
        merit = gluing.extended_gradient_norm

        def counted(pt, *args):
            at_start.append(np.array_equal(pt.u.values, v0))
            return merit(pt, *args)

        monkeypatch.setattr(gluing, "extended_gradient_norm", counted)
        result = glue(ubar, cfg, 9.0, vcos, f4)
        assert at_start.count(True) == 1
        assert len(at_start) == len(result.residual_history)  # one trial per full step
        assert np.array_equal(result.point.u.values, glued_two[12].point.u.values)

    def test_glued_point_keeps_the_base_gauge(self, ubar, glued_two, vcos, f4):
        # the base point as solved for vcos - 2 in the gauge vcos: lam_user
        # is lam - 2 for it and for every point glued from it
        from dataclasses import replace

        shifted = replace(ubar, potential_shift=2.0)
        point = glue(shifted, BumpConfig(2, (-6, 6)), 9.0, vcos, f4).point
        assert np.array_equal(point.u.values, glued_two[12].point.u.values)
        assert point.potential_shift == 2.0
        assert point.lam_user == point.lam - 2.0

    def test_mass_mismatch_rejected(self, ubar, vcos, f4):
        with pytest.raises(PreconditionError):
            glue(ubar, BumpConfig(2, (-6, 6)), 9.5, vcos, f4)

    def test_nonpositive_operator_refused_before_any_solve(self, ubar, vcos, f4, monkeypatch):
        # -Lap + vcos - 2 has its bottom below zero: no metric, no preconditioner
        def solve(*args, **kwargs):
            raise AssertionError("a solve ran before the positivity check")

        monkeypatch.setattr(gluing.gr, "resolvent_solve", solve)
        monkeypatch.setattr(gluing, "newton_correct", solve)
        with pytest.raises(AssumptionViolationError):
            glue(ubar, BumpConfig(2, (-6, 6)), 9.0, vcos.shifted(-2.0), f4)

    def test_overlapping_bumps_fail_loudly(self, ubar, vcos, f4):
        with pytest.raises((GluingFailedError, PreconditionError)):
            glue(ubar, BumpConfig(2, (-1, 1)), 9.0, vcos, f4)

    def test_residual_nonincreasing_in_separation(self, ubar, vcos, f4):
        etas = []
        for d in (8, 10, 12, 14, 16):
            cfg = BumpConfig(2, (-d // 2, d // 2))
            pt = ExtendedPoint(superpose(ubar.u, cfg), ubar.lam)
            etas.append(extended_gradient_norm(pt, 9.0, vcos, f4))
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        # and the decay is exponential to good accuracy
        logs = np.log(etas)
        fit = np.poly1d(np.polyfit([8, 10, 12, 14, 16], logs, 1))([8, 10, 12, 14, 16])
        assert np.max(np.abs(fit - logs)) < 0.2

    def test_conditioning_stable_in_separation(self, ubar, vcos, f4):
        sigmas = {}
        for d in (8, 12, 16):
            cfg = BumpConfig(2, (-d // 2, d // 2))
            pt = ExtendedPoint(superpose(ubar.u, cfg), ubar.lam)
            sigmas[d] = bordered_sigma_min(pt, vcos, f4)
        for d in (12, 16):
            assert sigmas[d] >= 0.5 * sigmas[8]

    def test_unique_point_from_perturbed_restarts(self, ubar, glued_two, vcos, f4,
                                                  smooth_field):
        ref = glued_two[12].point
        v0 = superpose(ubar.u, BumpConfig(2, (-6, 6)))
        rng = np.random.default_rng(5)
        for seed in range(5):
            bump = smooth_field(ubar.u.grid, seed=400 + seed)
            radius = 0.05 * rng.uniform(0.3, 1.0)
            start = ExtendedPoint(v0 + (radius / norm_h1(bump)) * bump, ubar.lam)
            pt, _, _ = newton_correct(start, 9.0, vcos, f4, tol=1e-10)
            assert norm_h1(pt.u - ref.u) < 1e-8


class TestDampedNewtonFailure:
    """The bordered and the free Newton solve share damped_newton's failure
    path: when no step lowers the merit, the third forced step in a row raises."""

    @pytest.fixture
    def null_steps(self, monkeypatch):
        monkeypatch.setattr(gluing, "_solve_bordered", lambda op, rhs, **_: np.zeros_like(rhs))

    def test_bordered_raises_with_history(self, null_steps, ubar, vcos, f4):
        start = ExtendedPoint(superpose(ubar.u, BumpConfig(2, (-6, 6))), ubar.lam)
        with pytest.raises(GluingFailedError, match="3 consecutive") as info:
            newton_correct(start, 9.0, vcos, f4)
        history = info.value.residual_history
        assert len(history) == 3 and history[0] > 1e-10

    def test_free_asks_for_continuation(self, null_steps, grid_semi, vmin_well, tmp_path):
        with pytest.raises(ContinuationNeededError, match="3 consecutive"):
            rescaled_solve(grid_semi, 0.1, vmin_well, 4.0)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "grid": {"L": 20, "M": 1280},
            "potential": {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
            "nonlinearity": {"p": 4.0},
            "semiclassical": {"eps_list": [0.2], "m_V": 0},
        }))
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"),
                         "semiclassical"]) == 4


def test_stalled_solve_stops_after_two_rounds(monkeypatch):
    # the constant right-hand side lies in the kernel of -Lap: no MINRES
    # round lowers the residual, and the second such round ends the solve
    calls = []
    minres = gluing.minres
    monkeypatch.setattr(gluing, "minres", lambda *args, **kwargs: calls.append(1)
                        or minres(*args, **kwargs))
    with pytest.raises(DegenerateSuperpositionError, match="stalled"):
        gluing._solve_bordered(FourierOperator(GridSpec(4, 128), 0.0), np.ones(128))
    assert len(calls) == 2


def _dense_bordered_jacobian(u, lam, V, f):
    """Strong-form bordered Jacobian [[-Lap + V - lam - f'(u), -u], [-u^T, 0]]."""
    from multibump.spectra import linearized_matrix

    M = u.grid.M
    J = np.zeros((M + 1, M + 1))
    J[:M, :M] = linearized_matrix(u, lam, V, f)
    J[:M, M] = J[M, :M] = -u.values
    return J


def _dense_metric(grid, V, zero_f):
    """B = diag(h (-Lap + V), 1), the Gram matrix of the metric h (G v, v) + mu^2."""
    from multibump.spectra import linearized_matrix

    M = grid.M
    B = np.zeros((M + 1, M + 1))
    B[:M, :M] = grid.h * linearized_matrix(Field.zeros(grid), 0.0, V, zero_f)
    B[M, M] = 1.0
    return B


@pytest.fixture(scope="module")
def ubar768(vcos, f4):
    """The single-bump minimizer on GridSpec(24, 768), small enough for dense pencils."""
    from multibump.gluing import ground_state
    from multibump.grid import GridSpec

    return ground_state(GridSpec(24, 768), 4.5, vcos, f4, center=0.5)


def _dense_sigma_min(u, lam, V, f, zero_f):
    """min |eigenvalue| of the pencil (h J, B): J the strong-form bordered
    Jacobian, B = diag(h (-Lap + V), 1) the metric."""
    import scipy.linalg

    J = _dense_bordered_jacobian(u, lam, V, f)
    B = _dense_metric(u.grid, V, zero_f)
    return np.min(np.abs(scipy.linalg.eigh(u.grid.h * J, B, eigvals_only=True)))


class TestBorderedSigmaMin:
    @pytest.mark.parametrize("offsets", [(-4, 4), (-8, 0, 8), (-15, -5, 5, 15), (-9, -2, 6)])
    def test_matches_dense_pencil(self, ubar768, vcos, f4, zero_f, offsets):
        # T is the pencil (h J, B); sigma_min = min |eigenvalue|.  The last
        # configuration is an asymmetric 3-bump
        u = superpose(ubar768.u, BumpConfig(len(offsets), offsets))
        sigma = bordered_sigma_min(ExtendedPoint(u, ubar768.lam), vcos, f4)
        assert sigma == pytest.approx(_dense_sigma_min(u, ubar768.lam, vcos, f4, zero_f),
                                      rel=1e-6)

    def test_matches_dense_pencil_at_p8(self, vcos, f8, zero_f):
        # the p = 8 pair: the single bump is a saddle, m = 1
        ubar = ground_state(GridSpec(24, 768), 2.0, vcos, f8, center=0.5)
        u = superpose(ubar.u, BumpConfig(2, (-4, 4)))
        sigma = bordered_sigma_min(ExtendedPoint(u, ubar.lam), vcos, f8)
        assert sigma == pytest.approx(_dense_sigma_min(u, ubar.lam, vcos, f8, zero_f), rel=1e-6)

    @pytest.mark.parametrize("d", [10, 14])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inexact_inner_solves_keep_sigma(self, ubar768, vcos, f4, zero_f,
                                             monkeypatch, n, d):
        # the same Lanczos run with each metric solve G^{-1} done by a dense
        # LU solve of G = -Lap + V, at roundoff, is the reference
        import scipy.linalg

        from multibump.cli import _symmetric_offsets

        u = superpose(ubar768.u, BumpConfig(n, _symmetric_offsets(n, d)))
        pt = ExtendedPoint(u, ubar768.lam)
        sigma = bordered_sigma_min(pt, vcos, f4)
        M = u.grid.M
        lu = scipy.linalg.lu_factor(_dense_metric(u.grid, vcos, zero_f)[:M, :M] / u.grid.h)
        solves = []

        def dense_solve(self, rhs):
            solves.append(1)
            return scipy.linalg.lu_solve(lu, rhs)

        monkeypatch.setattr(FourierOperator, "solve", dense_solve)
        reference = bordered_sigma_min(pt, vcos, f4)
        assert len(solves) > 10  # one per Lanczos step
        assert sigma == pytest.approx(reference, rel=1e-8)

    def test_refuses_an_unconverged_run(self, ubar768, vcos, f4, monkeypatch):
        # three steps do not resolve the least |eigenvalue|: the residual
        # reached is named, not a Ritz value returned
        monkeypatch.setattr(gluing, "_SIGMA_STEPS", 3)
        pt = ExtendedPoint(superpose(ubar768.u, BumpConfig(2, (-4, 4))), ubar768.lam)
        with pytest.raises(LinearSolverError, match="Ritz residual .* in 3 steps"):
            bordered_sigma_min(pt, vcos, f4)


def test_one_operator_per_potential_and_grid(ubar768, f4, monkeypatch):
    # the resolvent, the H1_V pairing, the spectrum bottom and the gluing
    # metric share one -Lap + V, built once with one fibre build; a second
    # potential equal by value reaches the same operator
    from multibump import grid as gr
    from multibump.semiclassical import scaled_potential

    weights, fibre_builds = [], []

    def counted_init(self, grid, weight, border=None, _original=FourierOperator.__init__):
        if border is None:
            weights.append(weight)
        _original(self, grid, weight, border)

    def counted_fibres(grid, weight, _original=gr._bloch_fibres):
        fibre_builds.append(weight)
        return _original(grid, weight)

    monkeypatch.setattr(FourierOperator, "__init__", counted_init)
    monkeypatch.setattr(gr, "_bloch_fibres", counted_fibres)
    gr.potential_operator.cache_clear()
    V, u, grid = Potential.cosine(0.5), ubar768.u, ubar768.u.grid

    def builds(potential):
        return sum(np.array_equal(w, potential.sample(grid)) for w in weights)

    for _ in range(2):
        gr.resolvent_solve(u, V)
        inner_h1v(u, u, V)
        operator_bottom_eigenvalue(V, grid)
        bordered_sigma_min(ExtendedPoint(superpose(u, BumpConfig(2, (-4, 4))), ubar768.lam),
                           V, f4)
    assert builds(V) == 1 and len(fibre_builds) == 1
    first, second = scaled_potential(V, 0.5), scaled_potential(V, 0.5)
    assert first is not second
    gr.resolvent_solve(u, first)
    operator_bottom_eigenvalue(second, grid)
    assert gr.potential_operator(first, grid) is gr.potential_operator(second, grid)
    assert builds(first) == 1 and len(fibre_builds) == 2


class TestShadowingCertificate:
    def test_exact_point_satisfies_residual_condition(self, ubar, vcos, f4):
        report = shadowing_certificate(
            ExtendedPoint(ubar.u, ubar.lam), ubar.mass, vcos, f4, delta=0.05, q=0.5
        )
        assert report.gradient_norm < 1e-9
        assert report.residual_condition

    def test_separated_superposition_passes(self, ubar, vcos, f4):
        cfg = BumpConfig(2, (-8, 8))
        pt = ExtendedPoint(superpose(ubar.u, cfg), ubar.lam)
        report = shadowing_certificate(pt, 9.0, vcos, f4, delta=0.1, q=0.5)
        assert report.residual_condition and report.lipschitz_condition

    def test_overlapping_superposition_fails_residual(self, ubar, vcos, f4):
        cfg = BumpConfig(2, (-1, 1))
        pt = ExtendedPoint(superpose(ubar.u, cfg), ubar.lam)
        report = shadowing_certificate(pt, 9.0, vcos, f4, delta=0.1, q=0.5)
        assert not report.residual_condition

    def test_rejects_bad_contraction_rate(self, ubar, vcos, f4):
        with pytest.raises(PreconditionError):
            shadowing_certificate(
                ExtendedPoint(ubar.u, ubar.lam), ubar.mass, vcos, f4, delta=0.1, q=1.5
            )

    def test_lipschitz_bound_matches_dense_pencil(self, ubar, vcos, f4, zero_f):
        # D = dT(pt1) - dT(pt0) is the pencil (h J_D, B) with the strong form
        # J_D = [[-diag(f'(u1) - f'(u0) + lam1 - lam0), -(u1 - u0)], [-(u1 - u0)^T, 0]];
        # its norm in the metric is its largest |eigenvalue|.  The five
        # points are the certificate's own samples (seed 0).
        import scipy.linalg

        from multibump.gluing import _difference_operator_norm, _h_norm
        from multibump.grid import FourierOperator, potential_samples

        grid = ubar.u.grid
        M, h = grid.M, grid.h
        pt0 = ExtendedPoint(superpose(ubar.u, BumpConfig(2, (-8, 8))), ubar.lam)
        report = shadowing_certificate(pt0, 9.0, vcos, f4, delta=0.1, q=0.5)
        B = _dense_metric(grid, vcos, zero_f)
        metric = FourierOperator(grid, potential_samples(vcos, grid))
        rng = np.random.default_rng(1)
        samples, norms = [], []
        for _ in range(5):
            direction = Field(grid, rng.standard_normal(M))
            dmu = float(rng.standard_normal())
            nrm = _h_norm(direction, dmu, vcos)
            radius = 0.1 * rng.uniform(0.2, 1.0)
            pt1 = ExtendedPoint(pt0.u + (radius / nrm) * direction,
                                pt0.lam + radius * dmu / nrm)
            du = pt1.u.values - pt0.u.values
            J = np.zeros((M + 1, M + 1))
            J[np.arange(M), np.arange(M)] = -(f4.fprime(pt1.u.values) - f4.fprime(pt0.u.values)
                                              + pt1.lam - pt0.lam)
            J[:M, M] = J[M, :M] = -du
            samples.append(pt1)
            norms.append(np.max(np.abs(scipy.linalg.eigh(h * J, B, eigvals_only=True))))
        assert report.lipschitz_bound == pytest.approx(max(norms), rel=1e-6)
        for i, (pt1, dense) in enumerate(zip(samples, norms)):
            value = _difference_operator_norm(pt0, pt1, metric, f4, seed=2 + i)
            assert value == pytest.approx(dense, rel=1e-6)

    def test_lipschitz_norm_refuses_an_unconverged_run(self, ubar768, vcos, f4, monkeypatch):
        from multibump.gluing import _difference_operator_norm
        from multibump.grid import potential_samples

        monkeypatch.setattr(gluing, "_LANCZOS_STEPS", 3)
        grid = ubar768.u.grid
        pt0 = ExtendedPoint(superpose(ubar768.u, BumpConfig(2, (-4, 4))), ubar768.lam)
        bump = np.exp(-(grid.x - 1.0) ** 2)
        pt1 = ExtendedPoint(pt0.u + 0.01 * Field(grid, bump), pt0.lam + 0.01)
        metric = FourierOperator(grid, potential_samples(vcos, grid))
        with pytest.raises(LinearSolverError, match="Ritz residual .* in 3 steps"):
            _difference_operator_norm(pt0, pt1, metric, f4, seed=2)
