"""Morse counts, the pairing criterion, classification, and instability."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from pencil_oracle import dense_pencil, householder_vector, tangent_block

from multibump import grid as gr
from multibump import model as md
from multibump import spectra
from multibump.errors import (
    NoInstabilityDetected,
    NotFreelyNondegenerateError,
    PositivityViolationError,
    PreconditionError,
    UncertifiedCountError,
)
from multibump.gluing import BumpConfig, glue
from multibump.grid import (
    Field,
    FourierOperator,
    GridSpec,
    RitzBlock,
    inner_l2,
    operator_bottom_eigenvalue,
    potential_samples,
    resolvent_solve,
    translate,
)
from multibump.model import Potential, hessian_form
from multibump.spectra import (
    Linearization,
    SpectralReport,
    classify,
    instability_eigenvalue,
    linearized_matrix,
)


@dataclass(frozen=True)
class ZTranslateReport:
    """Locality check of z at a multibump point against the single-bump z."""

    window_error: float
    scalar_discrepancy: float
    scalar_glued: float
    scalar_expected: float


def z_translate_check(ubar, glued, cfg, V, f) -> ZTranslateReport:
    """Compare back-translated z of the glued point with the single-bump z.

    Returns the worst L2 error over the bumps, in the window |x| <=
    min(separation, L) / 2, and the mismatch of (u_glued, z_glued)_2
    against n * (ubar, z_ubar)_2.
    """
    grid = glued.u.grid
    z_bar = Linearization.assemble(ubar.u, ubar.lam, V, f).z
    z_glued = Linearization.assemble(glued.u, glued.lam, V, f).z
    mask = np.abs(grid.x) <= min(cfg.separation, grid.L) / 2.0  # one bump: separation inf
    worst = 0.0
    for a in cfg.offsets:
        back = translate(z_glued, -a)
        diff = (back.values - z_bar.values)[mask]
        worst = max(worst, float(np.sqrt(grid.h * np.sum(diff**2))))
    scalar_glued = inner_l2(glued.u, z_glued)
    scalar_expected = cfg.n * inner_l2(ubar.u, z_bar)
    return ZTranslateReport(
        window_error=worst,
        scalar_discrepancy=abs(scalar_glued - scalar_expected),
        scalar_glued=scalar_glued,
        scalar_expected=scalar_expected,
    )


class TestLinearizedMatrix:
    def test_reflectionless_well_spectrum(self, grid24, V1, f4, soliton24):
        # -dxx + 1 - 6 sech^2 has bound states at -3 and 0
        L = linearized_matrix(soliton24, 0.0, V1, f4)
        low = scipy.linalg.eigh(L, subset_by_index=(0, 1), eigvals_only=True)
        assert low[0] == pytest.approx(-3.0, abs=1e-6)
        assert low[1] == pytest.approx(0.0, abs=1e-6)

    def test_symmetric(self, grid24, vcos, f4, smooth_field):
        u = smooth_field(grid24, seed=3)
        L = linearized_matrix(u, 0.1, vcos, f4)
        assert np.max(np.abs(L - L.T)) < 1e-12

    def test_linear_hook_bottom(self, grid24, vcos, zero_f, smooth_field):
        u = smooth_field(grid24, seed=4)
        L = linearized_matrix(u, 0.3, vcos, zero_f)
        low = scipy.linalg.eigh(L, subset_by_index=(0, 0), eigvals_only=True)[0]
        assert low == pytest.approx(operator_bottom_eigenvalue(vcos, grid24) - 0.3, abs=1e-8)

    def test_quadratic_form_matches_hessian(self, grid24, vcos, f4, smooth_field):
        u = smooth_field(grid24, seed=5)
        L = linearized_matrix(u, 0.2, vcos, f4)
        form = hessian_form(u, 0.2, vcos, f4)
        for seed in range(5):
            v = smooth_field(grid24, seed=600 + seed)
            quad_form = grid24.h * float(v.values @ L @ v.values)
            assert quad_form == pytest.approx(form(v, v), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("M", [768, 1536])
    def test_bit_identical_to_symmetrized_circulant(self, M, vcos, f4, smooth_field):
        # the plain two-matrix form, written out: the table must not move by a bit
        grid = GridSpec(24, M)
        u = smooth_field(grid, seed=7)
        C = scipy.linalg.circulant(np.fft.irfft(grid.wavenumbers**2, n=M))
        expected = 0.5 * (C + C.T)
        expected.flat[:: M + 1] += potential_samples(vcos, grid) - 0.1 - f4.fprime(u.values)
        L = linearized_matrix(u, 0.1, vcos, f4)
        assert np.array_equal(L, expected)
        assert np.array_equal(L, L.T)

    def test_one_matrix_allocated_and_none_kept(self, vcos, f4, smooth_field):
        # a grid no other test builds a matrix on, so nothing is warm
        grid = GridSpec(12, 1152)
        u = smooth_field(grid, seed=8)
        matrix_bytes = 8 * grid.M**2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            L = linearized_matrix(u, 0.1, vcos, f4)
            peak = tracemalloc.get_traced_memory()[1] - start
            del L
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * matrix_bytes
        assert kept <= 0.01 * matrix_bytes


def _projected_eigenvalues(L, u_vals):
    """Eigenvalues of L on the complement of u, from a dense orthonormal basis."""
    Q = scipy.linalg.null_space(u_vals[None, :])
    return np.linalg.eigvalsh(Q.T @ L @ Q)


# the pinned example of test_matches_dense_oracle
_PINNED_WELL = {"seed": 3652725608, "depth": 13.979918075538166}


def _random_well(seed, depth, grid=GridSpec(4, 128)):
    """(u, w, rng): -Lap + w on grid with a random smooth well w (a few
    negative eigenvalues), a smooth u, and the generator for more draws."""
    rng = np.random.default_rng(seed)

    def smooth(decay):
        n = grid.M // 2 + 1
        modes = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.fft.irfft(modes * np.exp(-np.arange(n) / decay), n=grid.M)

    w = smooth(4.0)
    w = depth * (w / np.max(np.abs(w)) - rng.uniform(0.0, 1.0))
    return Field(grid, smooth(6.0)), w, rng


class TestDenseSpectrum:
    @staticmethod
    def _solve(w, zero_f):
        """dense_spectrum of -Lap + w, with the order and the BLAS thread count
        of each eigvalsh it runs."""
        u = Field(GridSpec(4, len(w)), np.zeros(len(w)))
        control = gr._blas_thread_control()  # None where the table is refused
        calls = []

        def counted(a, _original=np.linalg.eigvalsh):
            calls.append((len(a), control[0]()))
            return _original(a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counted)
            values = spectra.dense_spectrum(u, 0.0, w, zero_f)
        return u, values, calls

    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), depth=hst.floats(0.5, 30.0),
           half=hst.sampled_from([32, 33, 48, 49]),
           centre=hst.sampled_from(["grid point", "half-grid point", "none"]))
    def test_matches_the_full_matrix(self, seed, depth, half, centre, zero_f):
        # wells even about a grid point (s even), about a half-grid point (s
        # odd) or about no point, with M/2 even and odd
        M = 2 * half
        _, w, rng = _random_well(seed, depth, GridSpec(4, M))
        s = 2 * int(rng.integers(half)) + (centre == "half-grid point")
        if centre != "none":
            w = 0.5 * (w + w[(s - np.arange(M)) % M])
        u, values, calls = self._solve(w, zero_f)
        full = np.linalg.eigvalsh(linearized_matrix(u, 0.0, w, zero_f))
        assert np.max(np.abs(values - full)) <= 1e-10 * max(1.0, np.max(np.abs(full)))
        assert np.all(np.diff(values) >= 0)
        orders = {"grid point": [half + 1, half - 1], "half-grid point": [half, half],
                  "none": [M]}[centre]
        assert calls == [(order, 1) for order in orders]  # each solve on one thread

    def test_restores_the_thread_count(self, zero_f):
        get_threads, set_threads = gr._blas_thread_control()
        before = get_threads()
        _, w, _ = _random_well(0, 10.0)
        try:
            set_threads(2)
            self._solve(w, zero_f)
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_refuses_without_the_thread_control(self, zero_f, monkeypatch):
        # a BLAS that cannot be pinned would make the table depend on the
        # thread count: the solve is refused, not run
        monkeypatch.setattr(gr, "_BLAS_THREADS", ("no_get_num_threads", "no_set_num_threads"))
        gr._blas_thread_control.cache_clear()
        _, w, _ = _random_well(0, 10.0)
        try:
            with pytest.raises(PreconditionError, match="one BLAS thread"):
                self._solve(w, zero_f)
        finally:
            gr._blas_thread_control.cache_clear()


class TestMorseCounts:
    def test_soliton_free_count(self, soliton24, V1, f4):
        count = Linearization.assemble(soliton24, 0.0, V1, f4).free
        assert count.count == 1
        # the translation mode sits inside the zero threshold and is flagged
        assert count.provisional and len(count.near_zero) == 1

    def test_positive_operator_free_count(self, grid24, vcos, zero_f, smooth_field):
        u = smooth_field(grid24, seed=6)
        count = Linearization.assemble(u, -0.5, vcos, zero_f).free
        assert count.count == 0 and not count.provisional

    def test_local_min_counts(self, ubar, vcos, f4):
        lin = Linearization.assemble(ubar.u, ubar.lam, vcos, f4)
        assert lin.constrained.count == 0
        assert lin.free.count == 1

    def test_glued_counts(self, glued_two, glued_three, vcos, f4):
        for n, point in ((2, glued_two[12].point), (3, glued_three.point)):
            lin = Linearization.assemble(point.u, point.lam, vcos, f4)
            assert lin.constrained.count == n - 1
            assert lin.free.count == n
            # the projected eigensolve is the independent check
            L = linearized_matrix(point.u, point.lam, vcos, f4)
            oracle = _projected_eigenvalues(L, point.u.values)
            assert np.count_nonzero(oracle < -lin.tau0) == n - 1
            assert np.count_nonzero(np.linalg.eigvalsh(L) < -lin.tau0) == n

    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), depth=hst.floats(0.5, 30.0))
    # a constrained eigenvalue (1.4830e-3) inside [-tau0, tau0] although the
    # free gap is 0.28: the LOBPCG fallback on the complement of u runs
    @example(**_PINNED_WELL)
    def test_matches_dense_oracle(self, seed, depth, zero_f):
        u, w, rng = _random_well(seed, depth)
        grid = u.grid
        lin = Linearization.assemble(u, 0.0, w, zero_f)

        L = linearized_matrix(u, 0.0, w, zero_f)
        spectrum = np.linalg.eigvalsh(L)
        tau0 = lin.tau0
        # the scale bounds every |eigenvalue| (Weyl), so tau0 is conservative
        assert np.max(np.abs(spectrum)) <= lin.op.scale
        assert tau0 == 1e-6 * lin.op.scale
        assert lin.free.count == np.count_nonzero(spectrum < -tau0)
        assert len(lin.free.near_zero) == np.count_nonzero(np.abs(spectrum) <= tau0)
        assert lin.gap == pytest.approx(np.min(np.abs(spectrum)), rel=1e-8, abs=1e-11)
        projected = _projected_eigenvalues(L, u.values)
        assert lin.constrained.count == np.count_nonzero(projected < -tau0)
        assert lin.constrained.near_zero == pytest.approx(
            tuple(projected[np.abs(projected) <= tau0]), rel=1e-6, abs=1e-10)
        eigenvalues = np.concatenate([spectrum, projected])
        s = rng.uniform(spectrum[0] - 1.0, 1.0)
        while np.min(np.abs(eigenvalues - s)) < 1e-6:
            s = rng.uniform(spectrum[0] - 1.0, 1.0)
        assert lin.count_below(s) == np.count_nonzero(projected < s)
        if lin.gap > tau0:
            z_dot_u = grid.h * u.values @ np.linalg.solve(L, u.values)
            assert inner_l2(lin.z, u) == pytest.approx(z_dot_u, rel=1e-8)
        else:
            with pytest.raises(NotFreelyNondegenerateError):
                lin.z

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_count_below_next_to_a_free_eigenvalue(self, delta, zero_f):
        # the pairing solve's roundoff floor grows like 1/delta, far below
        # what would flip the pairing's sign
        u, w, _ = _random_well(**_PINNED_WELL)
        L = linearized_matrix(u, 0.0, w, zero_f)
        s = np.linalg.eigvalsh(L)[0] + delta
        count = Linearization.assemble(u, 0.0, w, zero_f).count_below(s)
        assert count == np.count_nonzero(_projected_eigenvalues(L, u.values) < s) == 0

    def test_queries_leave_it_as_built(self, zero_f):
        # a count far up the spectrum grows a block; it is the query's own
        u, w, _ = _random_well(**_PINNED_WELL)
        lin = Linearization.assemble(u, 0.0, w, zero_f)
        lin.count_below(30.0)
        fresh = Linearization.assemble(u, 0.0, w, zero_f)
        assert len(lin.block.values) == 12
        assert np.array_equal(lin.block.values, fresh.block.values)
        assert lin.constrained.near_zero == fresh.constrained.near_zero

    def test_radius_of_an_unresolved_well(self, zero_f):
        # the grid resolves wavenumbers only up to 2 pi: the top of the
        # spectrum (about 40) lies below the depth 299 of the well, and the
        # lowest eigenvalue (-286) is the largest in modulus; the scale
        # k_max^2 + max |w| (about 339) still bounds it
        grid = GridSpec(16, 64)
        w = 1.0 - 300.0 * np.exp(-(grid.x / 0.3) ** 2)
        u = Field(grid, np.exp(-grid.x**2) + 0.1 * np.cos(np.pi * grid.x / 16))
        lin = Linearization.assemble(u, 0.0, w, zero_f)
        L = linearized_matrix(u, 0.0, w, zero_f)
        spectrum = np.linalg.eigvalsh(L)
        assert np.max(np.abs(spectrum)) <= lin.op.scale
        assert lin.tau0 == 1e-6 * lin.op.scale
        assert lin.free.count == np.count_nonzero(spectrum < -lin.tau0) == 3
        projected = _projected_eigenvalues(L, u.values)
        assert lin.constrained.count == np.count_nonzero(projected < -lin.tau0) == 2


class TestLobpcg:
    """grid.lobpcg against the dense spectrum, with and without a constraint."""

    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), depth=hst.floats(0.5, 30.0),
           k=hst.integers(1, 8), constrained=hst.booleans())
    @example(**_PINNED_WELL, k=6, constrained=True)
    def test_lowest_values_match_the_dense_spectrum(self, seed, depth, k, constrained, zero_f):
        u, w, rng = _random_well(seed, depth)
        op = md.linearized_operator(u, 0.0, w, zero_f)
        symbol = u.grid.wavenumbers**2 + op.minres_shift
        L = linearized_matrix(u, 0.0, w, zero_f)
        if constrained:
            constraint, dense = u.values[:, None], _projected_eigenvalues(L, u.values)
        else:
            constraint, dense = None, np.linalg.eigvalsh(L)
        tol = 1e-12 * op.scale
        block = gr.lobpcg(lambda X: op.apply(X.T).T, rng.standard_normal((u.grid.M, k)), tol, 200,
                          precond=lambda R: np.fft.irfft(np.fft.rfft(R.T) / symbol, n=u.grid.M).T,
                          stop=lambda block: False, constraint=constraint)
        vectors = block.vectors
        assert np.all(block.residuals <= tol)
        assert np.allclose(vectors.T @ vectors, np.eye(k), rtol=0, atol=1e-12)
        if constrained:
            assert np.max(np.abs(u.values @ vectors)) <= 1e-12 * np.linalg.norm(u.values)
        # the residual norms returned are those of the pairs
        images = op.apply(vectors.T).T
        if constrained:
            unit = u.values / np.linalg.norm(u.values)
            images -= np.outer(unit, unit @ images)
        assert np.allclose(block.residuals, np.linalg.norm(images - vectors * block.values, axis=0),
                           rtol=1e-6, atol=64 * np.finfo(float).eps * op.scale)
        # each of the k lowest within its residual (and the dense solve's
        # roundoff) of the Ritz value
        slack = 64 * np.finfo(float).eps * op.scale
        assert np.all(np.abs(block.values - dense[:k]) <= block.residuals + slack)

    def test_stop_is_tested_at_every_iteration_but_the_first(self, zero_f):
        u, w, rng = _random_well(**_PINNED_WELL)
        op = md.linearized_operator(u, 0.0, w, zero_f)
        seen = []

        def stop(block):
            seen.append(block.values.copy())
            return len(seen) == 3

        block = gr.lobpcg(lambda X: op.apply(X.T).T, rng.standard_normal((u.grid.M, 3)), 0.0, 200,
                          precond=lambda R: R, stop=stop)
        assert len(seen) == 3
        # values only fall, and the returned block is the stopped one, refined
        assert np.all(np.diff(seen, axis=0) <= 1e-12 * op.scale)
        assert np.all(block.values <= seen[-1] + 1e-12 * op.scale)


class TestCertificateCost:
    """The Linearization does the work its outputs read, and no more."""

    def test_ground_state_work(self, ubar, vcos, f4, monkeypatch):
        columns = []
        apply = FourierOperator.apply

        def counted(self, x):
            columns.append(1 if x.ndim == 1 else len(x))
            return apply(self, x)

        monkeypatch.setattr(FourierOperator, "apply", counted)
        lin = Linearization.assemble(ubar.u, ubar.lam, vcos, f4)
        # 68 measured: the block alone, as tau0 needs no eigensolve
        assert sum(columns) <= 75
        # the gap value is converged; the top one need only clear the band
        gap = np.argmin(np.abs(lin.block.values))
        assert lin.block.residuals[gap] <= lin._ritz_tol


class TestPairingCount:
    """Bordered-matrix inertia count against the projected eigensolve."""

    def test_rank2_reduction_matches_dense_projection(self, smooth_field, vcos, f4):
        grid = GridSpec(8, 256)
        u = smooth_field(grid, seed=11)
        L = linearized_matrix(u, 0.3, vcos, f4)
        v = householder_vector(u.values)
        Q = (np.eye(grid.M) - 2.0 * np.outer(v, v))[:, 1:]
        dense = np.linalg.eigvalsh(Q.T @ L @ Q)
        reduced = np.linalg.eigvalsh(tangent_block(L, v))
        assert np.max(np.abs(reduced - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_classify_makes_no_dense_eigensolve(self, glued_two, vcos, f4, eigensolve_sizes):
        point = glued_two[16].point
        report = classify(point.u, point.lam, vcos, f4)
        # LOBPCG's Rayleigh-Ritz solves only, of order at most 3 x the block
        assert eigensolve_sizes and max(eigensolve_sizes) < point.u.grid.M // 4
        assert (report.m, report.m_f) == (1, 2)


class TestRitzCertificate:
    @staticmethod
    def _block(values, residuals):
        return RitzBlock(np.array(values), np.eye(8)[:, : len(values)], np.array(residuals))

    def test_clear_intervals_certify(self):
        block = self._block([-2.0, -1.0, 0.5], [1e-3, 1e-3, 1e-3])
        assert block.certifies((-0.01, 0.01))

    @pytest.mark.parametrize("values, residuals", [
        ([-2.0, -0.0105, 0.5], [1e-3, 1e-3, 1e-3]),   # straddles -tau0
        ([-2.0, 0.0095, 0.5], [1e-3, 1e-3, 1e-3]),    # straddles +tau0
        ([-2.0, -1.0, 0.0105], [1e-3, 1e-3, 1e-3]),   # top not clear of +tau0
        ([-2.0, -1.0, -0.5], [1e-3, 1e-3, 1e-3]),     # block ends below the band
    ])
    def test_straddling_or_short_blocks_do_not(self, values, residuals):
        assert not self._block(values, residuals).certifies((-0.01, 0.01))

    def test_block_cap_raises(self, ubar, vcos, f4, monkeypatch):
        monkeypatch.setattr(spectra, "_BLOCK_CAP", 1)
        with pytest.raises(UncertifiedCountError) as err:
            classify(ubar.u, ubar.lam, vcos, f4)
        assert err.value.block_size == 1 and err.value.residual >= 0.0


class TestZVector:
    def test_exact_kernel_raises(self, soliton24, V1, f4):
        # constant potential: the translation mode is an exact kernel vector
        with pytest.raises(NotFreelyNondegenerateError):
            Linearization.assemble(soliton24, 0.0, V1, f4).z

    def test_linear_hook_positive_pairing(self, grid24, vcos, zero_f, smooth_field):
        u = smooth_field(grid24, seed=7)
        z = Linearization.assemble(u, -0.5, vcos, zero_f).z
        reference = resolvent_solve(u, vcos.shifted(0.5))
        assert np.max(np.abs(z.values - reference.values)) < 1e-9
        assert inner_l2(z, u) > 0

    def test_sign_subcritical_bump(self, family_min_p4, vmin_well, f4):
        from multibump.semiclassical import scaled_potential

        member = family_min_p4.members[1]
        Veps = scaled_potential(vmin_well, member.eps)
        z = Linearization.assemble(member.point.u, 0.0, Veps, f4).z
        assert inner_l2(z, member.point.u) < 0

    def test_sign_supercritical_bump(self, family_min_p8, vmin_well, f8):
        from multibump.semiclassical import scaled_potential

        member = family_min_p8.members[1]
        Veps = scaled_potential(vmin_well, member.eps)
        z = Linearization.assemble(member.point.u, 0.0, Veps, f8).z
        assert inner_l2(z, member.point.u) > 0


class TestClassify:
    def test_local_min_fully_nondegenerate(self, ubar, vcos, f4):
        report = classify(ubar.u, ubar.lam, vcos, f4)
        assert report.classification == "fully_nondegenerate_neg"
        assert (report.m, report.m_f) == (0, 1)
        assert report.z_dot_u < 0
        # sign-definite wave
        assert ubar.u.values.min() > 0

    def test_two_bump_indices(self, glued_two, vcos, f4):
        point = glued_two[16].point
        report = classify(point.u, point.lam, vcos, f4)
        assert report.classification == "fully_nondegenerate_neg"
        assert (report.m, report.m_f) == (1, 2)
        # the certificate of the free count travels with the report
        lin = Linearization.assemble(point.u, point.lam, vcos, f4)
        values, residuals = lin.block.values, lin.block.residuals
        assert report.block_size == len(values) >= report.m_f + 1
        assert report.ritz_residual == np.max(residuals) > 0.0
        assert report.to_dict()["block_size"] == report.block_size
        # what the certificate promises: the gap value and every value within
        # tau0 are converged to the Ritz tolerance (the top one need not be)
        read = np.abs(values) <= lin.tau0
        read[np.argmin(np.abs(values))] = True
        assert np.all(residuals[read] <= lin._ritz_tol)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            SpectralReport(
                m=0, m_f=2, z_dot_u=-1.0, spectral_gap=1.0,
                classification="fully_nondegenerate_neg",
            )
        with pytest.raises(ValueError):
            SpectralReport(
                m=1, m_f=1, z_dot_u=-0.5, spectral_gap=1.0,
                classification="fully_nondegenerate_neg",
            )


class TestZTranslate:
    def test_single_bump_trivial(self, ubar, vcos, f4):
        report = z_translate_check(ubar, ubar, BumpConfig(1, (0,)), vcos, f4)
        assert report.window_error < 1e-8
        assert report.scalar_discrepancy < 1e-9

    def test_two_bump_locality(self, ubar, glued_two, vcos, f4):
        report = z_translate_check(
            ubar, glued_two[16].point, BumpConfig(2, (-8, 8)), vcos, f4
        )
        assert report.scalar_discrepancy < 0.05 * abs(report.scalar_expected)

    def test_discrepancy_decreases_with_separation(self, ubar, glued_two, vcos, f4):
        r8 = z_translate_check(ubar, glued_two[8].point, BumpConfig(2, (-4, 4)), vcos, f4)
        r16 = z_translate_check(ubar, glued_two[16].point, BumpConfig(2, (-8, 8)), vcos, f4)
        assert r16.scalar_discrepancy < r8.scalar_discrepancy
        assert r16.window_error < r8.window_error


class TestInstability:
    def test_supercritical_eigenvalue(self, phi_super, V1, f8):
        result = instability_eigenvalue(phi_super, V1, f8)
        assert result.rho > 0
        assert result.rho == pytest.approx(np.sqrt(-result.mu), abs=1e-12)
        assert abs(inner_l2(result.v, phi_super.u)) < 1e-10
        assert result.eigen_residual < 1e-8

    def test_subcritical_reports_no_instability(self, phi_sub, V1, f4):
        with pytest.raises(NoInstabilityDetected) as err:
            instability_eigenvalue(phi_sub, V1, f4)
        # the quotient minimum was computed and is not below -tau0
        assert err.value.mu is not None and err.value.mu > -1e-2

    def test_positivity_failure_reports_the_eigenvalue(self, phi_super, V1, f8, zero_f,
                                                       monkeypatch):
        # a band reaching up to +scale: the probe stops once its Ritz interval
        # lies in it, and reports its Ritz value, an upper bound on the lowest
        # tangent eigenvalue of L2 (just above the continuum edge 4 = 1 - lambda)
        probes, original = [], spectra._lowest_ritz

        def recorded(*args, **kwargs):
            block = original(*args, **kwargs)
            if block.vectors.shape[1] == 1:
                probes.append((args[0].scale, block))
            return block

        monkeypatch.setattr(spectra, "_lowest_ritz", recorded)
        monkeypatch.setattr(spectra, "_POSITIVITY_TOL", -1.0)
        with pytest.raises(PositivityViolationError,
                           match=r"comparison operator has an eigenvalue at most \S+ on the tangent space") as err:
            instability_eigenvalue(phi_super, V1, f8)
        (scale, probe), = probes
        value, residual = probe.values[0], probe.residuals[0]
        assert str(err.value).split("at most ")[1].split()[0] == f"{value:.3e}"
        # the interval lies in the band, and it holds the lowest tangent
        # eigenvalue, which the Ritz value bounds from above
        u = phi_super.u.values
        L2 = (linearized_matrix(phi_super.u, phi_super.lam, V1, zero_f)
              - np.diag(np.abs(u) ** (f8.p - 2.0)))
        lowest = _projected_eigenvalues(L2, u)[0]
        assert value + residual < scale
        assert lowest <= value + 1e-9 * scale and value - lowest <= residual

    def test_probe_within_its_residual_of_zero_is_refused(self, phi_super, V1, f8, monkeypatch):
        # the Kato bound divides by the probe's lowest tangent eigenvalue of
        # L2; a Ritz value whose residual interval reaches zero bounds
        # nothing, so the eigenvalue is refused, not returned
        original = spectra._lowest_ritz

        def stubbed(*args, **kwargs):
            block = original(*args, **kwargs)
            if block.vectors.shape[1] == 1:  # the one-column probe
                return type(block)(np.array([1e-3]), block.vectors, np.array([1e-2]))
            return block

        monkeypatch.setattr(spectra, "_lowest_ritz", stubbed)
        with pytest.raises(NoInstabilityDetected, match="within its residual") as err:
            instability_eigenvalue(phi_super, V1, f8)
        assert err.value.mu < 0

    def test_probe_that_missed_the_lowest_is_refused(self, glued_two, vcos, f4, monkeypatch):
        # at d = 16 the lowest tangent eigenvalue of L2 is 1.39e-7 and the
        # next lies near 1.28; a probe that reports 1 +- 0.01 has missed the
        # lowest, and the count of L2 below its floor 0.495 shows it
        original = spectra._lowest_ritz

        def stubbed(*args, **kwargs):
            block = original(*args, **kwargs)
            if block.vectors.shape[1] == 1:
                return type(block)(np.array([1.0]), block.vectors, np.array([1e-2]))
            return block

        monkeypatch.setattr(spectra, "_lowest_ritz", stubbed)
        with pytest.raises(NoInstabilityDetected, match=r"has [12] tangent eigenvalues below 4\.950e-01") as err:
            instability_eigenvalue(glued_two[16].point, vcos, f4)
        assert err.value.mu < 0

    def test_probe_stops_once_positive_to_ten_percent(self, phi_super, V1, f8, monkeypatch):
        runs = []  # (block, operator columns applied) of each LOBPCG run
        original, apply = spectra._lowest_ritz, FourierOperator.apply
        columns = [0]

        def counted_apply(self, x):
            columns[0] += 1 if x.ndim == 1 else len(x)
            return apply(self, x)

        def recorded(*args, **kwargs):
            before = columns[0]
            block = original(*args, **kwargs)
            runs.append((block, columns[0] - before))
            return block

        monkeypatch.setattr(FourierOperator, "apply", counted_apply)
        monkeypatch.setattr(spectra, "_lowest_ritz", recorded)
        instability_eigenvalue(phi_super, V1, f8)
        (probe, applied), = [run for run in runs if run[0].vectors.shape[1] == 1]
        value, residual = probe.values[0], probe.residuals[0]
        # the lowest tangent eigenvalue sits just above the continuum edge 4;
        # run to the Ritz tolerance the probe took 81 applies, 13 measured here
        assert 0.0 < residual <= 0.1 * value and value == pytest.approx(4.0, rel=0.01)
        assert applied <= 20

    def test_makes_no_dense_computation(self, phi_super, V1, f8, eigensolve_sizes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense factorization")

        for name in ("cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert instability_eigenvalue(phi_super, V1, f8).rho > 0
        # the Rayleigh-Ritz and tridiagonal solves of LOBPCG and Lanczos only
        assert eigensolve_sizes and max(eigensolve_sizes) < phi_super.u.grid.M // 4


    def test_requires_positive_wave(self, phi_super, V1, f8):
        from multibump.stationary import ConstrainedCriticalPoint

        flipped = ConstrainedCriticalPoint(
            u=Field(phi_super.u.grid, -phi_super.u.values),
            lam=phi_super.lam, mass=phi_super.mass,
            l2_residual_norm=phi_super.l2_residual_norm,
            constraint_violation=phi_super.constraint_violation,
        )
        with pytest.raises(PreconditionError):
            instability_eigenvalue(flipped, V1, f8)

    def test_requires_multiplier_below_spectrum(self, phi_super, V1, f8):
        from multibump.stationary import ConstrainedCriticalPoint

        bad = ConstrainedCriticalPoint(
            u=phi_super.u, lam=2.0, mass=phi_super.mass,
            l2_residual_norm=phi_super.l2_residual_norm,
            constraint_violation=phi_super.constraint_violation,
        )
        with pytest.raises(PreconditionError):
            instability_eigenvalue(bad, V1, f8)


class TestInstabilityLadder:
    """Two bumps at separation d: the instability is exponentially small in
    d (Sandstede 1998), and every one the constrained index promises is
    resolved."""

    SEPARATIONS = (8, 10, 12, 14, 16, 18)

    @pytest.fixture(scope="class")
    def ladder(self, ubar, glued_two, vcos, f4):
        points = {d: glued_two[d].point if d in glued_two
                  else glue(ubar, BumpConfig(2, (-d // 2, d // 2)), 9.0, vcos, f4).point
                  for d in self.SEPARATIONS}
        return {d: (point, instability_eigenvalue(point, vcos, f4))
                for d, point in points.items()}

    def test_every_separation_returns(self, ladder):
        for d, (point, result) in ladder.items():
            assert result.mu < 0 and result.rho == pytest.approx(np.sqrt(-result.mu), rel=1e-15)
            assert abs(inner_l2(result.v, point.u)) < 1e-10

    def test_eigen_residual_is_small_against_rho(self, ladder):
        # the block vector's second component grows like 1/rho with d; its
        # residual is measured relative to it (absolute, it read 4e-5 rho at d = 18)
        for d, (_, result) in ladder.items():
            assert result.eigen_residual <= 1e-6 * result.rho, d

    @pytest.mark.parametrize("d", [8, 12])
    def test_matches_dense_oracle(self, ladder, d, vcos, f4):
        point, result = ladder[d]
        mu, x = dense_pencil(point, vcos, f4)
        assert result.mu == pytest.approx(mu, rel=1e-6)
        assert abs(inner_l2(Field(point.u.grid, x), result.v)) == pytest.approx(1.0, abs=1e-6)

    def test_decay_rate_is_the_tail_rate(self, ladder, ubar, vcos):
        ds = np.array([d for d in self.SEPARATIONS if d >= 12])
        slope = -np.polyfit(ds, np.log([-ladder[d][1].mu for d in ds]), 1)[0]
        kappa = np.sqrt(operator_bottom_eigenvalue(vcos, ubar.u.grid) - ubar.lam)
        assert slope == pytest.approx(kappa, rel=0.02)

    @pytest.fixture(scope="class")
    def point20(self, ubar, vcos, f4):
        return glue(ubar, BumpConfig(2, (-10, 10)), 9.0, vcos, f4).point

    def test_separation_20_returns_or_refuses(self, point20, vcos, f4):
        # -7.884e-9 from the refined dense pencil; the comparison operator's
        # tangent eigenvalue here is 1.5e-9 against a scale of 1e4
        try:
            result = instability_eigenvalue(point20, vcos, f4)
        except NoInstabilityDetected as err:
            assert err.mu is not None
        else:
            assert result.mu == pytest.approx(-7.884e-9, rel=1e-2)
            assert result.eigen_residual <= 1e-6 * result.rho

    def test_starved_solves_are_refused(self, point20, vcos, f4, monkeypatch):
        # solves accepted at backward error 1e-12 leave L2t^{-1} x short along
        # the near-null mode: the quotient reads -9.69e-9, 23 % off, and its
        # bound shows it
        monkeypatch.setattr(spectra, "_FLOOR_RTOL", 1e-13)
        with pytest.raises(NoInstabilityDetected, match="is not resolved") as err:
            instability_eigenvalue(point20, vcos, f4)
        assert err.value.mu < 0


class TestSpectrumBottom:
    def test_constant(self, grid24):
        assert operator_bottom_eigenvalue(Potential.const(0.7), grid24) == pytest.approx(
            0.7, abs=1e-10
        )

    def test_cosine_band_window(self, grid24, vcos):
        bottom = operator_bottom_eigenvalue(vcos, grid24)
        assert 0.5 < bottom < 1.5

    def test_resolution_independence(self, vcos):
        values = [
            operator_bottom_eigenvalue(vcos, GridSpec(16, M)) for M in (512, 1024, 2048)
        ]
        assert abs(values[1] - values[0]) < 1e-8
        assert abs(values[2] - values[1]) < 1e-8
