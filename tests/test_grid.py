"""Grid, differential operators, resolvent and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, aslinearoperator
from scipy.sparse.linalg import minres as scipy_minres

from multibump.errors import (
    GridMismatchError,
    InvalidFieldError,
    LinearSolverError,
    MisalignedTranslationError,
)
from multibump.grid import (
    Field,
    FourierOperator,
    GridSpec,
    SplitOperator,
    derivative,
    inner_h1v,
    inner_l2,
    laplacian_apply,
    minres,
    norm_h1,
    operator_bottom_eigenvalue,
    read_field_binary,
    read_field_csv,
    resolvent_solve,
    translate,
    write_field_binary,
    write_field_csv,
)
from multibump.model import Potential


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(24, 1536)
        assert g.h == pytest.approx(1 / 32)
        assert len(g.x) == 1536
        assert g.x[0] == -24.0

    @pytest.mark.parametrize("L,M", [(24, 63), (24, 40), (0, 128), (24.5, 128)])
    def test_rejects_bad_parameters(self, L, M):
        with pytest.raises(ValueError):
            GridSpec(L, M)


class TestField:
    def test_rejects_nonfinite(self, grid24):
        vals = np.zeros(grid24.M)
        vals[3] = np.nan
        with pytest.raises(InvalidFieldError):
            Field(grid24, vals)

    def test_rejects_wrong_length(self, grid24):
        with pytest.raises(InvalidFieldError):
            Field(grid24, np.zeros(grid24.M - 1))

    def test_grid_mismatch(self, grid24, grid40):
        with pytest.raises(GridMismatchError):
            Field.zeros(grid24) + Field.zeros(grid40)


class TestLaplacian:
    def test_constant_is_harmonic(self, grid40):
        out = laplacian_apply(Field(grid40, np.full(grid40.M, 3.7)))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_cosine_eigenfunction(self, grid40):
        u = Field.from_function(grid40, lambda x: np.cos(np.pi * x / grid40.L))
        out = laplacian_apply(u)
        expected = (np.pi / grid40.L) ** 2 * u.values
        assert np.max(np.abs(out.values - expected)) < 1e-11

    def test_cosine_eigenfunction_relative(self):
        # on a moderate grid the relative accuracy reaches 1e-12
        g = GridSpec(2, 128)
        u = Field.from_function(g, lambda x: np.cos(np.pi * x / g.L))
        out = laplacian_apply(u)
        expected = (np.pi / g.L) ** 2 * u.values
        assert np.max(np.abs(out.values - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_sech_analytic(self, grid40):
        # second derivative of sech is sech - 2 sech^3
        u = Field.from_function(grid40, lambda x: 1 / np.cosh(x))
        out = laplacian_apply(u)
        x = grid40.x
        expected = -(1 / np.cosh(x) - 2 / np.cosh(x) ** 3)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_derivative_of_sine(self, grid24):
        k = 2 * np.pi / grid24.L
        u = Field.from_function(grid24, lambda x: np.sin(k * x))
        out = derivative(u)
        assert_allclose(out.values, k * np.cos(k * grid24.x), atol=1e-11)


class TestTranslate:
    def test_zero_shift_identity(self, soliton24):
        assert np.array_equal(translate(soliton24, 0).values, soliton24.values)

    def test_roundtrip_bit_exact(self, soliton24):
        assert np.array_equal(
            translate(translate(soliton24, 5), -5).values, soliton24.values
        )

    def test_misaligned_raises(self, soliton40):
        # h = 80/4096 does not divide 1 on this grid
        with pytest.raises(MisalignedTranslationError):
            translate(soliton40, 7)

    def test_offset_beyond_period_raises(self, soliton24):
        with pytest.raises(MisalignedTranslationError):
            translate(soliton24, 48)

    @settings(max_examples=20, deadline=None)
    @given(a=hst.integers(min_value=-20, max_value=20), seed=hst.integers(0, 50))
    def test_l2_isometry(self, a, seed):
        grid = GridSpec(24, 768)
        rng = np.random.default_rng(seed)
        u = Field(grid, rng.standard_normal(grid.M))
        v = Field(grid, rng.standard_normal(grid.M))
        assert inner_l2(translate(u, a), translate(v, a)) == pytest.approx(
            inner_l2(u, v), abs=1e-12, rel=1e-12
        )

    def test_h1v_isometry_periodic_potential(self, grid24, vcos, smooth_field):
        u = smooth_field(grid24, seed=3)
        v = smooth_field(grid24, seed=4)
        base = inner_h1v(u, v, vcos)
        for a in (-7, 1, 11):
            shifted = inner_h1v(translate(u, a), translate(v, a), vcos)
            assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestInnerProducts:
    def test_zero_pairing(self, grid24, soliton24):
        assert inner_l2(Field.zeros(grid24), soliton24) == 0.0

    def test_soliton_mass(self, soliton40):
        # 2 * integral of sech^2 = 4
        assert inner_l2(soliton40, soliton40) == pytest.approx(4.0, abs=1e-10)

    def test_trig_orthogonality(self, grid40):
        u = Field.from_function(grid40, lambda x: np.cos(np.pi * x / grid40.L))
        v = Field.from_function(grid40, lambda x: np.sin(np.pi * x / grid40.L))
        assert abs(inner_l2(u, v)) < 1e-12

    def test_h1v_soliton_quadrature_oracle(self, soliton40, V1):
        # independent oracle: adaptive quadrature of the closed form
        du = lambda x: -np.sqrt(2) * np.tanh(x) / np.cosh(x)
        u = lambda x: np.sqrt(2) / np.cosh(x)
        oracle = quad(lambda x: du(x) ** 2 + u(x) ** 2, -40, 40, limit=200)[0]
        assert oracle == pytest.approx(16.0 / 3.0, abs=1e-9)
        assert inner_h1v(soliton40, soliton40, V1) == pytest.approx(oracle, abs=1e-9)

    def test_h1v_symmetry_exact(self, grid24, vcos, smooth_field):
        u, v = smooth_field(grid24, seed=5), smooth_field(grid24, seed=6)
        assert inner_h1v(u, v, vcos) == pytest.approx(inner_h1v(v, u, vcos), rel=1e-13)

    def test_h1v_form_bound(self, grid24, vcos, smooth_field):
        gamma = operator_bottom_eigenvalue(vcos, grid24)
        assert gamma > 0
        for seed in range(20):
            u = smooth_field(grid24, seed=seed)
            assert inner_h1v(u, u, vcos) >= gamma * inner_l2(u, u) - 1e-10


class TestResolvent:
    def test_constants(self, grid24, V1):
        z = resolvent_solve(Field(grid24, np.ones(grid24.M)), V1)
        assert_allclose(z.values, 1.0, atol=1e-12)

    def test_eigenfunction(self, grid40, V1):
        kap = np.pi / grid40.L
        g = Field.from_function(grid40, lambda x: (1 + kap**2) * np.cos(kap * x))
        z = resolvent_solve(g, V1)
        assert np.max(np.abs(z.values - np.cos(kap * grid40.x))) < 1e-10

    def test_soliton_identity(self, grid40, soliton40, V1):
        # (-dxx + 1) applied to sqrt(2) sech equals its cube
        z = resolvent_solve(Field(grid40, soliton40.values**3), V1)
        assert np.max(np.abs(z.values - soliton40.values)) < 1e-8

    def test_consistency(self, grid24, vcos, smooth_field):
        g = smooth_field(grid24, seed=9)
        z = resolvent_solve(g, vcos.shifted(-0.25))
        vs = vcos.sample(grid24)
        back = laplacian_apply(z).values + (vs - 0.25) * z.values
        assert np.max(np.abs(back - g.values)) < 1e-10

    def test_self_adjoint(self, grid24, vcos, smooth_field):
        g, f_ = smooth_field(grid24, seed=10), smooth_field(grid24, seed=11)
        lhs = inner_l2(resolvent_solve(g, vcos), f_)
        rhs = inner_l2(g, resolvent_solve(f_, vcos))
        assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    def test_gradient_representation_link(self, grid24, vcos, smooth_field):
        # S applied to the strong residual at lambda = 0 equals u - S f(u)
        from multibump.model import Nonlinearity, l2_residual

        f = Nonlinearity(4.0)
        for seed in (13, 14, 15):
            u = smooth_field(grid24, seed=seed)
            lhs = resolvent_solve(l2_residual(u, 0.0, vcos, f), vcos)
            rhs = u - resolvent_solve(Field(grid24, f.f(u.values)), vcos)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def _dense_neg_laplacian(grid):
    """-d^2/dx^2 as a dense matrix from the explicit Fourier sum
    (1/M) sum_m k_m^2 exp(i k_m (x_i - x_j)), without an FFT."""
    k = 2 * np.pi * np.fft.fftfreq(grid.M, d=grid.h)
    modes = np.exp(1j * np.outer(grid.x, k))
    return np.real((modes * k**2) @ modes.conj().T) / grid.M


class TestFourierOperator:
    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 10_000), bordered=hst.booleans(),
           M=hst.sampled_from([64, 96, 128]))
    def test_apply_matches_dense(self, seed, bordered, M):
        grid = GridSpec(2, M)
        rng = np.random.default_rng(seed)
        weight = rng.uniform(-3.0, 3.0, M)
        dense = _dense_neg_laplacian(grid) + np.diag(weight)
        border = rng.standard_normal(M) if bordered else None
        if bordered:
            dense = np.block([[dense, -border[:, None]], [-border[None, :], np.zeros((1, 1))]])
        op = FourierOperator(grid, weight, border=border)
        x = rng.standard_normal(op.size)
        assert op.size == M + bordered
        assert_allclose(op.apply(x), dense @ x, rtol=0, atol=1e-10 * np.max(np.abs(dense @ x)))

    def test_cg_solves_spd_to_tolerance(self, monkeypatch):
        monkeypatch.setattr("multibump.grid._CG_TOL", 1e-10)
        grid = GridSpec(4, 256)
        rng = np.random.default_rng(3)
        weight = 0.2 + rng.uniform(0.0, 2.0, grid.M)
        rhs = rng.standard_normal(grid.M)
        op = FourierOperator(grid, weight)
        z = op.cg(rhs)
        assert np.max(np.abs(rhs - op.apply(z))) <= 1e-10 * np.max(np.abs(rhs))
        dense = _dense_neg_laplacian(grid) + np.diag(weight)
        assert_allclose(z, np.linalg.solve(dense, rhs), rtol=0, atol=1e-8 * np.max(np.abs(z)))

    def test_cg_refuses_a_missed_true_residual(self, monkeypatch):
        # the recursive residual reports convergence after one step; the true
        # one, left by that step, misses the target and is named
        monkeypatch.setattr(SplitOperator, "field_norm", lambda self, y: 0.0)
        grid = GridSpec(4, 256)
        rng = np.random.default_rng(3)
        op = FourierOperator(grid, 0.2 + rng.uniform(0.0, 2.0, grid.M))
        with pytest.raises(LinearSolverError, match="true residual .* misses its target"):
            op.cg(rng.standard_normal(grid.M))

    def test_cg_rejects_indefinite(self):
        grid = GridSpec(2, 64)
        with pytest.raises(LinearSolverError):
            FourierOperator(grid, np.full(grid.M, -1.0)).cg(np.ones(grid.M))


def _dense_split_coordinates(grid, c):
    """S F as a dense (M + 2) x M matrix from explicit cosines and sines:
    F maps grid values to the orthonormal real rfft coordinates (real and
    imaginary part of each mode, interleaved), S = (k^2 + c)^{-1/2}."""
    M = grid.M
    j = np.arange(M)
    rows = []
    for m in range(M // 2 + 1):
        w = np.sqrt(1.0 / M) if m in (0, M // 2) else np.sqrt(2.0 / M)
        rows += [w * np.cos(2 * np.pi * m * j / M), -w * np.sin(2 * np.pi * m * j / M)]
    k2 = (2 * np.pi * np.arange(M // 2 + 1) / (2 * grid.L)) ** 2
    return np.repeat(1.0 / np.sqrt(k2 + c), 2)[:, None] * np.array(rows)


def _counting_ffts(monkeypatch):
    calls = [0]
    for name in ("rfft", "irfft", "fft", "ifft"):
        def counted(*args, _original=getattr(np.fft, name), **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _counting_split_applies(monkeypatch):
    calls = [0]

    def counted(self, x, _original=SplitOperator.apply):
        calls[0] += 1
        return _original(self, x)

    monkeypatch.setattr(SplitOperator, "apply", counted)
    return calls


def _allocating_split_apply(split, x):
    """S A S x as SplitOperator.apply computed it with a fresh array for each
    transform and each stage."""
    n, border = split._n, split._border
    xc = x[:n].view(complex)
    field = np.fft.irfft(split._in * xc, n=split.op.grid.M)
    out = np.fft.rfft(split.op.weight * field)
    out *= split._out
    out += split._diag * xc
    out = out.view(float)
    if border is None:
        return out
    out -= x[n] * border
    return np.append(out, -np.dot(border, x[:n]))


class TestSplitOperator:
    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 10_000), bordered=hst.booleans(),
           M=hst.sampled_from([64, 96, 128]), c=hst.floats(0.05, 4.0))
    def test_apply_matches_dense(self, seed, bordered, M, c):
        grid = GridSpec(2, M)
        rng = np.random.default_rng(seed)
        weight = rng.uniform(-3.0, 3.0, M)
        sf = _dense_split_coordinates(grid, c)
        dense = sf @ (_dense_neg_laplacian(grid) + np.diag(weight)) @ sf.T
        border = rng.standard_normal(M) if bordered else None
        if bordered:
            su = sf @ border
            dense = np.block([[dense, -su[:, None]], [-su[None, :], np.zeros((1, 1))]])
        split = FourierOperator(grid, weight, border=border).split(c)
        assert split.shape == (M + 2 + bordered,) * 2
        # the imaginary parts of the mean and Nyquist modes are no field's coordinates
        x = rng.standard_normal(M + 2 + bordered)
        x[[1, M + 1]] = 0.0
        assert_allclose(split.apply(x), dense @ x, rtol=0,
                        atol=1e-10 * np.max(np.abs(dense @ x)))
        r = rng.standard_normal(M + bordered)
        assert_allclose(split.forward(r)[: M + 2], sf @ r[:M], rtol=0, atol=1e-12)
        assert_allclose(split.back(x)[:M], sf.T @ x[: M + 2], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bordered", [False, True], ids=["plain", "bordered"])
    def test_apply_returns_a_fresh_array_each_call(self, bordered):
        # the transforms run in buffers the operator owns, but MINRES keeps
        # its last two products: each must survive the next apply
        grid = GridSpec(2, 96)
        rng = np.random.default_rng(11)
        border = rng.standard_normal(grid.M) if bordered else None
        split = FourierOperator(grid, rng.uniform(-3.0, 3.0, grid.M), border=border).split(0.7)
        x1, x2 = rng.standard_normal((2, split.shape[0]))
        y1 = split.apply(x1)
        kept = y1.copy()
        y2 = split.apply(x2)
        assert not np.shares_memory(y1, y2)
        assert np.array_equal(y1, kept)
        assert np.array_equal(y1, _allocating_split_apply(split, x1))
        assert np.array_equal(y2, _allocating_split_apply(split, x2))

    def test_bordered_minres_matches_dense_solve(self):
        from multibump.gluing import _solve_bordered

        grid = GridSpec(4, 256)
        rng = np.random.default_rng(7)
        weight = rng.uniform(-1.5, 2.0, grid.M)
        border = np.exp(-grid.x**2)
        op = FourierOperator(grid, weight, border=border)
        dense = np.block([
            [_dense_neg_laplacian(grid) + np.diag(weight), -border[:, None]],
            [-border[None, :], np.zeros((1, 1))],
        ])
        rhs = rng.standard_normal(op.size)
        x = _solve_bordered(op, rhs, rtol=1e-10)
        assert np.linalg.norm(rhs - dense @ x) <= 1e-9 * np.linalg.norm(rhs)
        exact = np.linalg.solve(dense, rhs)
        assert_allclose(x, exact, rtol=0, atol=1e-7 * np.max(np.abs(exact)))

    def test_cg_two_ffts_per_iteration(self, monkeypatch):
        grid = GridSpec(4, 256)
        rng = np.random.default_rng(4)
        op = FourierOperator(grid, 0.05 + rng.uniform(0.0, 100.0, grid.M))
        rhs = rng.standard_normal(grid.M)
        ffts, iters = _counting_ffts(monkeypatch), _counting_split_applies(monkeypatch)
        monkeypatch.setattr("multibump.grid._CG_TOL", 1e-12)
        op.cg(rhs)
        assert iters[0] > 10
        assert ffts[0] <= 2 * iters[0] + 8

    def test_minres_two_ffts_per_iteration(self, monkeypatch):
        from multibump.gluing import _solve_bordered

        grid = GridSpec(4, 256)
        rng = np.random.default_rng(8)
        op = FourierOperator(grid, rng.uniform(-1.5, 2.0, grid.M),
                             border=np.exp(-grid.x**2))
        rhs = rng.standard_normal(op.size)
        ffts, iters = _counting_ffts(monkeypatch), _counting_split_applies(monkeypatch)
        _solve_bordered(op, rhs, rtol=1e-12)
        assert iters[0] > 10
        assert ffts[0] <= 2 * iters[0] + 8


def _symmetric_dense(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    a = (q * eigenvalues) @ q.T
    return 0.5 * (a + a.T), q


def _minres_pair(A, b, **kwargs):
    """(x, info, iterations) of scipy's minres and of grid.minres; scipy
    sees a SplitOperator through a LinearOperator of its apply."""
    out = []
    for solve in (scipy_minres, minres):
        iters = [0]
        operand = (LinearOperator(A.shape, matvec=A.apply, dtype=float)
                   if solve is scipy_minres and isinstance(A, SplitOperator) else A)
        x, info = solve(operand, b, callback=lambda xk: iters.__setitem__(0, iters[0] + 1),
                        **kwargs)
        out.append((x, info, iters[0]))
    return out


class TestMinres:
    """grid.minres against scipy's minres, the implementation it ports."""

    @staticmethod
    def _assert_parity(A, b, **kwargs):
        (x_ref, info_ref, it_ref), (x, info, it) = _minres_pair(A, b, **kwargs)
        assert info == info_ref
        assert abs(it - it_ref) <= 1
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        return x, it

    @settings(max_examples=30, deadline=None)
    @given(seed=hst.integers(0, 10_000), n=hst.integers(8, 80),
           rtol=hst.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_matches_scipy_on_dense_indefinite_systems(self, seed, n, rtol):
        rng = np.random.default_rng(seed)
        a, _ = _symmetric_dense(rng, rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 4.0, n))
        b = rng.standard_normal(n)
        x, _ = self._assert_parity(aslinearoperator(a), b, rtol=rtol, maxiter=5 * n)
        assert np.linalg.norm(b - a @ x) <= 10 * rtol * 4.0 * np.linalg.norm(x)

    @settings(max_examples=20, deadline=None)
    @given(seed=hst.integers(0, 10_000), M=hst.sampled_from([64, 96, 128]),
           c=hst.floats(0.5, 4.0), rtol=hst.sampled_from([1e-8, 1e-12]))
    def test_matches_scipy_on_bordered_split_operators(self, seed, M, c, rtol):
        grid = GridSpec(2, M)
        rng = np.random.default_rng(seed)
        op = FourierOperator(grid, rng.uniform(-3.0, 3.0, M), border=np.exp(-grid.x**2))
        split = op.split(c)
        b = split.forward(rng.standard_normal(op.size))
        self._assert_parity(split, b, rtol=rtol, maxiter=3000)

    @staticmethod
    def _singular(null_part):
        """A with a two-dimensional kernel (basis q[:, :2]) and b with that
        much kernel component."""
        rng = np.random.default_rng(3)
        eigenvalues = np.append([0.0, 0.0], rng.uniform(0.5, 3.0, 38) * (-1) ** np.arange(38))
        a, q = _symmetric_dense(rng, eigenvalues)
        b = q[:, 2:] @ rng.standard_normal(38) + null_part * (q[:, :2] @ [1.0, -2.0])
        return a, q, b

    def test_singular_consistent_system(self):
        a, q, b = self._singular(0.0)
        x, it = self._assert_parity(aslinearoperator(a), b, rtol=1e-10, maxiter=200)
        assert it < 40
        assert np.linalg.norm(q[:, :2].T @ x) <= 1e-8 * np.linalg.norm(x)  # no kernel part
        assert np.linalg.norm(b - a @ x) <= 1e-9 * 3.0 * np.linalg.norm(x)

    def test_inconsistent_system_stops_by_the_least_squares_test(self):
        # |r| stays sqrt(5), so the backward-error test cannot stop the
        # iteration; |A r| <= rtol |A| |r| does, at the same step as scipy's
        a, q, b = self._singular(1.0)
        rtol = 1e-6
        (x_ref, info_ref, it_ref), (x, info, it) = _minres_pair(
            aslinearoperator(a), b, rtol=rtol, maxiter=200)
        assert info == info_ref == 0
        assert abs(it - it_ref) <= 1 and it < 40
        r = b - a @ x
        assert np.linalg.norm(r) == pytest.approx(np.sqrt(5.0), rel=1e-10)
        assert np.linalg.norm(r) > rtol * 3.0 * np.linalg.norm(x)
        assert np.linalg.norm(a @ r) <= 10 * rtol * 3.0 * np.linalg.norm(r)
        # the kernel part of x is roundoff; the part in the range is determined
        rng_ref, rng_x = q[:, 2:].T @ x_ref, q[:, 2:].T @ x
        assert np.linalg.norm(rng_x - rng_ref) <= 1e-10 * np.linalg.norm(rng_ref)

    def test_iteration_limit_returns_maxiter(self):
        rng = np.random.default_rng(5)
        a, _ = _symmetric_dense(rng, rng.uniform(-4.0, 4.0, 50))
        b = rng.standard_normal(50)
        (_, info_ref, it_ref), (_, info, it) = _minres_pair(
            aslinearoperator(a), b, rtol=1e-14, maxiter=7)
        assert info == info_ref == 7
        assert it == it_ref == 7

    def test_zero_rhs(self):
        x, info = minres(aslinearoperator(np.eye(4)), np.zeros(4), rtol=1e-10)
        assert info == 0 and not np.any(x)


class TestSpectrumBottomHelper:
    def test_constant(self, grid24):
        assert operator_bottom_eigenvalue(Potential.const(2.5), grid24) == pytest.approx(
            2.5, abs=1e-10
        )

    def test_cosine_band_bounds(self, grid24, vcos):
        bottom = operator_bottom_eigenvalue(vcos, grid24)
        assert 0.5 < bottom < 1.5

    def test_cache_is_bounded(self):
        # the operators of the most recent potentials are kept, the bottom
        # of each computed once; an operator built afresh gives the same
        from multibump import grid as gr

        grid = GridSpec(2, 64)
        base = Potential.cosine(0.3)
        bottoms = [operator_bottom_eigenvalue(base.shifted(0.1 * i), grid) for i in range(20)]
        info = gr.potential_operator.cache_info()
        assert info.currsize == info.maxsize < 20
        uncached = FourierOperator(grid, base.sample(grid)).bottom
        assert operator_bottom_eigenvalue(base, grid) == uncached == bottoms[0]
        assert_allclose(np.diff(bottoms), 0.1, rtol=1e-9)

    @staticmethod
    def _shifted(samples):
        """(shift, -Lap + V - shift, the start vector) as the spectrum bottom
        builds them."""
        grid = GridSpec(8, len(samples))
        shift = float(samples.min()) - 1.0
        v0 = np.ones(grid.M) + 1e-3 * np.random.default_rng(0).standard_normal(grid.M)
        return shift, FourierOperator(grid, samples - shift), v0

    @pytest.mark.parametrize("kind", ["cosine", "tabulated", "random well"])
    def test_eigsh_matches_scipy(self, kind):
        # scipy's eigsh (ARPACK, Lanczos with restarts) is the oracle of the
        # port: the largest eigenvalue of the CG inverse to 1e-12 relative
        from scipy.sparse.linalg import LinearOperator
        from scipy.sparse.linalg import eigsh as scipy_eigsh

        from multibump import grid as gr

        grid = GridSpec(8, 512)
        rng = np.random.default_rng(4)
        samples = {
            "cosine": Potential.cosine(0.5).sample(grid),
            "tabulated": Potential.tabulated(rng.uniform(-1.0, 1.0, 7)).sample(grid),
            "random well": 1.0 - 3.0 * np.exp(-(grid.x - rng.uniform(-4, 4)) ** 2),
        }[kind]
        shift, op, v0 = self._shifted(samples)
        ours = gr.eigsh(op.cg, v0, 1e-12)
        oracle = scipy_eigsh(LinearOperator((grid.M, grid.M), matvec=op.cg, dtype=float),
                             k=1, which="LA", tol=1e-12, v0=v0, return_eigenvectors=False)[0]
        assert ours == pytest.approx(oracle, rel=1e-12, abs=0)
        # the bottom itself comes from the Bloch fibres for the periodic kinds
        assert FourierOperator(grid, samples).bottom == pytest.approx(shift + 1.0 / oracle,
                                                                      rel=1e-12, abs=0)
        dense = np.linalg.eigvalsh(_dense_neg_laplacian(grid) + np.diag(samples))[0]
        assert shift + 1.0 / ours == pytest.approx(dense, rel=1e-10)

    def test_eigsh_refuses_an_unconverged_run(self, monkeypatch):
        from multibump import grid as gr

        monkeypatch.setattr(gr, "_EIGSH_STEPS", 2)
        _, op, v0 = self._shifted(Potential.cosine(0.5).sample(GridSpec(8, 512)))
        with pytest.raises(LinearSolverError, match="in 2 steps"):
            gr.eigsh(op.cg, v0, 1e-12)


def _periodic_weight(rng, M, P, margin=0.5):
    """Random samples repeating every P of M points, with min >= margin."""
    values = rng.uniform(-1.0, 1.0, P)
    return np.tile(values - values.min() + margin + rng.uniform(0.0, 2.0), M // P)


class TestBlochSolve:
    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 10_000), P=hst.sampled_from([1, 8, 16, 32]),
           grid=hst.sampled_from([GridSpec(4, 64), GridSpec(8, 128)]))
    def test_matches_dense(self, seed, P, grid):
        # random tabulated periods with a shift that keeps -Lap + V >= 1/2: the
        # solve and the bottom against np.linalg.solve and eigvalsh, on grids
        # coarse enough (|A| < 700) that the dense oracle holds 1e-12 too
        rng = np.random.default_rng(seed)
        weight = _periodic_weight(rng, grid.M, P)
        op = FourierOperator(grid, weight)
        assert op._fibres.period == P
        dense = _dense_neg_laplacian(grid) + np.diag(weight)
        rhs = rng.standard_normal(grid.M)
        exact = np.linalg.solve(dense, rhs)
        assert_allclose(op.solve(rhs), exact, rtol=0, atol=1e-12 * np.max(np.abs(exact)))
        assert op.bottom == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-12, abs=0)

    def test_period_detection(self):
        from multibump import grid as gr
        from multibump.semiclassical import scaled_potential

        def period(V, grid):
            fibres = FourierOperator(grid, gr.potential_samples(V, grid))._fibres
            return None if fibres is None else fibres.period

        big, semi = GridSpec(48, 3072), GridSpec(20, 1280)
        assert period(Potential.const(0.7), big) == 1
        assert period(Potential.cosine(0.5), big) == 32
        assert period(scaled_potential(Potential.cosine(0.5), 0.05), semi) is None  # P = 640
        assert period(np.random.default_rng(0).uniform(1.0, 2.0, big.M), big) is None

    def test_bottom_needs_no_eigsh_on_the_fibres(self, monkeypatch):
        from multibump import grid as gr

        monkeypatch.setattr(gr, "eigsh", None)
        grid = GridSpec(4, 256)
        weight = _periodic_weight(np.random.default_rng(1), grid.M, 16)
        assert FourierOperator(grid, weight).bottom == pytest.approx(
            np.linalg.eigvalsh(_dense_neg_laplacian(grid) + np.diag(weight))[0], rel=1e-12)

    def test_refuses_an_indefinite_operator(self):
        grid = GridSpec(4, 256)
        weight = _periodic_weight(np.random.default_rng(2), grid.M, 32) - 3.0
        with pytest.raises(LinearSolverError, match="not positive definite"):
            FourierOperator(grid, weight).solve(np.ones(grid.M))

    @pytest.mark.parametrize("error, refused", [(1e-9, False), (0.5, True)])
    def test_refines_once_then_refuses_a_missed_residual(self, monkeypatch, error, refused):
        # each fibre solve is off by error relative: one refinement step
        # squares 1e-9 into the target; 0.5 still misses it and is named
        from multibump import grid as gr

        calls = []

        def inexact(self, rhs, _original=gr._BlochFibres.solve):
            calls.append(1)
            return (1.0 + error) * _original(self, rhs)

        monkeypatch.setattr(gr._BlochFibres, "solve", inexact)
        grid = GridSpec(4, 256)
        op = FourierOperator(grid, _periodic_weight(np.random.default_rng(3), grid.M, 16))
        rhs = np.random.default_rng(4).standard_normal(grid.M)
        if refused:
            with pytest.raises(LinearSolverError, match="true residual .* after a refinement step"):
                op.solve(rhs)
        else:
            z = op.solve(rhs)
            assert np.max(np.abs(rhs - op.apply(z))) < 1e-13 * np.max(np.abs(rhs))
        assert len(calls) == 2

    def test_resolvent_of_a_constant_is_the_symbol(self, grid24, monkeypatch):
        # P = 1: the solve is the Fourier symbol, with no CG iteration
        monkeypatch.setattr(FourierOperator, "cg", None)
        kap = np.pi / grid24.L
        z = resolvent_solve(Field.from_function(grid24, lambda x: (2.0 + kap**2) * np.cos(kap * x)),
                            Potential.const(2.0))
        assert np.max(np.abs(z.values - np.cos(kap * grid24.x))) < 1e-13


def test_small_dense_solves_run_on_one_blas_thread(monkeypatch):
    # the eigh and qr calls of lanczos, lobpcg and the Bloch fibre build are
    # pinned to one thread, and the caller's count is restored
    from multibump import grid as gr

    get_threads, set_threads = gr._blas_thread_control()
    threads = []
    for name in ("eigh", "qr"):
        def counted(*args, _original=getattr(np.linalg, name), **kwargs):
            threads.append(get_threads())
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    diagonal = np.arange(1.0, 201.0)
    before = get_threads()
    try:
        set_threads(2)
        block = gr.lobpcg(lambda X: diagonal[:, None] * X,
                          np.random.default_rng(0).standard_normal((200, 3)), 1e-10, 100,
                          precond=lambda R: R, stop=lambda block: False)
        top = gr.eigsh(lambda x: x / diagonal, np.ones(200), 1e-12)
        grid = GridSpec(4, 256)
        fibres = gr._bloch_fibres(grid, _periodic_weight(np.random.default_rng(1), grid.M, 32))
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert threads and set(threads) == {1}
    assert len(threads) > fibres.inverse.shape[0]  # every fibre's eigh is among them
    assert_allclose(block.values, [1.0, 2.0, 3.0], rtol=1e-12)
    assert top == pytest.approx(1.0, rel=1e-12)


class TestSerialization:
    def test_csv_roundtrip(self, soliton24, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(soliton24, path)
        back = read_field_csv(path)
        assert back.grid == soliton24.grid
        assert np.array_equal(back.values, soliton24.values)

    def test_binary_roundtrip(self, soliton24, tmp_path):
        path = tmp_path / "field.bin"
        write_field_binary(soliton24, path)
        back = read_field_binary(path)
        assert back.grid == soliton24.grid
        assert np.array_equal(back.values, soliton24.values)

    def test_binary_rejects_misaligned_header(self, tmp_path):
        path = tmp_path / "misaligned.bin"
        path.write_bytes(b"MBF1" + np.array([7, 64], dtype="<i8").tobytes()
                         + np.zeros(64).astype("<f8").tobytes())
        with pytest.raises(InvalidFieldError):
            read_field_binary(path)

    def test_binary_rejects_truncated_values(self, soliton24, tmp_path):
        path = tmp_path / "field.bin"
        write_field_binary(soliton24, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidFieldError):
            read_field_binary(path)

    def test_csv_rejects_misaligned_grid(self, tmp_path):
        # L = 7 with M = 64: unit translations would not be grid shifts
        grid = GridSpec(7, 64)
        path = tmp_path / "misaligned.csv"
        write_field_csv(Field(grid, np.cos(grid.x)), path)
        with pytest.raises(InvalidFieldError):
            read_field_csv(path)

    def test_csv_rejects_off_grid_x(self, soliton24, tmp_path):
        grid = soliton24.grid
        path = tmp_path / "shifted.csv"
        rows = zip(grid.x + 0.5 * grid.h, soliton24.values)
        path.write_text("x,value\n" + "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in rows))
        with pytest.raises(InvalidFieldError):
            read_field_csv(path)
        write_field_csv(soliton24, path)
        with pytest.raises(InvalidFieldError):
            read_field_csv(path, grid=GridSpec(12, grid.M))

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nonsense")
        with pytest.raises(ValueError):
            read_field_binary(path)


def test_h1_norm_matches_pairing(grid24, smooth_field):
    u = smooth_field(grid24, seed=21)
    explicit = np.sqrt(
        inner_l2(derivative(u), derivative(u)) + inner_l2(u, u)
    )
    assert norm_h1(u) == pytest.approx(explicit, rel=1e-10)
