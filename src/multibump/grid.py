"""Discretization on a truncated periodic 1D domain.

The computational domain is the interval [-L, L) with M equispaced points
and periodic boundary conditions.  Differential operators are applied in
the discrete Fourier basis, so they are exact for trigonometric
polynomials up to the Nyquist mode, and integer lattice translations are
exact cyclic shifts whenever the spacing divides 1.

All operations are pure functions of their inputs; grids and fields are
treated as immutable after construction.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidFieldError,
    LinearSolverError,
    MisalignedTranslationError,
)

__all__ = [
    "GridSpec",
    "Field",
    "laplacian_apply",
    "derivative",
    "translate",
    "inner_l2",
    "inner_h1v",
    "norm_h1",
    "FourierOperator",
    "SplitOperator",
    "minres",
    "lanczos",
    "RitzBlock",
    "lobpcg",
    "resolvent_solve",
    "operator_bottom_eigenvalue",
    "potential_samples",
    "write_field_csv",
    "read_field_csv",
    "write_field_binary",
    "read_field_binary",
]


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid on [-L, L) with M points and spacing h = 2L/M.

    L must be a positive integer so that integer lattice translations can
    be realized as exact grid shifts (translate checks per call that the
    requested offset is a whole number of points).  M must be even and at
    least 64.
    """

    L: int
    M: int

    def __post_init__(self):
        if int(self.L) != self.L or self.L <= 0:
            raise ValueError(f"half-width L must be a positive integer, got {self.L}")
        if self.M < 64 or self.M % 2 != 0:
            raise ValueError(f"point count M must be even and >= 64, got {self.M}")
        object.__setattr__(self, "L", int(self.L))
        object.__setattr__(self, "M", int(self.M))

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.M)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Real-FFT wavenumbers (rad/length), length M//2 + 1."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.M, d=self.h)

    def aligned_shift(self, a) -> int:
        """Number of grid points corresponding to a translation by a.

        Raises MisalignedTranslationError when a/h is not an integer.
        """
        steps = a / self.h
        rounded = round(steps)
        if abs(steps - rounded) > 1e-9:
            raise MisalignedTranslationError(
                f"translation by {a} is {steps} grid points; not an integer shift"
            )
        return int(rounded)


@dataclass(frozen=True)
class Field:
    """Real-valued grid function tied to a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.M,):
            raise InvalidFieldError(
                f"expected {self.grid.M} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidFieldError("field contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.M))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        return cls(grid, fn(grid.x))

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def _check_same_grid(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise GridMismatchError(f"grids differ: {u.grid} vs {v.grid}")


def potential_samples(V, grid: GridSpec) -> np.ndarray:
    """Sample a potential on the grid.

    Accepts an object with a ``sample(grid)`` method (a model.Potential) or
    an array of M samples.
    """
    vals = np.asarray(V.sample(grid) if hasattr(V, "sample") else V, dtype=float)
    if vals.shape != (grid.M,):
        raise ValueError(f"potential samples have shape {vals.shape}, expected ({grid.M},)")
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential samples contain non-finite entries")
    return vals


# -- differential operators ------------------------------------------------


def laplacian_apply(u: Field) -> Field:
    """Apply the (positive) operator -d^2/dx^2 in the Fourier basis."""
    return Field(u.grid, FourierOperator(u.grid, 0.0).apply(u.values))


def _derivative_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    coeffs = np.fft.rfft(values)
    k = grid.wavenumbers.copy()
    k[-1] = 0.0  # drop the Nyquist mode: ik at Nyquist has no real preimage
    return np.fft.irfft(1j * k * coeffs, n=grid.M)


def derivative(u: Field) -> Field:
    """First spectral derivative (Nyquist mode dropped)."""
    return Field(u.grid, _derivative_values(u.values, u.grid))


def translate(u: Field, a: int) -> Field:
    """Shift u by a: (translate(u, a))(x) = u(x - a), as an exact roll."""
    if abs(a) >= 2 * u.grid.L:
        raise MisalignedTranslationError(
            f"offset {a} exceeds the period 2L = {2 * u.grid.L}"
        )
    steps = u.grid.aligned_shift(a)
    return Field(u.grid, np.roll(u.values, steps))


# -- inner products and norms ----------------------------------------------


def inner_l2(u: Field, v: Field) -> float:
    """Quadrature L2 pairing h * sum(u_i v_i)."""
    _check_same_grid(u, v)
    return float(u.grid.h * np.dot(u.values, v.values))


def inner_h1v(u: Field, v: Field, V) -> float:
    """Form pairing integral(u' v' + V u v), evaluated as (-Lap u + V u, v)_2.

    An inner product only when the discrete -Lap + V is positive definite,
    which is not checked here: the callers that bring a potential in
    (model.positive_gauge, gluing.glue) establish it.
    """
    _check_same_grid(u, v)
    lhs = FourierOperator(u.grid, potential_samples(V, u.grid)).apply(u.values)
    return float(u.grid.h * np.dot(lhs, v.values))


def norm_h1(u: Field) -> float:
    """Standard H1 norm, sqrt(|u'|_2^2 + |u|_2^2)."""
    q = u.grid.h * (
        np.dot(laplacian_apply(u).values, u.values)
        + np.dot(u.values, u.values)
    )
    return float(np.sqrt(max(q, 0.0)))


def norm_h2(u: Field) -> float:
    """Standard H2 norm, sqrt(|u''|_2^2 + |u'|_2^2 + |u|_2^2)."""
    k2 = u.grid.wavenumbers**2
    coeffs = np.fft.rfft(u.values)
    weights = np.full(u.grid.M // 2 + 1, 2.0)
    weights[0] = 1.0
    if u.grid.M % 2 == 0:
        weights[-1] = 1.0
    spectrum = weights * (1.0 + k2 + k2**2) * np.abs(coeffs) ** 2
    return float(np.sqrt(u.grid.h * np.sum(spectrum) / u.grid.M))


# -- the operator -Lap + diag(weight) and its split form ---------------------

_CG_TOL = 1e-13  # sup-norm residual of a CG solve, relative to |rhs|


class FourierOperator:
    """-Lap + diag(weight) on a grid, or with border=u the symmetric block

        [ -Lap + diag(weight)   -u ]
        [        -u^T            0 ]

    acting on (v, mu) stacked as one vector of length M + 1.  It carries the
    operator scale that sets the roundoff floor of its solves, the CG solve,
    and the split forms (see SplitOperator) its Krylov solves run on: CG and
    MINRES with the Fourier preconditioner (-Lap + c)^{-1} are plain CG and
    MINRES on S A S with S = (-Lap + c)^{-1/2}.  Each solve fixes its own c.
    """

    def __init__(self, grid: GridSpec, weight: np.ndarray | float,
                 border: np.ndarray | None = None):
        self.grid, self.weight, self.border = grid, weight, border
        self.size = grid.M + (border is not None)
        self._k2 = grid.wavenumbers**2

    @property
    def scale(self) -> float:
        """Largest symbol plus largest weight: machine eps times this sets the
        roundoff floor of a residual."""
        return float(self._k2[-1] + np.max(np.abs(self.weight)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator times x (M values, or M + 1 when bordered); an
        unbordered operator also applies to each row of a stack of fields."""
        M, border = self.grid.M, self.border
        v = x if border is None else x[:M]
        top = np.fft.irfft(self._k2 * np.fft.rfft(v), n=M) + self.weight * v
        if border is None:
            return top
        return np.concatenate([top - x[M] * border, [-np.dot(border, v)]])

    def split(self, c: float) -> SplitOperator:
        """S A S in orthonormal real Fourier coordinates, S = (k^2 + c)^{-1/2}."""
        return SplitOperator(self, c)

    @property
    def minres_shift(self) -> float:
        """c = max(mean weight + 1, 1): the shift of the split form MINRES runs
        on, and of the Fourier preconditioner (k^2 + c)^{-1} of the bottom of
        the spectrum."""
        return max(float(np.mean(self.weight)) + 1.0, 1.0)

    def minres_split(self) -> SplitOperator:
        """The split form MINRES runs on: c = minres_shift."""
        return self.split(self.minres_shift)

    def cg(self, rhs: np.ndarray) -> np.ndarray:
        """CG for an SPD operator on its split form, c = max(mean weight, 0.05),
        so the split operator is a compact perturbation of the identity.

        Stops once the recursive residual meets _CG_TOL |rhs| and returns
        there if the true residual in the sup norm does too, or lies below
        the roundoff floor of the spectral operator (machine eps times its
        scale); else LinearSolverError with the true residual.
        """
        split = self.split(max(float(np.mean(self.weight)), 0.05))
        scale = float(np.max(np.abs(rhs)))
        if scale == 0.0:
            return np.zeros_like(rhs)
        target = _CG_TOL * scale

        r = split.forward(rhs)
        y = np.zeros_like(r)
        rr = np.dot(r, r)
        d = r.copy()
        for _ in range(4000):
            Ad = split.apply(d)
            dAd = np.dot(d, Ad)
            if dAd <= 0.0:
                raise LinearSolverError("CG direction of nonpositive curvature; operator not SPD")
            alpha = rr / dAd
            y += alpha * d
            r -= alpha * Ad
            # the grid residual's sup norm is at most its 2-norm, |S^{-1} r|
            if split.field_norm(r) < target:
                break
            rr_new = np.dot(r, r)
            d *= rr_new / rr
            d += r
            rr = rr_new
        else:
            raise LinearSolverError(
                f"CG stalled at residual {np.max(np.abs(rhs - self.apply(split.back(y)))):.3e}"
            )
        z = split.back(y)
        true_norm = np.max(np.abs(rhs - self.apply(z)))
        floor = 50 * np.finfo(float).eps * max(self.scale * float(np.max(np.abs(z))), scale)
        if not true_norm < max(target, floor):
            raise LinearSolverError(
                f"CG true residual {true_norm:.3e} misses its target {target:.3e}")
        return z


class SplitOperator:
    """S A S for a FourierOperator A, with S = (k^2 + c)^{-1/2} (identity on
    the border entry), in orthonormal real Fourier coordinates.

    A coordinate vector holds the rfft coefficients of a grid field, scaled so
    that the map from the M grid values is an isometry, and viewed as M + 2
    reals (the imaginary parts of the mean and Nyquist modes stay zero); the
    border entry follows when A is bordered, and the border itself becomes
    S u.  In these coordinates S is diagonal, so one apply is one irfft and
    one rfft.  Both transforms write into a coefficient and a field buffer
    the operator owns, so an apply allocates only the array it returns,
    which is fresh on every call (MINRES keeps its last two products).  A
    system A x = r becomes S A S y = S r (forward) with x = S y (back).
    shape, dtype and matvec make it a linear operator to scipy's solvers.
    """

    dtype = np.dtype(float)

    def __init__(self, op: FourierOperator, c: float):
        M, k2 = op.grid.M, op._k2
        iso = np.full(len(k2), np.sqrt(2.0 / M))  # rfft coefficient -> coordinate
        iso[0] = iso[-1] = np.sqrt(1.0 / M)
        s = 1.0 / np.sqrt(k2 + c)
        self.op, self._n = op, M + 2
        self._diag, self._in, self._out = k2 * s**2, s / iso, s * iso
        self._unscale = 1.0 / s
        self._coeffs, self._field = np.empty(len(k2), dtype=complex), np.empty(M)
        self._border = None if op.border is None else self.forward(op.border)
        self.shape = (self._n + (op.border is not None),) * 2

    def forward(self, r: np.ndarray) -> np.ndarray:
        """S r: grid values (plus the border entry) to split coordinates."""
        y = (self._out * np.fft.rfft(r[: self.op.grid.M])).view(float)
        return y if len(r) == self.op.grid.M else np.append(y, r[-1])

    def back(self, y: np.ndarray) -> np.ndarray:
        """S y: split coordinates to grid values (plus the border entry)."""
        v = np.fft.irfft(self._in * y[: self._n].view(complex), n=self.op.grid.M)
        return v if len(y) == self._n else np.append(v, y[-1])

    def field_norm(self, y: np.ndarray) -> float:
        """2-norm of the grid field S^{-1} y, without a transform."""
        return float(np.linalg.norm(self._unscale * y[: self._n].view(complex)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        n, border, coeffs, field = self._n, self._border, self._coeffs, self._field
        xc = x[:n].view(complex)
        np.multiply(self._in, xc, out=coeffs)
        np.fft.irfft(coeffs, n=self.op.grid.M, out=field)
        field *= self.op.weight
        result = np.empty(self.shape[0])
        out = result[:n].view(complex)
        np.fft.rfft(field, out=out)
        out *= self._out
        out += np.multiply(self._diag, xc, out=coeffs)
        if border is not None:
            result[:n] -= np.multiply(border, x[n], out=coeffs.view(float))
            result[n] = -np.dot(border, x[:n])
        return result

    def matvec(self, x):
        return self.apply(np.ravel(x))


def minres(A, b: np.ndarray, *, rtol: float = 1e-5, maxiter: int | None = None,
           callback=None):
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for a symmetric
    A from x = 0, without a preconditioner.

    A port of scipy.sparse.linalg.minres with its stopping tests and return
    convention: stops when |r| <= rtol |A| |x| (backward error), when
    |A r| <= rtol |A| |r| (a least-squares solution), at the eps and
    condition limits, or after maxiter iterations (default 5 n), when info is
    maxiter; otherwise info is 0.  callback(x) runs once per iteration.  The
    scalar recurrences run on Python floats and a SplitOperator is applied
    directly, so an iteration costs little more than its apply.
    """
    if isinstance(A, SplitOperator):
        matvec = A.apply
    else:  # a copy: the iteration updates the product in place
        def matvec(v):
            return np.array(A.matvec(v), dtype=float).ravel()
    b = np.asarray(b, dtype=float)
    n = len(b)
    maxiter = 5 * n if maxiter is None else maxiter
    eps = float(np.finfo(float).eps)
    x = np.zeros(n)
    beta1 = math.sqrt(float(np.dot(b, b)))
    if beta1 == 0.0:
        return x, 0
    r1 = r2 = y = b
    w, w2 = np.zeros(n), np.zeros(n)
    istop = itn = 0
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, math.inf, -1.0, 0.0
    while itn < maxiter:
        itn += 1
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(float(np.dot(y, y)))
        tnorm2 += alfa * alfa + oldb * oldb + beta * beta
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # b is an eigenvector: one step solves the system
        # previous rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar * gbar + dbar * dbar)
        gamma = max(math.sqrt(gbar * gbar + beta * beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w_k = (v_k - epsln_{k-1} w_{k-2} - delta_k w_{k-1}) / gamma_k, written
        # over w_{k-2}
        w, w2 = w2, w
        w *= -oldeps
        w += v
        w -= delta * w2
        w *= 1.0 / gamma
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)

        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(float(np.dot(x, x)))
        test1 = math.inf if ynorm == 0.0 or anorm == 0.0 else phibar / (anorm * ynorm)
        test2 = math.inf if anorm == 0.0 else root / anorm
        if istop == 0:
            if 1.0 + test2 <= 1.0:
                istop = 2
            if 1.0 + test1 <= 1.0:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if gmax / gmin >= 0.1 / eps:
                istop = 4
            if anorm * ynorm * eps >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if callback is not None:
            callback(x)
        if istop != 0:
            break
    return x, maxiter if istop == 6 else 0


# thread count of the scipy-openblas64 that numpy's wheels bundle: get, set
_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@cache
def _blas_thread_control():
    """(get, set) of the thread count of the BLAS behind numpy.linalg, looked
    up through numpy's LAPACK module, which links it; None when that BLAS
    does not export them."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    if not all(hasattr(lib, name) for name in _BLAS_THREADS):
        return None
    return tuple(getattr(lib, name) for name in _BLAS_THREADS)


@contextmanager
def _one_blas_thread():
    """The body's LAPACK calls on one BLAS thread, the previous count restored
    after (the count stays when it cannot be set).  Blocked LAPACK sums in an
    order that depends on the thread count, and on a small matrix the woken
    threads cost more than they save: on a 2-core x86 host with numpy's
    bundled OpenBLAS, an order-30 eigh took 3 ms of wall and CPU time on two
    threads and 0.1 ms on one."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get_threads, set_threads = control
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def lanczos(apply, gram, start: np.ndarray, steps: int, select, rtol: float):
    """Lanczos with full (two-pass) reorthogonalization for an operator that is
    self-adjoint in the metric (gram(x), y).

    start is unit in the metric; apply(q, gq) is the operator times the basis
    vector q, whose Gram image gq is passed along.  select(thetas) is the index
    of the wanted Ritz value among the ascending ones, or None while there is
    none.  Stops when that value has Ritz residual beta |s_last| at most
    rtol |theta|, or after steps steps.  Returns the Ritz values, the
    eigenvectors of the tridiagonal and the wanted index.
    """
    # the basis, filled row by row: growing stacked copies would fragment the
    # heap and raise the peak memory with every call
    basis = np.empty((steps + 1, len(start)))
    basis[0] = start
    gq = gram(start)
    alphas, betas = [], []
    for j in range(steps):
        w = apply(basis[j], gq)
        active = basis[: j + 1]
        coef = active @ gram(w)
        alphas.append(coef[-1])
        w -= coef @ active
        w -= (active @ gram(w)) @ active  # second pass: orthogonal to roundoff
        gq = gram(w)
        beta = float(np.sqrt(max(np.dot(w, gq), 0.0)))
        with _one_blas_thread():
            thetas, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        wanted = select(thetas)
        if wanted is not None and beta * abs(vecs[-1, wanted]) <= rtol * abs(thetas[wanted]):
            break
        betas.append(beta)
        basis[j + 1] = w / beta
        gq /= beta
    return thetas, vecs, wanted


_EIGSH_STEPS = 100  # Lanczos steps of eigsh: the order of its largest tridiagonal


def eigsh(apply, start: np.ndarray, rtol: float) -> float:
    """Largest eigenvalue of a symmetric positive definite operator: lanczos
    in the Euclidean metric from start, stopped at Ritz residual rtol
    relative.  LinearSolverError when _EIGSH_STEPS steps do not reach it
    (a run that meets it at the last step is refused too)."""
    thetas, _, top = lanczos(lambda q, _gq: apply(q), lambda x: x, start / np.linalg.norm(start),
                             _EIGSH_STEPS, lambda values: len(values) - 1, rtol)
    if len(thetas) == _EIGSH_STEPS:
        raise LinearSolverError(
            f"Lanczos missed Ritz residual {rtol:.1e} relative in {_EIGSH_STEPS} steps")
    return float(thetas[top])


@dataclass(frozen=True)
class RitzBlock:
    """Lowest Ritz pairs of a symmetric operator with their residual norms.

    Each Ritz value lies within its residual norm of an eigenvalue (the
    vectors are orthonormal), and the block's k values bound the k lowest
    eigenvalues from above.
    """

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray

    def certifies(self, points) -> bool:
        """True when no residual interval holds one of the points and the top
        interval lies above all of them: the count below each point is then
        the block's, provided the block holds the lowest eigenvalues."""
        lo, hi = self.values - self.residuals, self.values + self.residuals
        return lo[-1] > max(points) and not any(np.any((lo <= p) & (p <= hi)) for p in points)


_ORTHO_TOL = 1e-8  # |Q^T v| above which a new basis column is not orthogonal to Q


def _orthonormal_extension(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning V off the orthonormal columns of Q:
    projection and QR, twice, which is enough (Giraud, Langou & Rozloznik
    2005).  A column that V holds only to roundoff comes back arbitrary; it
    is kept only when it came back orthogonal to Q too."""
    for _ in range(2):
        with _one_blas_thread():
            V = np.linalg.qr(V - Q @ (Q.T @ V))[0]
    return V[:, np.linalg.norm(Q.T @ V, axis=0) < _ORTHO_TOL]


def _symmetric(G: np.ndarray) -> np.ndarray:
    return 0.5 * (G + G.T)


def lobpcg(apply, X: np.ndarray, tol: float, maxiter: int, precond, stop,
           constraint: np.ndarray | None = None) -> RitzBlock:
    """Block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the lowest
    eigenpairs of a symmetric operator, from the k columns of X.

    apply(V) is the operator on the columns of V and precond(R) the
    preconditioner on residual columns.  With a constraint block Y, the
    iteration runs on the complement of Y with the compression P A P, P the
    orthogonal projector off Y, whose residuals vanish at its eigenpairs.
    Each iteration is one Rayleigh-Ritz, np.linalg.eigh of the compressed
    operator on the orthonormal basis [X, W, P] (Duersch, Shao, Yang & Gu,
    SIAM J. Sci. Comput. 40, 2018): W holds the preconditioned residuals of
    the columns whose residual is above tol, and P their last step's move
    outside the previous X, made orthonormal to the new X in the Ritz
    coordinates, so only W is orthonormalized against the basis.  The basis
    has at most 3k columns besides Y's, which must fit in the dimension.

    stop(block) is tested at every iteration but the first, whose block is
    only the start's Rayleigh-Ritz: columns that have not moved yet can clear
    any test on their residual intervals while the lowest eigenvalues are
    still missing from the block.  The run ends when stop holds, when every
    residual is at most tol, or after maxiter iterations.  The returned block
    comes from one last Rayleigh-Ritz on X with the operator applied afresh,
    so its residual norms are those of its pairs.
    """
    n, k = X.shape
    Y = np.zeros((n, 0))
    if constraint is not None:
        Y = _orthonormal_extension(Y, constraint)

    def image(V):
        AV = apply(V)
        return AV - Y @ (Y.T @ AV)

    S = _orthonormal_extension(Y, X)
    AS = image(S)
    for iteration in range(maxiter + 1):
        with _one_blas_thread():
            values, coef = np.linalg.eigh(_symmetric(S.T @ AS))
        values, coef = values[:k], coef[:, :k]
        X, AX = S @ coef, AS @ coef
        R = AX - X * values
        residuals = np.linalg.norm(R, axis=0)
        active = residuals > tol
        if (not active.any() or iteration == maxiter
                or (iteration > 0 and stop(RitzBlock(values, X, residuals)))):
            break
        # the move of the active columns outside the previous X (the first k
        # columns of S), orthonormal to the new X in the Ritz coordinates
        move = coef[:, active].copy()
        move[:k] = 0.0
        move = _orthonormal_extension(coef, move) if S.shape[1] > k else move[:, :0]
        P, AP = S @ move, AS @ move
        W = _orthonormal_extension(np.hstack([Y, X, P]), precond(R[:, active]))
        S, AS = np.hstack([X, W, P]), np.hstack([AX, image(W), AP])
    with _one_blas_thread():
        X = np.linalg.qr(X)[0]
    AX = image(X)
    with _one_blas_thread():
        values, coef = np.linalg.eigh(_symmetric(X.T @ AX))
    X, AX = X @ coef, AX @ coef
    return RitzBlock(values, X, np.linalg.norm(AX - X * values, axis=0))


# -- resolvent of -Lap + V ----------------------------------------------------

def operator_bottom_eigenvalue(V, grid: GridSpec) -> float:
    """Smallest eigenvalue of the discrete periodic -Lap + V.

    Computed by Lanczos iteration on the inverse operator (the inverse is
    applied by conjugate gradients with a safe shift below min V), cached
    per (grid, potential samples) for the most recently used potentials.
    """
    return _bottom_eigenvalue(grid, potential_samples(V, grid).tobytes())


@lru_cache(maxsize=16)  # each ground state and each glue asks again for its (grid, V)
def _bottom_eigenvalue(grid: GridSpec, samples: bytes) -> float:
    vs = np.frombuffer(samples)
    safe_shift = float(vs.min()) - 1.0
    shifted = FourierOperator(grid, vs - safe_shift)
    rng = np.random.default_rng(0)
    v0 = np.ones(grid.M) + 1e-3 * rng.standard_normal(grid.M)
    return safe_shift + 1.0 / eigsh(shifted.cg, v0, 1e-12)


def resolvent_solve(g: Field, V) -> Field:
    """Solve (-Lap + V) z = g, to sup-norm residual _CG_TOL |g|.

    -Lap + V must be positive definite; that is checked where the potential
    enters (model.positive_gauge, gluing.glue), not here.  CG raises
    LinearSolverError when it meets a direction of nonpositive curvature.
    """
    vs = potential_samples(V, g.grid)
    return Field(g.grid, FourierOperator(g.grid, vs).cg(g.values))


# -- serialization -----------------------------------------------------------

_BINARY_MAGIC = b"MBF1"


def write_field_csv(u: Field, path) -> None:
    """Two columns x,value with shortest round-trip decimals."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for xi, vi in zip(u.grid.x, u.values):
            fh.write(f"{float(xi)!r},{float(vi)!r}\n")


def read_field_csv(path, grid: GridSpec | None = None) -> Field:
    """Field written by write_field_csv; the grid is inferred from x unless given.

    Raises InvalidFieldError when M is not a positive multiple of 2L or the
    x column is not the grid's -L + h*i.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x, vals = data[:, 0], data[:, 1]
    if grid is None:
        M = len(vals)
        L = round((x[1] - x[0]) * M / 2)
        if L <= 0 or M % (2 * L) != 0:
            raise InvalidFieldError(f"M = {M} is not a positive multiple of 2L = {2 * L}")
        grid = GridSpec(L, M)
    if len(x) != grid.M or np.max(np.abs(x - grid.x)) > 1e-6 * grid.h:
        raise InvalidFieldError(f"x column is not the grid -{grid.L} + {grid.h!r} i")
    return Field(grid, vals)


def write_field_binary(u: Field, path) -> None:
    """Header (magic, L, M) followed by M little-endian float64 values."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        np.array([u.grid.L, u.grid.M], dtype="<i8").tofile(fh)
        u.values.astype("<f8").tofile(fh)


def read_field_binary(path) -> Field:
    """Field written by write_field_binary.

    Raises InvalidFieldError when the header's M is not a positive multiple
    of 2L (unit translations would not be grid shifts) or the file holds
    fewer than M values.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"not a field binary (magic {magic!r})")
        header, data = fh.read(16), fh.read()
    if len(header) < 16:
        raise InvalidFieldError("field binary header is truncated")
    L, M = (int(n) for n in np.frombuffer(header, dtype="<i8"))
    if L <= 0 or M <= 0 or M % (2 * L) != 0:
        raise InvalidFieldError(f"header M = {M} is not a positive multiple of 2L = {2 * L}")
    if len(data) < 8 * M:
        raise InvalidFieldError(f"field binary holds {len(data) // 8} of its M = {M} values")
    return Field(GridSpec(L, M), np.frombuffer(data, dtype="<f8", count=M))
