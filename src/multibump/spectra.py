"""Spectral diagnostics of the linearization at constrained critical points.

The central object is the symmetric operator

    L = -Lap + V - lambda - f'(u),

whose quadratic form is the second derivative of the energy on the
multiplier-shifted functional.  Counting its negative eigenvalues over
the whole space gives the free Morse index; deflating the direction of u
and counting on the tangent space of the mass sphere gives the
constrained Morse index.  The sign of (z, u)_2 with L z = u decides which
of the two indices the constraint sees and classifies nondegeneracy.

Counts are matrix-free.  tau0 is TAU0_RELATIVE times the operator's scale,
k_max^2 + max |weight|, which bounds every |eigenvalue| of L (Weyl), so tau0
is conservative and known before any eigenvalue is sought.  The free count,
the gap and the near-zero eigenvalues come from a Fourier-preconditioned
LOBPCG block of the lowest eigenvalues of L (grid.lobpcg, Knyazev 2001),
grown until its Ritz residuals certify the count; each run tests the
certificate at every iteration and stops once the values the outputs read
are converged (Parlett 1998, ch. 10-11: a Ritz value lies within its
residual of an eigenvalue).  z and the pairings
u^T (L - s)^{-1} u come from solves of (L - s) x = u, and the constrained
count from the inertia of the bordered matrix [[L - s, u], [u^T, 0]].
Near-zero eigenvalues (within tau0) are reported and make counts
provisional.  A Linearization is fixed once built: a query certifies on a
block and a random generator of its own.

The instability pencil (L1, L2^{-1}) on the tangent space is matrix-free
too: its negative eigenvalues are counted by the certified constrained
count (Sylvester inertia), the lowest one comes from Lanczos on the
inverse pencil with bordered solves, and it is returned only when its
residual bounds its error below its size, with the error of the L2 solves
weighed by a lower bound on the tangent spectrum of L2: half the lower end
of a one-column LOBPCG probe's interval, certified by the constrained
count of L2 below it.  Every solve here is gluing._solve_bordered run to the
roundoff floor.

One dense computation remains: the full spectrum the spectrum command
writes, dense_spectrum.  -Lap commutes with every reflection of the grid,
so when the weight of L is symmetric about a grid point or a half-grid
point (found from its autoconvolution), the spectrum is that of an even
and an odd block of order about M/2, built from the Laplacian column
without an M x M matrix: a quarter of the flops (Fassler & Stiefel 1992).
Otherwise the full matrix is solved.  Either runs on one BLAS thread, so
the table does not depend on the thread count (Demmel & Nguyen 2015).  The
module needs numpy only: the circulant, Toeplitz and Hankel matrices are
copied out of strided views of their first columns, and every eigensolver
it runs is grid's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gluing as gl
from . import grid as gr
from . import model as md
from .errors import (
    LinearSolverError,
    NoInstabilityDetected,
    NotFreelyNondegenerateError,
    PositivityViolationError,
    PreconditionError,
    UncertifiedCountError,
)
from .grid import Field, RitzBlock
from .stationary import ConstrainedCriticalPoint

__all__ = [
    "MorseCount",
    "Linearization",
    "SpectralReport",
    "InstabilityResult",
    "linearized_matrix",
    "dense_spectrum",
    "classify",
    "instability_eigenvalue",
]

# zero threshold and LOBPCG residual target, as fractions of the operator's
# scale k_max^2 + max |weight|: at least every |eigenvalue| (Weyl), and 6.1e-4
# relative above the top one on GridSpec(24, 1536)
TAU0_RELATIVE = 1e-6
_RITZ_TOL = 1e-12
_LOBPCG_MAXITER = 200  # iterations per LOBPCG run
_BLOCK_START, _BLOCK_CAP = 3, 64  # LOBPCG block size: first try, and the cap
_SOLVE_RTOL = 1e-10   # sup-norm residual of a MINRES solve, relative to max(1, |rhs|)
_FLOOR_RTOL = 0.1 * np.finfo(float).eps  # MINRES rtol: every solve runs to the roundoff floor
_LANCZOS_STEPS, _LANCZOS_RTOL = 100, 1e-10  # pencil Lanczos: step cap, Ritz residual target
_POSITIVITY_TOL = 1e4 * np.finfo(float).eps  # roundoff band below zero, relative to the scale
_KERNEL_CHECK_TOL = 1e-6  # sup norm of L2 phi above which phi is not in its kernel
# max |w - R_s w| up to which dense_spectrum solves parity blocks: they are the
# matrix of the symmetrized weight, whose eigenvalues move by at most half of
# it (Weyl), far below the table's 1e-10 absolute accuracy
_PARITY_TOL = 1e-12


def _laplacian_column(grid) -> np.ndarray:
    """First column 0.5 (c[k] + c[-k]), c = irfft(k^2), of the exactly
    symmetric circulant that discretizes -Lap."""
    c = np.fft.irfft(grid.wavenumbers**2, n=grid.M)
    return 0.5 * (c + np.roll(c[::-1], 1))


def linearized_matrix(u: Field, lam: float, V, f) -> np.ndarray:
    """Dense symmetric discretization of -Lap + V - lambda - f'(u), a new
    writable M x M array built in one allocation and cached nowhere.  -Lap is
    the circulant of the symmetrized first column: entry by entry the same
    floating-point sum as 0.5 (C + C^T) for C = circulant(c), and exactly
    symmetric.  It is the tests' dense oracle and dense_spectrum's fallback."""
    c = _laplacian_column(u.grid)
    # row i of circulant(c) is c reversed and rolled by i + 1: a window of
    # c[::-1] repeated, copied out of a strided view
    mat = sliding_window_view(np.tile(c[::-1], 2)[:-1], len(c))[::-1].copy()
    mat.flat[:: u.grid.M + 1] += md.linearized_operator(u, lam, V, f).weight
    return mat


def _reflection_centre(w: np.ndarray) -> tuple[int, float]:
    """The s maximizing <w, R_s w> over the reflections R_s: j -> (s - j) mod M,
    and max |w - R_s w|.  By Cauchy-Schwarz <w, R_s w> <= |w|^2, with equality
    exactly where w is symmetric, and <w, R_s w> is the cyclic
    autoconvolution of w at s."""
    s = int(np.argmax(np.fft.irfft(np.fft.rfft(w) ** 2, n=len(w))))
    return s, float(np.max(np.abs(w - np.roll(w[::-1], s + 1))))


def _parity_spectrum(c: np.ndarray, w: np.ndarray, s: int) -> np.ndarray:
    """Sorted eigenvalues of circulant(c) + diag(w), w symmetrized about s,
    from its even and odd blocks in the orthonormal basis
    (e_p +- e_{s-p}) / sqrt(2), built and solved one at a time.  For s = 2a
    they act on the points a + k, k = 0 ... M/2: the even block is
    G (T + H) G + diag(w), G = 1/sqrt(2) at the fixed points k = 0 and M/2,
    and the odd block T - H + diag(w) on k = 1 ... M/2 - 1, with
    T[k, l] = c[|k - l|] and H[k, l] = c[(k + l) mod M].  For s = 2a - 1 they
    pair a + k with a - 1 - k, k = 0 ... M/2 - 1, with H[k, l] = c[k + l + 1]
    and no fixed point."""
    M = len(c)
    r = s % 2
    n = M // 2 + 1 - r
    points = (s + r) // 2 + np.arange(n)
    w_half = 0.5 * (w[points % M] + w[(s - points) % M])
    c_ext = np.append(c, c[0])  # c[(k + l) mod M] up to k + l = M
    # strided views, rows k: T from c[n-1:0:-1] c[:n], H from c_ext[r + k:]
    toeplitz = sliding_window_view(np.concatenate([c[n - 1:0:-1], c[:n]]), n)[::-1]
    hankel = sliding_window_view(c_ext[r:r + 2 * n - 1], n)
    values = []
    for combine in (np.add, np.subtract):
        block = combine(toeplitz, hankel)
        if r == 0 and combine is np.add:
            block[[0, -1]] *= np.sqrt(0.5)
            block[:, [0, -1]] *= np.sqrt(0.5)
        block.flat[:: n + 1] += w_half
        # the fixed points have no odd component: their rows of T - H vanish
        values.append(np.linalg.eigvalsh(
            block[1:-1, 1:-1] if r == 0 and combine is np.subtract else block))
        del block  # freed before the next block is built
    return np.sort(np.concatenate(values))


def dense_spectrum(u: Field, lam: float, V, f) -> np.ndarray:
    """Sorted eigenvalues of linearized_matrix(u, lam, V, f), the same on any
    BLAS thread count.  -Lap commutes with every reflection of the grid, so
    when the weight w of L is symmetric about some s to _PARITY_TOL, L splits
    into an even and an odd block of order about M/2 (a quarter of the dense
    flops), built from the Laplacian column with no M x M matrix; otherwise
    the full matrix is solved.  Every solve runs on one BLAS thread, and the
    previous count is restored: blocked LAPACK sums in an order that depends
    on the thread count."""
    if gr._blas_thread_control() is None:
        raise PreconditionError("cannot run the eigenvalue table on one BLAS thread: "
                                f"numpy.linalg's BLAS does not export {gr._BLAS_THREADS}")
    w = md.linearized_operator(u, lam, V, f).weight
    s, asymmetry = _reflection_centre(w)
    with gr._one_blas_thread():
        if asymmetry > _PARITY_TOL:
            return np.linalg.eigvalsh(linearized_matrix(u, lam, V, f))
        return _parity_spectrum(_laplacian_column(u.grid), w, s)


@dataclass(frozen=True)
class MorseCount:
    """Count of eigenvalues below -tau0, with near-zero ones reported.

    A nonempty near_zero list makes the count provisional: eigenvalues in
    [-tau0, tau0] are not counted either way.
    """

    count: int
    near_zero: tuple
    tau0: float

    @property
    def provisional(self) -> bool:
        return len(self.near_zero) > 0


def _count_below_threshold(eigenvalues: np.ndarray, tau0: float) -> MorseCount:
    near = tuple(float(v) for v in eigenvalues[np.abs(eigenvalues) <= tau0])
    count = int(np.count_nonzero(eigenvalues < -tau0))
    return MorseCount(count=count, near_zero=near, tau0=tau0)


def _lowest_ritz(op: gr.FourierOperator, start: np.ndarray, tol: float,
                 constraint: np.ndarray | None, settled) -> RitzBlock:
    """grid.lobpcg on op from the columns of start, preconditioned by the
    Fourier multiplier (k^2 + op.minres_shift)^{-1} of the bottom of the
    spectrum, for up to _LOBPCG_MAXITER iterations; with a constraint column,
    on the compression of op to its complement.  It stops at the first block
    whose residuals are all <= tol or for which settled(block) holds."""
    n = op.grid.M
    symbol = op.grid.wavenumbers**2 + op.minres_shift
    return gr.lobpcg(lambda X: op.apply(X.T).T, start, tol, _LOBPCG_MAXITER,
                     precond=lambda R: np.fft.irfft(np.fft.rfft(R.T) / symbol, n=n).T,
                     constraint=constraint, stop=settled)


class Linearization:
    """Symmetric L and constraint direction u, matrix-free.

    L is a grid.FourierOperator (only), whose solves are
    gluing._solve_bordered, refined MINRES on its split form, run to the
    roundoff floor.  L is never formed.  tau0 (used for both counts) and the
    Ritz tolerance are TAU0_RELATIVE and _RITZ_TOL times op.scale, which is
    at least every |eigenvalue| of L (Weyl), so tau0 is conservative.  The
    lowest eigenvalues come from a LOBPCG block preconditioned by
    (k^2 + c)^{-1}, whose iteration stops as soon as the block certifies
    the band [-tau0, tau0] and every Ritz value an output reads (the gap
    value and the near-zero values) has residual <= the Ritz tolerance; the
    other values need only clear the certificate.  tau0, the certified
    block, the gap and the free count are set at construction; z = L^{-1} u
    and the constrained count are computed on first use.  No query changes
    a Linearization: each certifies on a block of its own, drawn from a
    generator of its own.
    """

    def __init__(self, op: gr.FourierOperator, u: Field):
        self.op, self.u = op, u
        self.tau0 = TAU0_RELATIVE * op.scale
        self._ritz_tol = _RITZ_TOL * op.scale
        self.block = self._certify((-self.tau0, self.tau0), np.random.default_rng(0))
        self.gap = float(np.min(np.abs(self.block.values)))
        self.free = _count_below_threshold(self.block.values, self.tau0)

    @classmethod
    def assemble(cls, u: Field, lam: float, V, f) -> "Linearization":
        return cls(md.linearized_operator(u, lam, V, f), u)

    def _certify(self, points, rng, constraint=None, block: RitzBlock | None = None) -> RitzBlock:
        """Run a LOBPCG block from _BLOCK_START columns of rng (or take block)
        and double it with more columns of rng, restarting from its vectors,
        until it is settled: it certifies the counts below points, and every
        Ritz value an output reads is converged to the Ritz tolerance, the
        one nearest zero (the gap) and those within tau0 (reported, and
        refined into kernel vectors).  At the block cap a block that
        certifies is taken as it is; else UncertifiedCountError."""
        n = len(self.u.values)
        limit = min(_BLOCK_CAP, (n - (constraint is not None)) // 3)  # LOBPCG's basis fits

        def settled(block: RitzBlock) -> bool:
            read = np.abs(block.values) <= self.tau0
            read[np.argmin(np.abs(block.values))] = True
            converged = np.all(block.residuals[read] <= self._ritz_tol)
            return block.certifies(points) and bool(converged)

        def ritz(start: np.ndarray) -> RitzBlock:
            return _lowest_ritz(self.op, start, self._ritz_tol, constraint, settled)

        if block is None:
            block = ritz(rng.standard_normal((n, min(_BLOCK_START, limit))))
        while not settled(block):
            size = len(block.values)
            if size >= limit:
                if block.certifies(points):
                    break
                raise UncertifiedCountError(
                    f"Ritz block of {size} does not certify the count below "
                    f"{max(points):.3e} (largest residual {np.max(block.residuals):.3e})",
                    block_size=size, residual=float(np.max(block.residuals)),
                )
            fresh = rng.standard_normal((n, min(2 * size, limit) - size))
            block = ritz(np.hstack([block.vectors, fresh]))
        return block

    def _solve(self, s: float, rhs: np.ndarray):
        """(x, residual rhs - (L - s) x) for (L - s) x = rhs, solved to the
        roundoff floor."""
        shifted = gr.FourierOperator(self.op.grid, self.op.weight - s)
        x = gl._solve_bordered(shifted, rhs, rtol=_FLOOR_RTOL)
        return x, rhs - shifted.apply(x)

    @cached_property
    def _solution(self):
        return self._solve(0.0, self.u.values)

    @cached_property
    def z(self) -> Field:
        """Solution of L z = u, defined whenever L has no near-zero eigenvalue."""
        if self.gap <= self.tau0:
            raise NotFreelyNondegenerateError(
                f"spectral gap {self.gap:.3e} is below tau0 = {self.tau0:.3e}"
            )
        solution, residual = self._solution
        residual = float(np.max(np.abs(residual)))
        if residual > _SOLVE_RTOL * max(1.0, np.max(np.abs(self.u.values))):
            raise NotFreelyNondegenerateError(f"z-solve residual {residual:.3e}")
        return Field(self.u.grid, solution)

    def count_below(self, s: float) -> int:
        """Constrained eigenvalues below s, for s not an eigenvalue of L.

        Haynsworth inertia additivity on [[L - s, u], [u^T, 0]] gives
        #constrained below s = #free below s - 1 + [u^T (L - s)^{-1} u > 0];
        a block of its own, grown from self.block, certifies the free count
        below s (and still the band [-tau0, tau0]).  The solve of
        (L - s) x = u stops at its roundoff floor, which grows with |x| as s
        nears a free eigenvalue; the pairing moves by at most |x| |r| (r its
        residual), and LinearSolverError is raised only when that could flip
        its sign.
        """
        rng = np.random.default_rng(0)
        block = self._certify((-self.tau0, self.tau0, s), rng, block=self.block)
        u = self.u.values
        solution, residual = self._solve(s, u)
        pairing = float(u @ solution)
        error = float(np.linalg.norm(solution) * np.linalg.norm(residual))
        if not abs(pairing) > error:
            raise LinearSolverError(
                f"pairing {pairing:.3e} at s = {s:.3e} is within its roundoff error {error:.3e}")
        return int(np.count_nonzero(block.values < s)) - 1 + int(pairing > 0)

    @cached_property
    def constrained(self) -> MorseCount:
        """Constrained count below -tau0, with near-zero eigenvalues reported.

        With no free eigenvalue in [-tau0, tau0], s -> u^T (L - s)^{-1} u
        increases across the band and vanishes at the constrained
        eigenvalues in it: its sign at 0, that of (z, u)_2, gives the count
        and one shifted solve at the far end shows the band empty.  Else a
        LOBPCG block on the complement of u runs and reports the near-zero
        values.
        """
        tau0 = self.tau0
        if self.gap > tau0:
            positive = bool(self.u.values @ self._solution[0] > 0)
            count = self.free.count - 1 + positive
            if count == self.count_below(-tau0 if positive else tau0):
                return MorseCount(count=count, near_zero=(), tau0=tau0)
        block = self._certify((-tau0, tau0), np.random.default_rng(0), self.u.values[:, None])
        return _count_below_threshold(block.values, tau0)


@dataclass(frozen=True)
class SpectralReport:
    """Morse data and nondegeneracy classification at a critical point.

    classification is one of 'fully_nondegenerate_neg' ((z,u)_2 < 0, so
    the constrained index sits one below the free index),
    'fully_nondegenerate_pos' ((z,u)_2 > 0, indices agree) or
    'degenerate' (gap or |(z,u)_2| below tau0; counts provisional).
    block_size and ritz_residual (the largest residual norm of the block)
    are the certificate of the free count.
    """

    m: int
    m_f: int
    z_dot_u: float
    spectral_gap: float
    classification: str
    eigenvalues_near_zero: tuple = ()
    tau0: float = 0.0
    provisional: bool = False
    block_size: int = 0
    ritz_residual: float = 0.0

    def __post_init__(self):
        if self.provisional or self.classification == "degenerate":
            return
        rules = {  # sign of (z,u)_2 and free index of each nondegenerate class
            "fully_nondegenerate_pos": (1.0, self.m),
            "fully_nondegenerate_neg": (-1.0, self.m + 1),
        }
        if self.classification not in rules:
            raise ValueError(f"unknown classification {self.classification!r}")
        sign, m_f = rules[self.classification]
        if not (np.sign(self.z_dot_u) == sign and self.m_f == m_f):
            raise ValueError(
                f"{self.classification} requires m_f == {m_f} and (z,u)_2 of sign {sign:+.0f}, "
                f"got ({self.m}, {self.m_f}), (z,u)_2 = {self.z_dot_u:.3e}"
            )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["eigenvalues_near_zero"] = list(self.eigenvalues_near_zero)
        return out


def classify(u: Field, lam: float, V, f) -> SpectralReport:
    """Assemble the linearization; report indices, (z,u)_2 and the class."""
    lin = Linearization.assemble(u, lam, V, f)
    tau0, gap = lin.tau0, lin.gap
    z_dot = gr.inner_l2(lin.z, u) if gap > tau0 else np.nan

    if not abs(z_dot) > tau0:  # also when z_dot is nan
        classification = "degenerate"
    elif z_dot > 0:
        classification = "fully_nondegenerate_pos"
    else:
        classification = "fully_nondegenerate_neg"

    free, constrained = lin.free, lin.constrained
    return SpectralReport(
        m=constrained.count,
        m_f=free.count,
        z_dot_u=float(z_dot),
        spectral_gap=gap,
        classification=classification,
        eigenvalues_near_zero=free.near_zero + constrained.near_zero,
        tau0=tau0,
        provisional=free.provisional or constrained.provisional,
        block_size=len(lin.block.values),
        ritz_residual=float(np.max(lin.block.residuals)),
    )


# -- linearized Schrodinger flow: unstable eigenvalue --------------------------


@dataclass(frozen=True)
class InstabilityResult:
    """Positive eigenvalue of the linearized flow with its eigenvector data.

    rho = sqrt(-mu) where mu is the minimum of the constrained quotient;
    v is the quotient minimizer (orthogonal to the wave), and beta the
    multiplier that closes the eigenvector reconstruction.  eigen_residual is
    the block residual relative to max(1, |v|_inf, |second_component|_inf).
    """

    rho: float
    mu: float
    v: Field
    beta: float
    second_component: Field
    eigen_residual: float


def _tangent_solve(op: gr.FourierOperator, rhs: np.ndarray) -> np.ndarray:
    """x orthogonal to the border b with P A x = rhs (rhs orthogonal to b, P
    the orthogonal projector off b) for the operator A bordered by b, solved
    to the roundoff floor.  A solution along a near-null direction of A is
    large and its small components carry the pencil, so no fixed multiple
    of the floor will do."""
    return gl._solve_bordered(op, np.append(rhs, 0.0), rtol=_FLOOR_RTOL)[:-1]


def _tangent_kernel(lin: Linearization) -> list:
    """Unit kernel vectors of L1 on the tangent space: the block's near-zero
    Ritz vectors (|theta| <= tau0) that are orthogonal to u, each refined by
    one Newton (Jacobi-Davidson) correction so that it is a kernel vector to
    roundoff (a translation mode when V is constant)."""
    op, u = lin.op, lin.u.values / np.linalg.norm(lin.u.values)
    kernel = []
    for theta, e in zip(lin.block.values, lin.block.vectors.T):
        if abs(theta) > lin.tau0:
            continue
        e = e / np.linalg.norm(e)
        correction = gr.FourierOperator(op.grid, op.weight - theta, border=e)
        e = e + _tangent_solve(correction, theta * e - op.apply(e))
        if abs(u @ e) <= 1e-8 * np.linalg.norm(e):
            e -= (u @ e) * u
            kernel.append(e / np.linalg.norm(e))
    return kernel


class _Pencil:
    """The pencil (L1, L2^{-1}) on the tangent space of the mass sphere,
    matrix-free: L1t y and L2t y are Fourier applies followed by P, the
    orthogonal projector off u; their inverses are bordered solves.

    Lanczos runs on K^{-1} = L2t^{-1} L1t^{-1}, which acts on y = L2t^{-1} x
    and is self-adjoint in the metric (L2 y, y).  A tangent kernel of L1 is
    deflated: y stays Euclidean-orthogonal to it, which is the
    L2t^{-1}-orthogonal complement of the kernel in x.
    """

    def __init__(self, lin: Linearization, L2: gr.FourierOperator):
        u, grid = lin.u.values, lin.u.grid
        self.L2, self.u_unit = L2, u / np.linalg.norm(u)
        self._L1b = gr.FourierOperator(grid, lin.op.weight, border=u)
        self._L2b = gr.FourierOperator(grid, L2.weight, border=u)
        # kernel vectors e with their images g = L2t^{-1} e
        self.kernel = [(e, self.l2_inverse(e)) for e in _tangent_kernel(lin)]
        self.images = []  # L1t^{-1} of each Lanczos vector, in order

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - (self.u_unit @ x) * self.u_unit

    def l2_inverse(self, x: np.ndarray) -> np.ndarray:
        return _tangent_solve(self._L2b, x)

    def deflate(self, y: np.ndarray, x: np.ndarray):
        """The pair (y, x = L2t y) with y moved L2t-orthogonally off the
        kernel's images."""
        for e, g in self.kernel:
            c = (e @ y) / (e @ g)
            y, x = y - c * g, x - c * e
        return y, x

    def inverse_step(self, q: np.ndarray) -> tuple:
        """K^{-1} q (and no Gram image, for lanczos); records z = L1t^{-1} q,
        whose combinations are the x."""
        z = _tangent_solve(self._L1b, q)
        y, z = self.deflate(self.l2_inverse(z), z)
        self.images.append(z)
        return y, None

    def start(self, rng) -> np.ndarray:
        """A seeded start, unit in the metric, off the kernel."""
        y = self.project(rng.standard_normal(len(self.u_unit)))
        y, x = self.deflate(y, self.project(self.L2.apply(y)))
        return y / np.sqrt(y @ x)


def instability_eigenvalue(phi: ConstrainedCriticalPoint, V, f) -> InstabilityResult:
    """Construct the positive eigenvalue of the linearized flow at phi.

    Preconditions: phi positive, and the multiplier below the bottom of
    -Lap + V.  mu is the lowest eigenvalue of P L1 P x = mu P L2^{-1} P x on
    the tangent space, and the block eigenvector is

        w = (x, -rho L2^{-1} x + beta phi / rho),      rho = sqrt(-mu).

    Matrix-free throughout.  By Sylvester inertia the pencil has exactly
    m = Linearization.count_below(-tau0) negative eigenvalues, so m = 0
    raises NoInstabilityDetected.  Otherwise Lanczos on
    K^{-1} = L2t^{-1} L1t^{-1} (see _Pencil) takes the m-th lowest Ritz value
    1/theta; x = L1t^{-1} y is its Ritz vector in the original coordinates
    and mu the quotient (L1 x, x) / (x, L2t^{-1} x).  mu is accepted only
    when the pencil residual r = P L1 x - mu L2t^{-1} x, measured in grid
    coordinates, bounds its distance to an eigenvalue (Kato) below |mu|;
    else NoInstabilityDetected.  PositivityViolationError when the lowest
    Ritz value of L2 on the tangent space, an upper bound on its lowest
    eigenvalue there, lies below a roundoff band.  That probe stops once it
    is positive to 10 % (value - residual > 0, residual <= 0.1 value) or its
    residual interval lies below the band.  Its interval holds a tangent
    eigenvalue of L2, not necessarily the lowest, so the floor the Kato
    bound divides by, half of value - residual, is certified by
    Haynsworth's count on L2 (Linearization.count_below): no tangent
    eigenvalue lies below it.  NoInstabilityDetected when the floor is not
    positive or the count below it is not 0; UncertifiedCountError when no
    block certifies that count.
    """
    u, lam = phi.u, phi.lam
    grid = u.grid
    if np.min(u.values) <= 0.0:
        raise PreconditionError("instability construction needs a positive wave")
    bottom = gr.operator_bottom_eigenvalue(V, grid)
    if not lam < bottom:
        raise PreconditionError(
            f"multiplier {lam:.6g} must lie below the spectrum bottom {bottom:.6g}"
        )

    lin = Linearization.assemble(u, lam, V, f)
    # comparison operator with the ratio f(phi)/phi taken as |phi|^(p-2)
    L2 = gr.FourierOperator(grid, gr.potential_samples(V, grid) - lam
                            - np.abs(u.values) ** (f.p - 2.0))
    kernel_residual = float(np.max(np.abs(L2.apply(u.values))))
    if kernel_residual > _KERNEL_CHECK_TOL:
        raise PreconditionError(
            f"wave is not in the kernel of the comparison operator "
            f"(residual {kernel_residual:.3e})"
        )
    # at multibump points the antisymmetric partner of the kernel sits
    # exponentially close to zero but strictly above it; only a roundoff
    # band below zero counts as a violation
    band = _POSITIVITY_TOL * lin.op.scale

    def resolved(block: RitzBlock) -> bool:  # positive to 10 %, or below the band
        value, residual = block.values[0], block.residuals[0]
        return (value - residual > 0.0 and residual <= 0.1 * value) or value + residual < -band

    start = np.random.default_rng(0).standard_normal((grid.M, 1))
    probe = _lowest_ritz(L2, start, 0.0, u.values[:, None], resolved)
    lowest, lowest_residual = float(probe.values[0]), float(probe.residuals[0])
    if lowest < -band:
        raise PositivityViolationError(
            f"comparison operator has an eigenvalue at most {lowest:.3e} on the tangent space"
        )

    m = lin.count_below(-lin.tau0)
    pencil = _Pencil(lin, L2)

    def select(thetas):  # the m-th lowest Ritz value of K^{-1} is 1/(lowest mu)
        if m == 0:
            return len(thetas) - 1
        return m - 1 if len(thetas) >= m and thetas[m - 1] < 0.0 else None

    thetas, vecs, k, _ = gr.lanczos(
        pencil.inverse_step, L2.apply, pencil.start(np.random.default_rng(0)),
        _LANCZOS_STEPS, select, _LANCZOS_RTOL,
    )
    if k is None:  # no negative Ritz value within the step cap: refused below
        k = len(thetas) - 1
    s = vecs[:, k]
    x = np.array(pencil.images[: len(s)]).T @ s
    y, x = pencil.deflate(pencil.l2_inverse(x), x)
    L1x = pencil.project(lin.op.apply(x))
    xy = float(x @ y)
    mu = float(L1x @ x) / xy
    if m == 0:
        raise NoInstabilityDetected(
            f"quotient minimum {mu:.3e} is not negative: the constrained Morse index is 0",
            mu=mu,
        )
    # Kato: an eigenvalue lies within |r|_{L2t} / |x|_{L2t^{-1}} of mu, with
    # |r|_{L2t} <= sqrt(scale) |r|.  The second term carries the error of y
    # as L2t^{-1} x: the residual s of that solve moves y by L2t^{-1} s, of
    # norm at most |s| / sqrt(floor) in the metric, floor a lower bound on
    # the tangent spectrum of L2 (exponentially small at multibump points)
    if not lowest - lowest_residual > 0.0:
        raise NoInstabilityDetected(
            f"quotient minimum {mu:.3e} is not resolved: the comparison operator's "
            f"tangent eigenvalue {lowest:.3e} is within its residual "
            f"{lowest_residual:.3e} of zero", mu=mu,
        )
    # the probe may have missed the lowest; the count certifies the floor.
    # Half the probe's lower end clears the Ritz intervals of the comparison
    # block, which are no tighter than the probe's: 0 and the partner of a
    # multibump kernel are both in its band
    floor = 0.5 * (lowest - lowest_residual)
    missed = Linearization(L2, u).count_below(floor)
    if missed != 0:
        raise NoInstabilityDetected(
            f"quotient minimum {mu:.3e} is not resolved: the comparison operator has "
            f"{missed} tangent eigenvalues below {floor:.3e}, which the probe missed", mu=mu,
        )
    r = L1x - mu * y
    slip = np.linalg.norm(x - pencil.project(L2.apply(y)))
    bound = (np.sqrt(L2.scale) * np.linalg.norm(r) + abs(mu) * slip / np.sqrt(floor)) / np.sqrt(xy)
    if not (mu < 0.0 and bound < -mu):
        raise NoInstabilityDetected(
            f"quotient minimum {mu:.3e} is not resolved: its error bound "
            f"{bound:.3e} is not below |mu|", mu=mu,
        )
    rho = float(np.sqrt(-mu))

    # unit L2 norm, and a fixed sign: the entry of largest modulus is negative
    scale = -np.sqrt(grid.h) * np.linalg.norm(x) * np.sign(x[np.argmax(np.abs(x))])
    v = Field(grid, x / scale)
    l2inv_v = y / scale
    L1v = lin.op.apply(v.values)
    beta = float(grid.h * np.dot(L1v, u.values)) / gr.inner_l2(u, u)
    w2 = Field(grid, -rho * l2inv_v + (beta / rho) * u.values)

    # relative to the block vector, whose w2 grows like 1/rho as the bumps part
    r_top = np.max(np.abs(-L2.apply(w2.values) - rho * v.values))
    r_bot = np.max(np.abs(L1v - rho * w2.values))
    size = max(1.0, np.max(np.abs(v.values)), np.max(np.abs(w2.values)))
    return InstabilityResult(rho=rho, mu=mu, v=v, beta=beta, second_component=w2,
                             eigen_residual=float(max(r_top, r_bot) / size))
