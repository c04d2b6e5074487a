"""Spectral diagnostics of the linearization at constrained critical points.

The central object is the symmetric operator

    L = -Lap + V - lambda - f'(u),

whose quadratic form is the second derivative of the energy on the
multiplier-shifted functional.  Counting its negative eigenvalues over
the whole space gives the free Morse index; deflating the direction of u
and counting on the tangent space of the mass sphere gives the
constrained Morse index.  The sign of (z, u)_2 with L z = u decides which
of the two indices the constraint sees and classifies nondegeneracy.

Counts are exact, from one dense eigensolve of L per critical point and
the inertia of the bordered matrix [[L - s, u], [u^T, 0]].  Near-zero
eigenvalues (within tau0) are reported and make counts provisional.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from . import grid as gr
from .errors import (
    NoInstabilityDetected,
    NotFreelyNondegenerateError,
    PositivityViolationError,
    PreconditionError,
)
from .grid import Field, GridSpec
from .stationary import ConstrainedCriticalPoint

__all__ = [
    "MorseCount",
    "Linearization",
    "SpectralReport",
    "InstabilityResult",
    "linearized_matrix",
    "z_vector",
    "classify",
    "z_translate_check",
    "ZTranslateReport",
    "instability_eigenvalue",
]

TAU0_RELATIVE = 1e-6  # zero threshold as a fraction of the spectral radius


def _dense_operator(grid: GridSpec, V, lam: float, weight: np.ndarray) -> np.ndarray:
    """Dense symmetric discretization of -Lap + V - lambda - weight."""
    mat = _dense_neglap(grid).copy()
    mat.flat[:: grid.M + 1] += gr.potential_samples(V, grid) - lam - weight
    return mat


@lru_cache(maxsize=4)
def _dense_neglap(grid: GridSpec) -> np.ndarray:
    """Spectral -d^2/dx^2 as a dense (circulant) matrix, read-only."""
    neglap = scipy.linalg.circulant(np.fft.irfft(grid.wavenumbers**2, n=grid.M))
    neglap = 0.5 * (neglap + neglap.T)
    neglap.setflags(write=False)
    return neglap


def linearized_matrix(u: Field, lam: float, V, f) -> np.ndarray:
    """Dense symmetric discretization of -Lap + V - lambda - f'(u)."""
    return _dense_operator(u.grid, V, lam, f.fprime(u.values))


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


# -- tangent space of the mass sphere ------------------------------------------
# The reflector H = I - 2 v v^T maps e_0 onto the line of u, so Q = H[:, 1:]
# is an orthonormal basis of its complement.  Q is never formed: with
# q = A v - (v^T A v) v, H A H = A - 2 (v q^T + q v^T) (Golub & Van Loan 5.1).


def _householder_vector(u_vals: np.ndarray) -> np.ndarray:
    """Unit v such that (I - 2 v v^T) e_0 is parallel to u."""
    w = u_vals / np.linalg.norm(u_vals)
    v = w.copy()
    v[0] += np.copysign(1.0, w[0] if w[0] != 0 else 1.0)
    return v / np.linalg.norm(v)


def _tangent_block(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q^T A Q for symmetric A, by the rank-2 update of A (exactly symmetric)."""
    q = A @ v
    q -= (v @ q) * v
    update = np.outer(v[1:], q[1:])
    update = update + update.T
    update *= -2.0
    update += A[1:, 1:]
    return update


def _reflect(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x; Q y is H applied to (0, y), Q^T x is (H x)[1:]."""
    return x - 2.0 * (v @ x) * v


class Linearization:
    """Symmetric L and constraint direction u, with one eigensolve of L.

    The zero threshold tau0 (used for both counts), the gap and the free
    count are set at construction; z = L^{-1} u and the constrained count
    are computed on first use.
    """

    def __init__(self, L: np.ndarray, u: Field):
        self.L, self.u = L, u
        self.eigenvalues = np.linalg.eigvalsh(L)
        self.tau0 = TAU0_RELATIVE * float(np.max(np.abs(self.eigenvalues)))
        self.gap = float(np.min(np.abs(self.eigenvalues)))
        self.free = _count_below_threshold(self.eigenvalues, self.tau0)

    @classmethod
    def assemble(cls, u: Field, lam: float, V, f) -> "Linearization":
        return cls(linearized_matrix(u, lam, V, f), u)

    @cached_property
    def _solution(self) -> np.ndarray:
        return np.linalg.solve(self.L, self.u.values)

    @cached_property
    def z(self) -> Field:
        """Solution of L z = u, defined whenever L has no near-zero eigenvalue."""
        if self.gap <= self.tau0:
            raise NotFreelyNondegenerateError(
                f"spectral gap {self.gap:.3e} is below tau0 = {self.tau0:.3e}"
            )
        u = self.u.values
        residual = np.max(np.abs(self.L @ self._solution - u))
        if residual > 1e-10 * max(1.0, np.max(np.abs(u))):
            raise NotFreelyNondegenerateError(f"z-solve residual {residual:.3e}")
        return Field(self.u.grid, self._solution)

    def count_below(self, s: float) -> int:
        """Constrained eigenvalues below s, for s not an eigenvalue of L.

        Haynsworth inertia additivity on [[L - s, u], [u^T, 0]] gives
        #constrained below s = #free below s - 1 + [u^T (L - s)^{-1} u > 0].
        """
        u = self.u.values
        shifted = self.L.copy()  # released, with its LU factors, on return
        shifted.flat[:: len(u) + 1] -= s
        pairing = u @ np.linalg.solve(shifted, u)
        return int(np.count_nonzero(self.eigenvalues < s)) - 1 + int(pairing > 0)

    @cached_property
    def constrained(self) -> MorseCount:
        """Constrained count below -tau0, with near-zero eigenvalues reported.

        With no free eigenvalue in [-tau0, tau0], s -> u^T (L - s)^{-1} u
        increases across the band and vanishes at the constrained
        eigenvalues in it: its sign at 0, that of (z, u)_2, gives the count
        and one shifted solve at the far end shows the band empty.  Else the
        projected eigensolve runs and reports the near-zero values.
        """
        tau0 = self.tau0
        if self.gap > tau0:
            positive = bool(self.u.values @ self._solution > 0)
            count = self.free.count - 1 + positive
            if count == self.count_below(-tau0 if positive else tau0):
                return MorseCount(count=count, near_zero=(), tau0=tau0)
        tangent = _tangent_block(self.L, _householder_vector(self.u.values))
        return _count_below_threshold(np.linalg.eigvalsh(tangent), tau0)


def z_vector(u: Field, lam: float, V, f) -> Field:
    """Solve L z = u, defined whenever L has no near-zero eigenvalue."""
    return Linearization.assemble(u, lam, V, f).z


@dataclass(frozen=True)
class SpectralReport:
    """Morse data and nondegeneracy classification at a critical point.

    classification is one of 'fully_nondegenerate_neg' ((z,u)_2 < 0, so
    the constrained index sits one below the free index),
    'fully_nondegenerate_pos' ((z,u)_2 > 0, indices agree) or
    'degenerate' (gap or |(z,u)_2| below tau0; counts provisional).
    eigenvalues, the spectrum of L, is not serialized.
    """

    m: int
    m_f: int
    z_dot_u: float
    spectral_gap: float
    classification: str
    eigenvalues_near_zero: tuple = ()
    tau0: float = 0.0
    provisional: bool = False
    eigenvalues: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "eigenvalues"}
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
        eigenvalues=lin.eigenvalues,
    )


@dataclass(frozen=True)
class ZTranslateReport:
    """Locality check of z at a multibump point against the single-bump z."""

    window_error: float
    scalar_discrepancy: float
    scalar_glued: float
    scalar_expected: float


def z_translate_check(ubar: ConstrainedCriticalPoint,
                      glued: ConstrainedCriticalPoint, cfg, V, f,
                      window: float | None = None) -> ZTranslateReport:
    """Compare back-translated z of the glued point with the single-bump z.

    Returns the worst windowed L2 error over the bumps and the mismatch
    of (u_glued, z_glued)_2 against n * (ubar, z_ubar)_2.
    """
    grid = glued.u.grid
    z_bar = z_vector(ubar.u, ubar.lam, V, f)
    z_glued = z_vector(glued.u, glued.lam, V, f)
    if window is None:
        window = min(cfg.separation / 2.0, grid.L / 2.0)
        if not np.isfinite(window):
            window = grid.L / 2.0
    mask = np.abs(grid.x) <= window
    worst = 0.0
    for a in cfg.offsets:
        back = gr.translate(z_glued, -a)
        diff = (back.values - z_bar.values)[mask]
        worst = max(worst, float(np.sqrt(grid.h * np.sum(diff**2))))
    scalar_glued = gr.inner_l2(glued.u, z_glued)
    scalar_expected = cfg.n * gr.inner_l2(ubar.u, z_bar)
    return ZTranslateReport(
        window_error=worst,
        scalar_discrepancy=abs(scalar_glued - scalar_expected),
        scalar_glued=scalar_glued,
        scalar_expected=scalar_expected,
    )


# -- linearized Schrodinger flow: unstable eigenvalue --------------------------


@dataclass(frozen=True)
class InstabilityResult:
    """Positive eigenvalue of the linearized flow with its eigenvector data.

    rho = sqrt(-mu) where mu is the minimum of the constrained quotient;
    v is the quotient minimizer (orthogonal to the wave), and beta the
    multiplier that closes the eigenvector reconstruction.
    """

    rho: float
    mu: float
    v: Field
    beta: float
    second_component: Field
    eigen_residual: float


def instability_eigenvalue(phi: ConstrainedCriticalPoint, V, f,
                           kernel_check_tol: float = 1e-6) -> InstabilityResult:
    """Construct the positive eigenvalue of the linearized flow at phi.

    Preconditions: phi positive, constrained Morse index >= 1, and the
    multiplier below the bottom of -Lap + V.  Solves the generalized
    problem P L1 P v = mu P L2^{-1} P v on the tangent space, demands
    mu < -tau0, and reconstructs the block eigenvector

        w = (v, -rho L2^{-1} v + beta phi / rho),      rho = sqrt(-mu).

    Raises NoInstabilityDetected when the quotient has no eigenvalue
    below -tau0 (reported, not asserted).
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
    L2 = _dense_operator(grid, V, lam, np.abs(u.values) ** (f.p - 2.0))

    kernel_residual = float(np.max(np.abs(L2 @ u.values)))
    if kernel_residual > kernel_check_tol:
        raise PreconditionError(
            f"wave is not in the kernel of the comparison operator "
            f"(residual {kernel_residual:.3e})"
        )

    hv = _householder_vector(u.values)
    L2t = _tangent_block(L2, hv)
    eig2 = np.linalg.eigvalsh(L2t)
    # at multibump points the antisymmetric partner of the kernel sits
    # exponentially close to zero but strictly above it; only a roundoff
    # band below zero counts as a violation
    pos_tol = 1e4 * np.finfo(float).eps * float(np.max(np.abs(lin.eigenvalues)))
    if eig2[0] <= pos_tol:
        raise PositivityViolationError(
            f"comparison operator has eigenvalue {eig2[0]:.3e} on the tangent space"
        )

    # quotient (L1 v, v) / (L2^{-1} v, v) via the Cholesky congruence
    C = np.linalg.cholesky(L2t)
    S = C.T @ _tangent_block(lin.L, hv) @ C
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)
    mu = float(vals[0])
    # the quotient floor is set by the congruence-transformed problem, not
    # by the raw operator radius: multibump instabilities are exponentially
    # small in the separation yet sit far above this floor
    mu_floor = 100.0 * np.finfo(float).eps * float(np.max(np.abs(vals)))
    if mu >= -mu_floor:
        raise NoInstabilityDetected(
            f"quotient minimum {mu:.3e} is not below the resolution floor "
            f"{-mu_floor:.3e}", mu=mu
        )
    m = lin.count_below(-lin.tau0)
    if m < 1:
        raise PreconditionError(
            f"quotient minimum {mu:.3e} is negative but the constrained Morse "
            f"index is {m}; counts are inconsistent"
        )
    rho = float(np.sqrt(-mu))

    v_vals = _reflect(hv, np.concatenate(([0.0], C @ vecs[:, 0])))
    v_vals /= np.sqrt(grid.h) * np.linalg.norm(v_vals)
    v = Field(grid, v_vals)

    l2inv_v = np.concatenate(([0.0], np.linalg.solve(L2t, _reflect(hv, v_vals)[1:])))
    l2inv_v = _reflect(hv, l2inv_v)
    alpha = gr.inner_l2(u, u)
    beta = float(grid.h * np.dot(lin.L @ v_vals, u.values)) / alpha
    w2 = Field(grid, -rho * l2inv_v + (beta / rho) * u.values)

    r_top = np.max(np.abs(-(L2 @ w2.values) - rho * v.values))
    r_bot = np.max(np.abs(lin.L @ v.values - rho * w2.values))
    return InstabilityResult(rho=rho, mu=mu, v=v, beta=beta, second_component=w2,
                             eigen_residual=float(max(r_top, r_bot)))
