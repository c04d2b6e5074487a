"""Superposition of translated bumps and Newton correction on the sphere.

The working object is the extended functional

    G(u, lambda) = E(u) - lambda/2 * (|u|_2^2 - alpha),

whose critical points are exactly the constrained critical points paired
with their multipliers.  Newton iteration runs on grad G = 0; each step
solves the (M+1)-dimensional bordered block system

    [ -Lap + V - lambda - f'(u)   -u ] [du     ]   [ -r      ]
    [        -(u, .)_2             0 ] [dlambda] = [ +c/2    ]

as one symmetric indefinite solve (MINRES on the Fourier-split form of the
operator, grid.SplitOperator), with no Schur-complement splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as gr
from . import model as md
from . import stationary as st
from .errors import (
    AssumptionViolationError,
    DegenerateSuperpositionError,
    GluingFailedError,
    LinearSolverError,
    PreconditionError,
)
from .grid import Field, GridSpec, minres

__all__ = [
    "BumpConfig",
    "ExtendedPoint",
    "superpose",
    "extended_gradient",
    "damped_newton",
    "newton_correct",
    "glue",
    "GlueResult",
    "shadowing_certificate",
    "ShadowingReport",
    "bordered_sigma_min",
    "ground_state",
]


@dataclass(frozen=True)
class BumpConfig:
    """Bump count n and distinct integer offsets."""

    n: int
    offsets: tuple

    def __post_init__(self):
        offs = tuple(int(a) for a in self.offsets)
        if len(offs) != self.n or self.n < 1:
            raise ValueError(f"need n = {self.n} offsets, got {len(offs)}")
        if len(set(offs)) != len(offs):
            raise ValueError(f"offsets must be distinct, got {offs}")
        if any(o != a for o, a in zip(offs, self.offsets)):
            raise ValueError("offsets must be integers")
        object.__setattr__(self, "offsets", offs)

    @property
    def separation(self) -> float:
        """Minimal pairwise offset distance; +inf for a single bump."""
        if self.n == 1:
            return np.inf
        offs = sorted(self.offsets)
        return float(min(b - a for a, b in zip(offs, offs[1:])))


@dataclass(frozen=True)
class ExtendedPoint:
    """Argument (u, lambda) of the extended functional."""

    u: Field
    lam: float


def superpose(ubar: Field, cfg: BumpConfig) -> Field:
    """Exact sum of integer-shifted copies of ubar."""
    L = ubar.grid.L
    if max(abs(a) for a in cfg.offsets) >= L - 1:
        raise PreconditionError(
            f"offsets {cfg.offsets} reach within one unit of the boundary L = {L}"
        )
    total = np.zeros(ubar.grid.M)
    for a in cfg.offsets:
        total += gr.translate(ubar, a).values
    return Field(ubar.grid, total)


def extended_gradient(pt: ExtendedPoint, alpha: float, V, f) -> tuple[Field, float]:
    """Pair (u - S f(u) - lambda S u, -(|u|_2^2 - alpha)/2)."""
    u, lam = pt.u, pt.lam
    forcing = Field(u.grid, f.f(u.values) + lam * u.values)
    g_field = u - gr.resolvent_solve(forcing, V)
    g_scalar = -0.5 * (gr.inner_l2(u, u) - alpha)
    return g_field, g_scalar


def extended_gradient_norm(pt: ExtendedPoint, alpha: float, V, f) -> float:
    return _h_norm(*extended_gradient(pt, alpha, V, f), V)


# -- bordered linear solves ---------------------------------------------------


_REFINE_ROUNDS = 10     # MINRES rounds of one refined solve
_MINRES_MAXITER = 3000  # iterations of one round


def _solve_bordered(op: gr.FourierOperator, rhs, rtol=1e-12):
    """MINRES on the split form of the symmetric system, bordered or not,
    refined in rounds on the residual verified on the operator itself.

    Accepts x at backward error rtol, the quantity MINRES's own stopping test
    measures: |rhs - A x| <= 10 rtol (scale |x| + |rhs|), scale = op.scale
    standing in for |A|; rtol = eps/10 asks for the roundoff floor.  A
    solution along a near-null direction of A is large, and its residual is
    weighed against it rather than against |rhs|.  Two rounds in a row that
    do not halve the residual, or _REFINE_ROUNDS rounds, end the solve with
    DegenerateSuperpositionError above relative residual 1e-6, else
    LinearSolverError.
    """
    split = op.minres_split()
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    x = np.zeros_like(rhs)
    r, best, stalls = rhs, rhs_norm, 0
    for _ in range(_REFINE_ROUNDS):
        dy, _ = minres(split, split.forward(r), rtol=rtol, maxiter=_MINRES_MAXITER)
        x = x + split.back(dy)
        r = rhs - op.apply(x)
        norm = np.linalg.norm(r)
        if norm <= 10 * rtol * (op.scale * np.linalg.norm(x) + rhs_norm):
            return x
        stalls = 0 if norm < 0.5 * best else stalls + 1
        best = min(best, norm)
        if stalls == 2:
            break
    res = norm / rhs_norm
    if res > 1e-6:
        raise DegenerateSuperpositionError(
            f"MINRES solve stalled at relative residual {res:.3e}"
        )
    raise LinearSolverError(f"MINRES solve reached only relative residual {res:.3e}")


def _newton_step(pt: ExtendedPoint, alpha, V, f) -> np.ndarray:
    """One undamped Newton step direction (du, dlambda) for grad G = 0, stacked."""
    u, grid = pt.u, pt.u.grid
    strong = md.l2_residual(u, pt.lam, V, f)
    rhs = np.append(-strong.values, 0.5 * (gr.inner_l2(u, u) - alpha) / grid.h)
    return _solve_bordered(md.linearized_operator(u, pt.lam, V, f, bordered=True), rhs)


def damped_newton(x: np.ndarray, merit, step, tol: float, fail, eta=None):
    """Damped Newton on a stacked vector x (u, or u and lambda when bordered).

    Each step tries x + t step(x) for t = 1, 1/2, ..., 2^-6 and takes the
    first trial whose merit is below the current one; if none is, it takes
    the 2^-7 step anyway.  Three such forced steps in a row, or 40 steps
    without merit(x) <= tol, raise fail(message, merit history), which
    returns the exception.  eta, if given, is merit(x) as the caller already
    evaluated it.  Returns (x, steps, merit history).
    """
    eta = merit(x) if eta is None else eta
    history = [eta]
    forced = 0
    while eta > tol:
        if len(history) > 40:
            raise fail("no convergence in 40 Newton steps", history)
        dx = step(x)
        t = 1.0
        for _ in range(7):
            trial = x + t * dx
            eta_trial = merit(trial)
            if eta_trial < eta:
                forced = 0
                break
            t *= 0.5
        else:
            forced += 1
            if forced >= 3:
                raise fail("residual increased on 3 consecutive damped steps", history)
            trial = x + t * dx
            eta_trial = merit(trial)
        x, eta = trial, eta_trial
        history.append(eta)
    return x, len(history) - 1, history


@dataclass
class GlueResult:
    """Converged point plus per-iteration diagnostics."""

    point: st.ConstrainedCriticalPoint
    iterations: int
    residual_history: list = field(default_factory=list)
    distance_h1: float = np.nan
    dlambda: float = np.nan


# starting extended-gradient norm above which glue asks for more separation
_INITIAL_RESIDUAL_CAP = 0.5
# extended-gradient norm at which Newton stops: every glued point and ground
# state is refined to it
_NEWTON_TOL = 1e-10


def newton_correct(pt0: ExtendedPoint, alpha: float, V, f, tol: float = _NEWTON_TOL,
                   separation: float = np.inf, eta0=None):
    """Damped Newton (damped_newton) on grad G = 0 from an arbitrary starting
    point until the merit, the extended-gradient norm, is at most tol (eta0
    its value at pt0, if known).

    Returns (extended point, iterations, residual history).  Divergence
    and step exhaustion raise GluingFailedError carrying the history.
    """
    M = pt0.u.grid.M

    def point(x):
        return ExtendedPoint(Field(pt0.u.grid, x[:M]), float(x[M]))

    x, iterations, history = damped_newton(
        np.append(pt0.u.values, pt0.lam),
        lambda x: extended_gradient_norm(point(x), alpha, V, f),
        lambda x: _newton_step(point(x), alpha, V, f),
        tol,
        lambda message, residuals: GluingFailedError(
            message, separation=separation, residual_history=residuals),
        eta0,
    )
    return point(x), iterations, history


def glue(ubar: st.ConstrainedCriticalPoint, cfg: BumpConfig, alpha: float, V, f) -> GlueResult:
    """Correct the superposition of translated copies of ubar to an exact
    discrete constrained critical point by damped Newton on grad G = 0, to
    extended-gradient norm _NEWTON_TOL.

    Requires alpha = n * ubar.mass (the total mass splits evenly over the
    bumps), a positive definite -Lap + V (the metric and preconditioner of
    every solve below; AssumptionViolationError otherwise) and enough
    separation that the starting extended-gradient norm is below
    _INITIAL_RESIDUAL_CAP.
    """
    if abs(alpha - cfg.n * ubar.mass) > 1e-12 * max(1.0, alpha):
        raise PreconditionError(
            f"alpha = {alpha} must equal n * ubar.mass = {cfg.n * ubar.mass}"
        )
    grid = ubar.u.grid
    bottom = gr.operator_bottom_eigenvalue(V, grid)
    if bottom <= 0.0:
        raise AssumptionViolationError(
            f"-Lap + V has bottom eigenvalue {bottom:.6g} <= 0; shift the potential"
        )
    if cfg.n > 1:
        kappa = np.sqrt(max(bottom - ubar.lam, 1e-6))
        reach = max(abs(a) for a in cfg.offsets) + 10.0 / kappa
        if reach >= grid.L:
            raise PreconditionError(
                f"offsets plus 10 decay lengths ({reach:.1f}) exceed the half-width {grid.L}"
            )

    v0 = superpose(ubar.u, cfg)
    pt0 = ExtendedPoint(v0, ubar.lam)
    eta0 = extended_gradient_norm(pt0, alpha, V, f)
    if eta0 > _INITIAL_RESIDUAL_CAP:
        raise GluingFailedError(
            f"starting residual {eta0:.3e} exceeds cap {_INITIAL_RESIDUAL_CAP:.1e}"
            + ("; increase the separation" if cfg.n > 1 else ""),
            separation=cfg.separation,
            residual_history=[eta0],
        )
    pt, iterations, history = newton_correct(pt0, alpha, V, f, separation=cfg.separation,
                                             eta0=eta0)
    point = st.ConstrainedCriticalPoint.measure(pt.u, pt.lam, alpha, V, f, ubar.potential_shift)
    return GlueResult(
        point=point,
        iterations=iterations,
        residual_history=history,
        distance_h1=gr.norm_h1(pt.u - v0),
        dlambda=abs(pt.lam - ubar.lam),
    )


# -- diagnostics --------------------------------------------------------------


def _h_norm(v: Field, mu: float, V) -> float:
    return float(np.sqrt(max(gr.inner_h1v(v, v, V), 0.0) + mu**2))


def _largest_modulus(thetas) -> int:
    return int(np.argmax(np.abs(thetas)))


def _smallest_modulus(thetas) -> int:
    return int(np.argmin(np.abs(thetas)))


def _gram(metric: gr.FourierOperator):
    """Gram apply of the metric h (G v, v) + mu^2 on stacked (v, mu), G = metric."""
    M, h = metric.grid.M, metric.grid.h
    return lambda x: np.append(h * metric.apply(x[:M]), x[M])


def bordered_sigma_min(pt: ExtendedPoint, V, f) -> float:
    """Smallest singular value of the block second derivative T at pt.

    With J the strong-form bordered Jacobian (md.linearized_operator) and
    B = diag(h G, 1) the Gram matrix of the metric h (G v, v) + mu^2,
    G = -Lap + V positive definite (glue checks that; this does not),
    T = B^{-1} h J is self-adjoint in that metric, so sigma_min is its
    eigenvalue of least modulus; 1/sigma_min estimates the inverse norm in
    the contraction bound.  Lanczos on T itself in the metric (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 13), with full
    reorthogonalization, so a cluster of small singular values (n nearly
    decoupled bumps) is resolved.  A step is one apply of J and one solve
    with G: T q = (G^{-1} [Jq]_v, h [Jq]_mu), whose Gram image is h J q.
    Returns |theta| once the Ritz value theta of least modulus has Ritz
    residual at most _LANCZOS_RTOL |theta|, from a fixed random start;
    LinearSolverError when _SIGMA_STEPS steps do not reach it.
    """
    grid = pt.u.grid
    M, h = grid.M, grid.h
    jacobian = md.linearized_operator(pt.u, pt.lam, V, f, bordered=True)
    metric = gr.potential_operator(V, grid)

    def apply(q):
        y = jacobian.apply(q)
        return np.append(metric.solve(y[:M]), h * y[M]), h * y

    rng = np.random.default_rng(0)
    start = np.append(rng.standard_normal(M), rng.standard_normal())
    start /= _h_norm(Field(grid, start[:M]), start[M], V)
    theta = gr.ritz_value(apply, _gram(metric), start, _SIGMA_STEPS, _smallest_modulus,
                          _LANCZOS_RTOL)
    return abs(theta)


@dataclass(frozen=True)
class ShadowingReport:
    """Sampled contraction diagnostics around a starting point.

    The Lipschitz bound is sampled: the largest norm, each converged by
    Lanczos, of the second-derivative difference over random points of the
    delta-ball.  A satisfied flag is therefore evidence, not a certificate.
    """

    gradient_norm: float
    sigma_min: float
    inverse_norm: float
    lipschitz_bound: float
    delta: float
    q: float
    residual_condition: bool
    lipschitz_condition: bool

    @property
    def all_satisfied(self) -> bool:
        return self.residual_condition and self.lipschitz_condition


def _difference_operator_norm(pt0: ExtendedPoint, pt1: ExtendedPoint, metric, f,
                              seed: int) -> float:
    """|| d(grad G)(pt1) - d(grad G)(pt0) || in the metric of bordered_sigma_min.

    metric is G = -Lap + V as a FourierOperator.  The difference is linear:
    D (v, mu) = (-S y, -(u1 - u0, v)_2), y = (f'(u1) - f'(u0) + lambda1 -
    lambda0) v + mu (u1 - u0), with S = G^{-1}, self-adjoint in the metric,
    so its norm is its eigenvalue of largest modulus.  Lanczos in the
    metric, one solve with G per step (the Gram image of D (v, mu) is
    (-h y, -(u1 - u0, v)_2)), stopped at Ritz residual _LANCZOS_RTOL
    relative; LinearSolverError when _LANCZOS_STEPS steps do not reach it.
    seed sets the start vector.
    """
    grid = pt0.u.grid
    M, h = grid.M, grid.h
    du = pt1.u.values - pt0.u.values
    weight = f.fprime(pt1.u.values) - f.fprime(pt0.u.values) + (pt1.lam - pt0.lam)
    gram = _gram(metric)

    def apply(q):
        y = weight * q[:M] + q[M] * du
        mu = -h * np.dot(du, q[:M])
        return np.append(-metric.solve(y), mu), np.append(-h * y, mu)

    rng = np.random.default_rng(seed)
    start = np.append(rng.standard_normal(M), rng.standard_normal())
    start /= np.sqrt(np.dot(gram(start), start))
    return abs(gr.ritz_value(apply, gram, start, _LANCZOS_STEPS, _largest_modulus, _LANCZOS_RTOL))


_LANCZOS_STEPS, _LANCZOS_RTOL = 50, 1e-6  # Lanczos of the diagnostics: step cap, Ritz residual
_SIGMA_STEPS = 120  # step cap of bordered_sigma_min, which took up to 54 at n = 6
_SHADOWING_SAMPLES = 5  # random points of the delta-ball the Lipschitz bound is sampled at


def shadowing_certificate(pt0: ExtendedPoint, alpha: float, V, f, delta: float,
                          q: float) -> ShadowingReport:
    """Sampled check of the contraction conditions around pt0.

    Estimates the starting gradient norm, the inverse norm of the block
    second derivative (1/sigma_min) and a Lipschitz bound sampled over
    _SHADOWING_SAMPLES random points in the delta-ball, then flags whether the
    fixed-point conditions hold with the given (delta, q).
    """
    if not 0.0 < q < 1.0:
        raise PreconditionError(f"contraction rate must satisfy 0 < q < 1, got {q}")
    grid = pt0.u.grid
    h_norm = extended_gradient_norm(pt0, alpha, V, f)
    sigma = bordered_sigma_min(pt0, V, f)
    inverse_norm = 1.0 / sigma
    metric = gr.potential_operator(V, grid)
    rng = np.random.default_rng(1)
    lipschitz = 0.0
    for i in range(_SHADOWING_SAMPLES):
        direction = Field(grid, rng.standard_normal(grid.M))
        dmu = float(rng.standard_normal())
        nrm = _h_norm(direction, dmu, V)
        radius = delta * rng.uniform(0.2, 1.0)
        pt1 = ExtendedPoint(
            pt0.u + (radius / nrm) * direction, pt0.lam + radius * dmu / nrm
        )
        lipschitz = max(
            lipschitz, _difference_operator_norm(pt0, pt1, metric, f, seed=2 + i)
        )
    return ShadowingReport(
        gradient_norm=h_norm,
        sigma_min=sigma,
        inverse_norm=inverse_norm,
        lipschitz_bound=lipschitz,
        delta=delta,
        q=q,
        residual_condition=h_norm < delta * (1.0 - q) * sigma,
        lipschitz_condition=lipschitz <= q * sigma,
    )


# -- convenience pipeline ------------------------------------------------------


def ground_state(grid: GridSpec, alpha: float, V, f,
                 center: float = 0.0) -> st.ConstrainedCriticalPoint:
    """The single bump of mass alpha at center, refined by Newton (the
    single-bump glue) to _NEWTON_TOL.

    Newton starts from the limit profile of continuum mass alpha
    (stationary.profile_coefficient) at center, or from the flat field
    where its decay length 2/((p-2) sqrt(vbar)) reaches L, scaled to mass
    alpha at its Rayleigh multiplier.  A decay length under h/2 is not
    resolved, and nor is a profile whose starting residual glue refuses:
    both raise PreconditionError naming the length in grid spacings h (no
    fixed multiple of h separates the two).  Below p = 6 the bump at a well
    of V is a constrained local minimizer, above it a saddle with m = 1; at
    a maximum of V the bump stays there.  A potential with -Lap + V not
    positive definite is shifted first, the constant kept as
    point.potential_shift (point.lam_user is the multiplier in the caller's
    gauge).
    """
    V_work, shift = md.positive_gauge(V, grid)
    vbar = st.profile_coefficient(f.p, alpha)
    width = 2.0 / ((f.p - 2.0) * np.sqrt(vbar)) if vbar > 0.0 else np.inf
    unresolved = (f"a bump of mass {alpha} at p = {f.p} decays over {width:.3e} "
                  f"= {width / grid.h:.2f} h")
    if width < 0.5 * grid.h:
        raise PreconditionError(f"{unresolved}, less than half the grid spacing h = {grid.h:.3e}")
    if width < grid.L:
        start = st.limit_profile(grid, f.p, vbar=vbar, center=center)
    else:
        start = Field(grid, np.ones(grid.M))
    start = Field(grid, start.values * np.sqrt(alpha / gr.inner_l2(start, start)))
    seed = st.ConstrainedCriticalPoint.measure(
        start, st.lagrange_multiplier(start, V_work, f), alpha, V_work, f)
    try:
        refined = glue(seed, BumpConfig(n=1, offsets=(0,)), alpha, V_work, f)
    except GluingFailedError as err:
        eta0 = err.residual_history[0]
        if not (width < grid.L and eta0 > _INITIAL_RESIDUAL_CAP):  # not a refused profile
            raise
        raise PreconditionError(f"{unresolved}: its profile's starting residual {eta0:.3e} "
                                f"exceeds cap {_INITIAL_RESIDUAL_CAP:.1e}") from err
    return replace(refined.point, potential_shift=shift)
