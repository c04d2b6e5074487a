"""Single-peak families concentrating at a nondegenerate critical point of V.

Everything is computed in the rescaled frame: for a concentration scale
eps the equation is

    -u'' + V(eps x) u = |u|^(p-2) u,

a free problem (multiplier 0).  The family starts from the closed-form
profile of the eps -> 0 limit and continues downward in eps, Newton
solving at each member.  The unrescaled single peak is never materialized
on a grid; its mass is eps times the rescaled mass (one dimension).

The quantitative predictions checked here: the sign and limit of the
pairing (z_eps, u_eps)_2, the curvature-driven lift of the translation
mode, and the free Morse count m_V + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import gluing as gl
from . import grid as gr
from . import model as md
from . import spectra as sp
from . import stationary as st
from .errors import (
    ContinuationNeededError,
    CriticalExponentError,
    LinearSolverError,
    MassRangeError,
    PreconditionError,
)
from .grid import Field, GridSpec, minres
from .model import Nonlinearity, Potential
from .stationary import MASS_CRITICAL_P, ConstrainedCriticalPoint

__all__ = [
    "FamilyMember",
    "EpsilonFamily",
    "scaled_potential",
    "rescaled_solve",
    "continue_family",
    "criterion_value",
    "CriterionResult",
    "z_eps_check",
    "translation_mode_estimate",
    "morse_check",
    "h2_rate_table",
    "select_mass_epsilon",
]

_MASS_MATCH_TOL = 1e-8  # |mass - alpha/n| at which select_mass_epsilon accepts eps


def scaled_potential(V: Potential, eps: float) -> Potential:
    """Potential x -> V(eps x) for the rescaled frame: V at eps times its scale."""
    return replace(V, scale=V.scale * eps)


def _check_normalization(V: Potential) -> None:
    """Concentration-point normalization V(0) = 1.

    A nondegenerate critical point of V at 0 is what makes the family
    concentrate there; a constant V = 1 is admitted as the exact-limit
    hook (the solve then returns the limit profile itself).
    """
    v0 = float(V.evaluate(np.array([0.0]))[0])
    if abs(v0 - 1.0) > 1e-12:
        raise PreconditionError(
            f"the concentration point must be normalized to V(0) = 1, got {v0}"
        )


def _peak_location(u: Field) -> float:
    """Peak abscissa with sub-grid parabolic refinement."""
    vals = u.values
    i = int(np.argmax(vals))
    grid = u.grid
    im, ip = (i - 1) % grid.M, (i + 1) % grid.M
    denom = vals[im] - 2 * vals[i] + vals[ip]
    offset = 0.0 if denom == 0 else 0.5 * (vals[im] - vals[ip]) / denom
    return float(grid.x[i] + offset * grid.h)


@dataclass(frozen=True)
class FamilyMember:
    """One rescaled single peak with its derived scalar data."""

    eps: float
    point: ConstrainedCriticalPoint
    mass_unrescaled: float
    x_peak: float
    h1_gap_to_profile: float
    h2_gap_to_profile: float = np.nan
    newton_iters: int = 0


@dataclass
class EpsilonFamily:
    """Continuation family over descending eps, sharing a grid, V and p."""

    V: Potential
    p: float
    members: list = field(default_factory=list)
    _linearizations: dict = field(default_factory=dict, repr=False, compare=False)
    _criterion: CriterionResult | None = field(default=None, repr=False, compare=False)

    def linearization(self, member: FamilyMember) -> sp.Linearization:
        """L at a member (multiplier 0 in the rescaled frame), built once and
        shared by the pairing and Morse tables; held while the family is."""
        lin = self._linearizations.get(member.eps)
        if lin is None:
            Veps = scaled_potential(self.V, member.eps)
            lin = sp.Linearization.assemble(member.point.u, 0.0, Veps, Nonlinearity(self.p))
            self._linearizations[member.eps] = lin
        return lin

    @property
    def criterion(self) -> CriterionResult:
        """Limit pairing criterion_value(p) on the members' grid, computed once."""
        if self._criterion is None:
            self._criterion = criterion_value(self.p, grid=self.members[0].point.u.grid)
        return self._criterion

    @property
    def eps_values(self) -> np.ndarray:
        return np.array([m.eps for m in self.members])

    @property
    def unrescaled_masses(self) -> np.ndarray:
        return np.array([m.mass_unrescaled for m in self.members])


def _rescaled_solve_counted(grid: GridSpec, eps: float, V: Potential, p: float,
                            u_init: Field | None = None):
    """Damped Newton (gluing.damped_newton) for -u'' + V(eps x) u = |u|^(p-2) u
    to a sup-norm residual of 1e-11, each step one unbordered Jacobian solve.

    Returns (point, Newton steps).
    """
    _check_normalization(V)
    f = Nonlinearity(p)
    Veps = scaled_potential(V, eps)
    base = gr.potential_operator(Veps, grid)
    guess = u_init.values if u_init is not None else st.limit_profile(grid, p, 1.0).values
    u_vals, iters, _ = gl.damped_newton(
        guess,
        lambda u: np.max(np.abs(base.apply(u) - f.f(u))),
        lambda u: gl._solve_bordered(md.linearized_operator(Field(grid, u), 0.0, Veps, f),
                                     f.f(u) - base.apply(u), rtol=1e-13),
        1e-11,
        lambda message, _: ContinuationNeededError(f"free Newton: {message}"),
    )
    u = Field(grid, u_vals)
    point = ConstrainedCriticalPoint.measure(u, 0.0, gr.inner_l2(u, u), Veps, f)
    return point, iters


def rescaled_solve(grid: GridSpec, eps: float, V: Potential, p: float,
                   u_init: Field | None = None) -> ConstrainedCriticalPoint:
    """Newton solve of the rescaled free equation at a fixed eps.

    The initial guess defaults to the closed-form limit profile.  On
    divergence a ContinuationNeededError asks for stepping eps down from
    a converged member instead.  The multiplier of the returned point is
    0: the rescaled problem is free.
    """
    point, _ = _rescaled_solve_counted(grid, eps, V, p, u_init=u_init)
    return point


def continue_family(grid: GridSpec, eps_list, V: Potential, p: float) -> EpsilonFamily:
    """Solve the family along positive, descending eps, each member seeding the next."""
    eps_arr = [float(e) for e in eps_list]
    if not all(e > 0.0 for e in eps_arr):
        raise PreconditionError(f"eps values must be positive, got {eps_arr}")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise PreconditionError(f"eps values must be strictly descending, got {eps_arr}")
    family = EpsilonFamily(V=V, p=p)
    u_prev = None
    for eps in eps_arr:
        point, iters = _rescaled_solve_counted(grid, eps, V, p, u_init=u_prev)
        x_peak = _peak_location(point.u)
        shifted_profile = st.limit_profile(grid, p, 1.0, center=x_peak)
        family.members.append(
            FamilyMember(
                eps=eps,
                point=point,
                mass_unrescaled=eps * point.mass,
                x_peak=x_peak,
                h1_gap_to_profile=gr.norm_h1(point.u - shifted_profile),
                h2_gap_to_profile=gr.norm_h2(point.u - shifted_profile),
                newton_iters=iters,
            )
        )
        u_prev = point.u
    return family


def h2_rate_table(family: EpsilonFamily) -> list[dict]:
    """Reporting table for the second-order convergence to the profile.

    Lists the H2 gap to the recentered limit profile and its ratio to
    eps^2.  The ratio is expected to stay bounded along the family; the
    constant itself is configuration dependent and only reported.
    """
    return [
        {
            "eps": m.eps,
            "h2_gap": m.h2_gap_to_profile,
            "ratio_to_eps2": m.h2_gap_to_profile / m.eps**2,
        }
        for m in family.members
    ]


# -- the limit criterion -------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    numeric: float
    analytic: float

    @property
    def relative_error(self) -> float:
        return abs(self.numeric - self.analytic) / abs(self.analytic)


def criterion_value(p: float, grid: GridSpec | None = None) -> CriterionResult:
    """Pairing (z, u0)_2 for the limit profile against its closed form.

    z solves (-Lap + 1 - (p-1) u0^(p-2)) z = u0 on the complement of the
    translation mode: the operator is bordered by the analytic derivative
    of the profile (not a numerical eigenvector), and the bordered system
    is solved by MINRES on its split form with the residual verified on
    the operator.  The closed form is (1/4 - 1/(p-2)) |u0|_2^2, negative
    below the critical exponent 6 and positive above it.
    """
    if p == MASS_CRITICAL_P:
        raise CriticalExponentError("the pairing vanishes at the critical exponent 6")
    if grid is None:
        grid = GridSpec(30, 1920)
    f = Nonlinearity(p)
    u0 = st.limit_profile(grid, p, 1.0)
    mode = st.limit_profile_derivative(grid, p, 1.0)
    psi = mode.values / np.linalg.norm(mode.values)

    op = gr.FourierOperator(grid, 1.0 - f.fprime(u0.values), border=psi)
    split = op.minres_split()
    rhs = np.append(u0.values, 0.0)
    y, info = minres(split, split.forward(rhs), rtol=1e-13, maxiter=gl._MINRES_MAXITER)
    x = split.back(y)
    residual = float(np.max(np.abs(op.apply(x) - rhs)))
    if info != 0 or residual > 1e-10 * max(1.0, float(np.max(np.abs(u0.values)))):
        raise LinearSolverError(f"deflated pairing solve reached residual {residual:.3e}")
    numeric = float(grid.h * np.dot(x[:-1], u0.values))
    mass = gr.inner_l2(u0, u0)
    analytic = (0.25 - 1.0 / (p - 2.0)) * mass
    return CriterionResult(numeric=numeric, analytic=analytic)


def z_eps_check(family: EpsilonFamily) -> list[dict]:
    """Table of (eps, (z_eps, u_eps)_2) with the limit value appended.

    Each row also carries the expected sign from the subcritical or
    supercritical side of the exponent.  A member whose z-solve is
    singular (near-degenerate linearization) is flagged instead of
    aborting the table.
    """
    from .errors import NotFreelyNondegenerateError

    if not family.members:
        raise PreconditionError("family is empty")
    limit = family.criterion
    rows = []
    for m in family.members:
        try:
            z = family.linearization(m).z
            pairing = gr.inner_l2(z, m.point.u)
            flagged = False
        except NotFreelyNondegenerateError:
            pairing = np.nan
            flagged = True
        rows.append(
            {
                "eps": m.eps,
                "pairing": pairing,
                "limit": limit.numeric,
                "gap_to_limit": abs(pairing - limit.numeric),
                "expected_sign": 1.0 if family.p > MASS_CRITICAL_P else -1.0,
                "flagged": flagged,
            }
        )
    return rows


def translation_mode_estimate(family: EpsilonFamily) -> list[dict]:
    """Rayleigh value of the linearization on the translated profile mode.

    Compares (L_eps w, w)_2, w the analytic profile derivative centered at
    the peak, against the curvature prediction eps^2 V''(0) |u0|_2^2 / 2,
    both in the family's potential V.
    """
    V, rows = family.V, []
    f = Nonlinearity(family.p)
    for m in family.members:
        grid = m.point.u.grid
        mode = st.limit_profile_derivative(grid, family.p, 1.0, center=m.x_peak)
        Veps = scaled_potential(V, m.eps)
        form = md.hessian_form(m.point.u, 0.0, Veps, f)
        rayleigh = form(mode, mode)
        u0 = st.limit_profile(grid, family.p, 1.0)
        predicted = 0.5 * m.eps**2 * V.curvature_at(0.0) * gr.inner_l2(u0, u0)
        rows.append(
            {
                "eps": m.eps,
                "rayleigh": rayleigh,
                "predicted": predicted,
                "ratio": rayleigh / predicted if predicted != 0 else np.nan,
            }
        )
    return rows


def morse_check(family: EpsilonFamily, m_V: int) -> list[dict]:
    """Free and constrained Morse counts per member against the predictions.

    Expected: free index m_V + 1 for every exponent; constrained index
    m_V below the critical exponent and m_V + 1 above it.  Rows whose
    counts are provisional (a near-zero eigenvalue inside the threshold)
    are flagged instead of trusted.
    """
    supercritical = family.p > MASS_CRITICAL_P
    rows = []
    for m in family.members:
        lin = family.linearization(m)
        free, constrained = lin.free, lin.constrained
        rows.append(
            {
                "eps": m.eps,
                "m_f": free.count,
                "m": constrained.count,
                "expected_m_f": m_V + 1,
                "expected_m": m_V + 1 if supercritical else m_V,
                "flagged": free.provisional or constrained.provisional,
            }
        )
    return rows


def select_mass_epsilon(alpha: float, n: int, family: EpsilonFamily):
    """Find eps with unrescaled mass alpha/n by interpolation plus re-solves.

    The family's mass curve brackets the target; a secant iteration with
    one Newton re-solve per step drives |mass - alpha/n| below
    _MASS_MATCH_TOL in at most 60 steps.  Returns (eps, solved point at eps).
    """
    target = alpha / n
    masses = family.unrescaled_masses
    eps_vals = family.eps_values
    lo, hi = float(masses.min()), float(masses.max())
    if not lo <= target <= hi:
        raise MassRangeError(
            f"per-bump mass {target:.6g} outside the family range [{lo:.6g}, {hi:.6g}]",
            mass_range=(lo, hi),
        )
    order = np.argsort(masses)
    eps_a = float(np.interp(target, masses[order], eps_vals[order]))
    grid = family.members[0].point.u.grid
    seed_idx = int(np.argmin(np.abs(eps_vals - eps_a)))
    u_seed = family.members[seed_idx].point.u

    def solve_at(eps, seed):
        pt = rescaled_solve(grid, eps, family.V, family.p, u_init=seed)
        return pt, eps * pt.mass

    pt_a, mass_a = solve_at(eps_a, u_seed)
    if abs(mass_a - target) <= _MASS_MATCH_TOL:
        return eps_a, pt_a
    eps_b = eps_a * (1.0 + 1e-3)
    pt_b, mass_b = solve_at(eps_b, pt_a.u)
    for _ in range(60):
        if abs(mass_b - target) <= _MASS_MATCH_TOL:
            return eps_b, pt_b
        slope = (mass_b - mass_a) / (eps_b - eps_a)
        eps_next = eps_b + (target - mass_b) / slope
        eps_a, mass_a = eps_b, mass_b
        pt_b, mass_b = solve_at(eps_next, pt_b.u)
        eps_b = eps_next
    raise MassRangeError(
        f"mass matching stalled at |mass - target| = {abs(mass_b - target):.3e}",
        mass_range=(lo, hi),
    )
