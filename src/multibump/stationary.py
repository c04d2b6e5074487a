"""Single-bump building blocks: closed-form profiles and the normalized flow.

The flow is projected gradient descent in the resolvent-preconditioned
metric with renormalization to the target mass after every step.  It
locates local minimizers to moderate accuracy; the constrained Newton
solver (gluing module, single-bump case) refines them to full precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import model as md
from .errors import FlowStalledError, PreconditionError
from .grid import Field, GridSpec

__all__ = [
    "ConstrainedCriticalPoint",
    "limit_profile",
    "lagrange_multiplier",
    "normalized_flow",
]

# ConstrainedCriticalPoint.certify: sup-norm residual and mass defect it accepts
_CERTIFY_RESIDUAL_TOL, _CERTIFY_CONSTRAINT_TOL = 1e-8, 1e-10
# normalized_flow: gradient norm it stops at, first trial step, iteration cap
_FLOW_TOL, _FLOW_STEP, _FLOW_MAX_ITER = 1e-6, 0.8, 5000


@dataclass(frozen=True)
class ConstrainedCriticalPoint:
    """A field with its multiplier, mass and measured defect norms.

    l2_residual_norm is the sup norm of -u'' + Vu - f(u) - lambda u;
    constraint_violation is | |u|_2^2 - mass |.  A certified point has
    residual <= 1e-8 and constraint violation <= 1e-10.
    """

    u: Field
    lam: float
    mass: float
    l2_residual_norm: float
    constraint_violation: float
    potential_shift: float = 0.0

    @classmethod
    def measure(cls, u: Field, lam: float, mass: float, V, f,
                potential_shift: float = 0.0) -> "ConstrainedCriticalPoint":
        res = md.l2_residual(u, lam, V, f)
        return cls(
            u=u,
            lam=float(lam),
            mass=float(mass),
            l2_residual_norm=float(np.max(np.abs(res.values))),
            constraint_violation=abs(gr.inner_l2(u, u) - mass),
            potential_shift=float(potential_shift),
        )

    def certify(self) -> None:
        if self.l2_residual_norm > _CERTIFY_RESIDUAL_TOL:
            raise PreconditionError(
                f"residual {self.l2_residual_norm:.3e} exceeds {_CERTIFY_RESIDUAL_TOL:.1e}"
            )
        if self.constraint_violation > _CERTIFY_CONSTRAINT_TOL:
            raise PreconditionError(
                f"constraint violation {self.constraint_violation:.3e} exceeds "
                f"{_CERTIFY_CONSTRAINT_TOL:.1e}"
            )

    @property
    def lam_user(self) -> float:
        """Multiplier in the caller's original potential gauge."""
        return self.lam - self.potential_shift


def limit_profile(grid: GridSpec, p: float, vbar: float = 1.0, center: float = 0.0) -> Field:
    """Closed-form positive even solution of -u'' + vbar*u = u^(p-1).

    u(x) = vbar^(1/(p-2)) * [ (p/2) sech^2( (p-2) sqrt(vbar) x / 2 ) ]^(1/(p-2)),
    sampled on the grid and centered at ``center``.
    """
    if p <= 2.0:
        raise PreconditionError(f"profile exists only for p > 2, got {p}")
    if vbar <= 0.0:
        raise PreconditionError(f"coefficient must be positive, got {vbar}")
    beta = 0.5 * (p - 2.0) * np.sqrt(vbar)
    y = grid.x - center
    sech = 1.0 / np.cosh(beta * y)
    vals = vbar ** (1.0 / (p - 2.0)) * (0.5 * p * sech**2) ** (1.0 / (p - 2.0))
    return Field(grid, vals)


def limit_profile_derivative(grid: GridSpec, p: float, vbar: float = 1.0,
                             center: float = 0.0) -> Field:
    """Analytic x-derivative of limit_profile (kernel mode of its linearization)."""
    beta = 0.5 * (p - 2.0) * np.sqrt(vbar)
    y = grid.x - center
    sech = 1.0 / np.cosh(beta * y)
    amp = vbar ** (1.0 / (p - 2.0)) * (0.5 * p) ** (1.0 / (p - 2.0))
    vals = -amp * np.sqrt(vbar) * sech ** (2.0 / (p - 2.0)) * np.tanh(beta * y)
    return Field(grid, vals)


def lagrange_multiplier(u: Field, V, f) -> float:
    """L2 Rayleigh value (-u'' + Vu - f(u), u)_2 / |u|_2^2."""
    uu = gr.inner_l2(u, u)
    if uu == 0.0:
        raise PreconditionError("multiplier undefined for the zero field")
    strong = md.l2_residual(u, 0.0, V, f)
    return gr.inner_l2(strong, u) / uu


def _project_out_normal(g: Field, u: Field, Su: Field) -> Field:
    """Remove the constraint-normal component of g in the preconditioned metric."""
    coef = gr.inner_l2(g, u) / gr.inner_l2(Su, u)
    return g - coef * Su


def normalized_flow(u_init: Field, alpha: float, V, f) -> ConstrainedCriticalPoint:
    """Projected gradient descent on the energy with mass renormalization.

    Each step first tries _FLOW_STEP and halves it whenever the step raises
    the energy.  Stops when the projected preconditioned-gradient norm drops
    to _FLOW_TOL, a coarse seed for the Newton refinement that sets the
    final accuracy; raises FlowStalledError (carrying the last norm) after
    _FLOW_MAX_ITER iterations.
    """
    if alpha <= 0.0:
        raise PreconditionError(f"mass must be positive, got {alpha}")
    nrm = gr.norm_l2(u_init)
    if nrm == 0.0:
        raise PreconditionError("flow needs a nonzero initial field")
    grid = u_init.grid
    u = Field(grid, u_init.values * (np.sqrt(alpha) / nrm))
    e_now = md.energy(u, V, f)
    gnorm = np.inf
    for _ in range(_FLOW_MAX_ITER):
        gradient = md.h1_gradient(u, V, f)
        Su = gr.resolvent_solve(u, V)
        g = _project_out_normal(gradient, u, Su)
        gnorm = np.sqrt(max(gr.inner_h1v(g, g, V), 0.0))
        if gnorm <= _FLOW_TOL:
            lam = lagrange_multiplier(u, V, f)
            return ConstrainedCriticalPoint.measure(u, lam, alpha, V, f)
        s = _FLOW_STEP
        for _ in range(30):
            trial = u - s * g
            trial = Field(grid, trial.values * (np.sqrt(alpha) / gr.norm_l2(trial)))
            e_trial = md.energy(trial, V, f)
            if e_trial <= e_now:
                break
            s *= 0.5
        u, e_now = trial, e_trial
    raise FlowStalledError(
        f"flow did not reach tol {_FLOW_TOL:.1e} in {_FLOW_MAX_ITER} iterations",
        last_residual=gnorm,
    )
