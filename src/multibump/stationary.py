"""Single-bump building blocks: closed-form profiles and critical points.

The limit profile solves -u'' + vbar u = u^(p-1) on the line; its mass
has a closed form in vbar, so one profile of any mass (p != 6) is at hand
without a search.  It starts the constrained Newton solver (gluing module,
single-bump case) that computes every ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import model as md
from .errors import CriticalExponentError, PreconditionError
from .grid import Field, GridSpec

__all__ = [
    "ConstrainedCriticalPoint",
    "limit_profile",
    "profile_coefficient",
    "lagrange_multiplier",
]

# ConstrainedCriticalPoint.certify: sup-norm residual and mass defect it accepts
_CERTIFY_RESIDUAL_TOL, _CERTIFY_CONSTRAINT_TOL = 1e-8, 1e-10
MASS_CRITICAL_P = 6.0  # 2 + 4/N at N = 1


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


def _periodic_offset(grid: GridSpec, center: float) -> np.ndarray:
    """x - center for each node, folded into [-L, L) where it falls outside:
    the distance to the nearest periodic image of center."""
    y = grid.x - center
    outside = (y < -grid.L) | (y >= grid.L)
    return np.where(outside, (y + grid.L) % (2.0 * grid.L) - grid.L, y)


def _sech(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # cosh overflows to inf where sech is 0
        return 1.0 / np.cosh(z)


def limit_profile(grid: GridSpec, p: float, vbar: float = 1.0, center: float = 0.0) -> Field:
    """Closed-form positive even solution of -u'' + vbar*u = u^(p-1).

    u(x) = vbar^(1/(p-2)) * [ (p/2) sech^2( (p-2) sqrt(vbar) x / 2 ) ]^(1/(p-2)),
    sampled on the grid at the periodic distance from ``center``.
    """
    if p <= 2.0:
        raise PreconditionError(f"profile exists only for p > 2, got {p}")
    if vbar <= 0.0:
        raise PreconditionError(f"coefficient must be positive, got {vbar}")
    beta = 0.5 * (p - 2.0) * np.sqrt(vbar)
    sech = _sech(beta * _periodic_offset(grid, center))
    vals = vbar ** (1.0 / (p - 2.0)) * (0.5 * p * sech**2) ** (1.0 / (p - 2.0))
    return Field(grid, vals)


def limit_profile_derivative(grid: GridSpec, p: float, vbar: float = 1.0,
                             center: float = 0.0) -> Field:
    """Analytic x-derivative of limit_profile (kernel mode of its linearization)."""
    beta = 0.5 * (p - 2.0) * np.sqrt(vbar)
    y = _periodic_offset(grid, center)
    sech = _sech(beta * y)
    amp = vbar ** (1.0 / (p - 2.0)) * (0.5 * p) ** (1.0 / (p - 2.0))
    vals = -amp * np.sqrt(vbar) * sech ** (2.0 / (p - 2.0)) * np.tanh(beta * y)
    return Field(grid, vals)


def profile_coefficient(p: float, mass: float) -> float:
    """The vbar at which limit_profile has the given mass on the line.

    That mass is C_p vbar^(k - 1/2) with k = 2/(p-2), beta = (p-2)/2 and
    C_p = (p/2)^k sqrt(pi) Gamma(k) / (Gamma(k + 1/2) beta), the integral
    of sech^(2k) being a Beta function; vbar is 0 or inf where it leaves
    the floating-point range.  At p = 6 the mass does not depend on vbar:
    CriticalExponentError.
    """
    if p == MASS_CRITICAL_P:
        raise CriticalExponentError(
            "at the critical exponent 6 the profile's mass does not depend on vbar"
        )
    if mass <= 0.0:
        raise PreconditionError(f"mass must be positive, got {mass}")
    k, beta = 2.0 / (p - 2.0), 0.5 * (p - 2.0)
    log_c = (k * math.log(0.5 * p) + 0.5 * math.log(math.pi)
             + math.lgamma(k) - math.lgamma(k + 0.5) - math.log(beta))
    with np.errstate(over="ignore"):
        return float(np.exp((math.log(mass) - log_c) / (k - 0.5)))


def lagrange_multiplier(u: Field, V, f) -> float:
    """L2 Rayleigh value (-u'' + Vu - f(u), u)_2 / |u|_2^2."""
    uu = gr.inner_l2(u, u)
    if uu == 0.0:
        raise PreconditionError("multiplier undefined for the zero field")
    strong = md.l2_residual(u, 0.0, V, f)
    return gr.inner_l2(strong, u) / uu
