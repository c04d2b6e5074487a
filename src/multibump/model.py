"""Potential x -> base(scale x) + shift, power nonlinearity, energy and its
first two derivatives.

The energy of a field u is

    E(u) = 1/2 * integral(u'^2 + V u^2) - integral(F(u)),

with F the antiderivative of the power nonlinearity f(s) = |s|^(p-2) s.
Constrained critical points on the sphere |u|_2^2 = alpha satisfy
-u'' + V u - f(u) = lambda u with the multiplier lambda.  The gradient
is given in strong (L2) form; its resolvent-preconditioned form is the
field part of gluing.extended_gradient.  The Hessian is given as an
operator and as a bilinear form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grid as gr
from .errors import PreconditionError
from .grid import Field, GridSpec

__all__ = [
    "Potential",
    "Nonlinearity",
    "energy",
    "l2_residual",
    "linearized_operator",
    "hessian_form",
    "positive_gauge",
]


@dataclass(frozen=True)
class Potential:
    """Bounded potential x -> base(scale x) + shift, one rule for every kind:
    the base is constant, cosine 1 + A*cos(2 pi y), or tabulated (linear
    interpolation of samples of one unit period), the last two 1-periodic.
    scale is 1 unless semiclassical.scaled_potential sets it for V(eps x).
    A potential is a value: the table is kept as a read-only copy, and two
    potentials are equal, with equal hashes, when every field and every
    table entry is.
    """

    kind: str
    amplitude: float = 0.0
    shift: float = 0.0
    constant: float = 0.0
    table: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.table is not None:
            table = np.array(self.table, dtype=float)
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    def _key(self) -> tuple:
        table = None if self.table is None else tuple(self.table.tolist())
        return (self.kind, self.amplitude, self.shift, self.constant, table, self.scale)

    def __eq__(self, other):
        return isinstance(other, Potential) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def const(cls, c: float) -> "Potential":
        return cls(kind="constant", constant=float(c))

    @classmethod
    def cosine(cls, amplitude: float, shift: float = 0.0) -> "Potential":
        return cls(kind="cosine", amplitude=float(amplitude), shift=float(shift))

    @classmethod
    def tabulated(cls, values, shift: float = 0.0) -> "Potential":
        """1-periodic potential from samples of one unit period."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("need a 1D table with at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential table contains non-finite entries")
        return cls(kind="tabulated", table=vals, shift=float(shift))

    def evaluate(self, x) -> np.ndarray:
        y = self.scale * np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(y, self.constant) + self.shift
        if self.kind == "cosine":
            return 1.0 + self.amplitude * np.cos(2.0 * np.pi * y) + self.shift
        if self.kind == "tabulated":
            n = len(self.table)
            pos = (y % 1.0) * n
            i0 = np.floor(pos).astype(int) % n
            frac = pos - np.floor(pos)
            return (1 - frac) * self.table[i0] + frac * self.table[(i0 + 1) % n] + self.shift
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def sample(self, grid: GridSpec) -> np.ndarray:
        return self.evaluate(grid.x)

    def curvature_at(self, x0: float) -> float:
        """Second derivative at x0, scale^2 base''(scale x0): analytic for
        cosine, zero for constant, else a central second difference over one
        table spacing, 1/(n scale) in x: over a shorter one it measures the
        kinks of the linear interpolant, not the potential tabulated."""
        if self.kind == "constant":
            return 0.0
        k = 2.0 * np.pi * self.scale
        if self.kind == "cosine":
            return -self.amplitude * k**2 * np.cos(k * x0)
        step = 1.0 / (len(self.table) * self.scale)
        vals = self.evaluate(np.array([x0 - step, x0, x0 + step]))
        return float((vals[0] - 2 * vals[1] + vals[2]) / step**2)

    def shifted(self, c: float) -> "Potential":
        return replace(self, shift=self.shift + c)


_GAUGE_MARGIN = 0.5  # bottom of -Lap + V after positive_gauge shifts it


def positive_gauge(V: Potential, grid: GridSpec):
    """Shift V so the discrete -Lap + V is positive definite.

    Returns (shifted potential, applied constant c); multipliers computed
    in the shifted gauge translate back as lambda_user = lambda - c.
    """
    bottom = gr.operator_bottom_eigenvalue(V, grid)
    if bottom > 0.0:
        return V, 0.0
    c = _GAUGE_MARGIN - bottom
    return V.shifted(c), c


@dataclass(frozen=True)
class Nonlinearity:
    """Pure power nonlinearity f(s) = |s|^(p-2) s with p > 2.

    The monotonicity of f(s)/|s| and sign condition f(s) s > 0 hold
    automatically for this family.
    """

    p: float

    def __post_init__(self):
        if not self.p > 2.0:
            raise ValueError(f"exponent must satisfy p > 2, got {self.p}")

    def f(self, s):
        return np.abs(s) ** (self.p - 2.0) * s

    def fprime(self, s):
        return (self.p - 1.0) * np.abs(s) ** (self.p - 2.0)

    def F(self, s):
        return np.abs(s) ** self.p / self.p

    def g(self, density, out=None):
        """Density form: f(s) = g(|s|^2) s, so g(d) = d^((p-2)/2); into out
        when given."""
        return np.power(density, 0.5 * (self.p - 2.0), out=out)


def energy(u: Field, V, f: Nonlinearity) -> float:
    """E(u) = 1/2 integral(u'^2 + V u^2) - integral(F(u))."""
    quad = gr.inner_h1v(u, u, V)
    return 0.5 * quad - u.grid.h * float(np.sum(f.F(u.values)))


def l2_residual(u: Field, lam: float, V, f: Nonlinearity) -> Field:
    """Strong-form residual -u'' + V u - f(u) - lambda u."""
    op = gr.FourierOperator(u.grid, gr.potential_samples(V, u.grid) - lam)
    with np.errstate(over="ignore", invalid="ignore"):  # Field rejects a non-finite residual
        values = op.apply(u.values) - f.f(u.values)
    return Field(u.grid, values)


def linearized_operator(u: Field, lam: float, V, f: Nonlinearity,
                        bordered: bool = False) -> gr.FourierOperator:
    """The linearization -Lap + V - lambda - f'(u) at (u, lambda) as a
    grid.FourierOperator, bordered by u when bordered (the second derivative
    of the extended functional G in strong form)."""
    weight = gr.potential_samples(V, u.grid) - lam - f.fprime(u.values)
    return gr.FourierOperator(u.grid, weight, border=u.values if bordered else None)


class HessianForm:
    """Second-derivative bilinear form at (u, lambda).

    Evaluates integral(v' w' + [V - lambda] v w - f'(u) v w) by the grid
    quadrature; exactly symmetric in (v, w).
    """

    def __init__(self, u: Field, lam: float, V, f: Nonlinearity):
        self.grid = u.grid
        self.operator = linearized_operator(u, lam, V, f)

    def __call__(self, v: Field, w: Field) -> float:
        if v.grid != self.grid or w.grid != self.grid:
            raise PreconditionError("hessian form arguments live on a different grid")
        return float(self.grid.h * np.dot(self.operator.apply(v.values), w.values))


def hessian_form(u: Field, lam: float, V, f: Nonlinearity) -> HessianForm:
    return HessianForm(u, lam, V, f)
