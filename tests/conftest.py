"""Shared fixtures: grids, model objects, and the expensive solved points.

Session scope keeps the Newton/eigensolve work paid once across the
whole suite.
"""

import numpy as np
import pytest

from multibump.gluing import BumpConfig, glue, ground_state
from multibump.grid import Field, GridSpec
from multibump.model import Nonlinearity, Potential
from multibump.semiclassical import continue_family
from multibump.stationary import ConstrainedCriticalPoint, limit_profile


class ZeroNonlinearity:
    """Linear-equation hook: every nonlinear term vanishes."""

    p = 4.0

    def f(self, s):
        return np.zeros_like(s)

    def fprime(self, s):
        return np.zeros_like(s)

    def F(self, s):
        return np.zeros_like(s)

    def g(self, density, out=None):
        if out is None:
            return np.zeros_like(density)
        out[...] = 0.0
        return out


@pytest.fixture
def eigensolve_sizes(monkeypatch):
    """Orders of the matrices passed to np.linalg.eigvalsh and eigh."""
    sizes = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, *args, _original=getattr(np.linalg, name), **kwargs):
            sizes.append(len(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes


@pytest.fixture(scope="session")
def zero_f():
    return ZeroNonlinearity()


@pytest.fixture(scope="session")
def grid40():
    """Anchor grid for closed-form checks (not translation aligned)."""
    return GridSpec(40, 4096)


@pytest.fixture(scope="session")
def grid24():
    """Aligned grid (h = 1/32) for gluing work."""
    return GridSpec(24, 1536)


@pytest.fixture(scope="session")
def grid_dyn():
    return GridSpec(16, 1024)


@pytest.fixture(scope="session")
def grid_semi():
    return GridSpec(20, 1280)


@pytest.fixture(scope="session")
def V1():
    return Potential.const(1.0)


@pytest.fixture(scope="session")
def vcos():
    return Potential.cosine(0.5)


@pytest.fixture(scope="session")
def vmin_well():
    """V(0) = 1 nondegenerate minimum, V'' (0) = +0.3 (2 pi)^2."""
    return Potential.cosine(-0.3, shift=0.3)


@pytest.fixture(scope="session")
def vmax_well():
    """V(0) = 1 nondegenerate maximum, V'' (0) = -0.3 (2 pi)^2."""
    return Potential.cosine(0.3, shift=-0.3)


@pytest.fixture(scope="session")
def f4():
    return Nonlinearity(4.0)


@pytest.fixture(scope="session")
def f8():
    return Nonlinearity(8.0)


@pytest.fixture(scope="session")
def smooth_field():
    """Factory for deterministic random smooth periodic fields."""

    def make(grid, seed=0, scale=1.0, decay=12.0):
        rng = np.random.default_rng(seed)
        n = grid.M // 2 + 1
        coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        coeffs *= np.exp(-np.arange(n) / decay)
        vals = np.fft.irfft(coeffs, n=grid.M)
        return Field(grid, scale * vals / np.max(np.abs(vals)))

    return make


@pytest.fixture(scope="session")
def soliton40(grid40):
    """sqrt(2) sech soliton on the anchor grid."""
    return limit_profile(grid40, 4.0)


@pytest.fixture(scope="session")
def soliton24(grid24):
    return limit_profile(grid24, 4.0)


@pytest.fixture(scope="session")
def ubar(grid24, vcos, f4):
    """Single-bump nondegenerate local minimizer at per-bump mass 4.5."""
    return ground_state(grid24, 4.5, vcos, f4, center=0.5)


@pytest.fixture(scope="session")
def glued_two(ubar, vcos, f4):
    """Two-bump glued points keyed by separation."""
    out = {}
    for d in (8, 12, 16):
        cfg = BumpConfig(2, (-d // 2, d // 2))
        out[d] = glue(ubar, cfg, 9.0, vcos, f4)
    return out


@pytest.fixture(scope="session")
def glued_three(ubar, vcos, f4):
    cfg = BumpConfig(3, (-12, 0, 12))
    return glue(ubar, cfg, 13.5, vcos, f4)


@pytest.fixture(scope="session")
def family_min_p4(grid_semi, vmin_well):
    return continue_family(grid_semi, [0.2, 0.1, 0.05], vmin_well, 4.0)


@pytest.fixture(scope="session")
def family_min_p8(grid_semi, vmin_well):
    return continue_family(grid_semi, [0.2, 0.1, 0.05], vmin_well, 8.0)


@pytest.fixture(scope="session")
def family_max_p4(grid_semi, vmax_well):
    return continue_family(grid_semi, [0.2, 0.1, 0.05], vmax_well, 4.0)


@pytest.fixture(scope="session")
def phi_super(grid_dyn, V1, f8):
    """Supercritical soliton (multiplier -3) on the dynamics grid."""
    from multibump.grid import inner_l2

    u = limit_profile(grid_dyn, 8.0, vbar=4.0)
    return ConstrainedCriticalPoint.measure(u, -3.0, inner_l2(u, u), V1, f8)


@pytest.fixture(scope="session")
def phi_sub(grid_dyn, V1, f4):
    """Subcritical soliton (multiplier -3) on the dynamics grid."""
    from multibump.grid import inner_l2

    u = limit_profile(grid_dyn, 4.0, vbar=4.0)
    return ConstrainedCriticalPoint.measure(u, -3.0, inner_l2(u, u), V1, f4)


@pytest.fixture(scope="session")
def inst_super(phi_super, V1, f8):
    from multibump.spectra import instability_eigenvalue

    return instability_eigenvalue(phi_super, V1, f8)


@pytest.fixture(scope="session")
def traj_super(phi_super, inst_super, V1, f8):
    """Trajectory seeded along the unstable direction, amplitude 1e-4.

    The amplitude sits well above the integrator's noise floor (the
    splitting error also feeds the unstable mode), so the fit window is
    dominated by the seeded growth.
    """
    from multibump.dynamics import ComplexField, propagate

    grid = phi_super.u.grid
    amp = 1e-4
    seed = phi_super.u.values + amp * inst_super.v.values
    seed *= np.sqrt(phi_super.mass) / np.sqrt(grid.h * np.sum(seed**2))
    traj = propagate(
        ComplexField(grid, seed.astype(complex)), V1, f8,
        dt=2e-4, t_end=0.8, reference=phi_super.u,
        record_stride=10,
    )
    return traj


@pytest.fixture(scope="session")
def traj_sub_control(phi_sub, V1, f4, smooth_field):
    """Smooth even perturbation of the stable soliton, run to t = 50."""
    from multibump.dynamics import ComplexField, propagate

    grid = phi_sub.u.grid
    noise = smooth_field(grid, seed=7).values
    reflect = (-np.arange(grid.M)) % grid.M
    noise = 0.5 * (noise + noise[reflect])  # even part: no momentum kick
    noise /= np.sqrt(grid.h) * np.linalg.norm(noise)
    seed = phi_sub.u.values + 1e-5 * noise
    seed *= np.sqrt(phi_sub.mass) / (np.sqrt(grid.h) * np.linalg.norm(seed))
    return propagate(
        ComplexField(grid, seed.astype(complex)), V1, f4,
        dt=1e-3, t_end=50.0, reference=phi_sub.u,
        record_stride=100,
    )
