"""Split-step time evolution and orbital (in)stability measurements.

The time-dependent equation, written so that a constrained critical
point phi with multiplier lambda gives the exact orbit phi*exp(i lambda t), is

    du/dt = i ( -Lap u + V u - |u|^(p-2) u ).

Strang splitting alternates exact half-steps of the kinetic part in the
Fourier basis with exact pointwise phase rotation for the potential and
nonlinear parts, so the particle number h*sum(|u|^2) is conserved to
roundoff at every step (Bao, Jin & Markowich, J. Comput. Phys. 175, 2002).
The kinetic half-steps of adjacent steps compose exactly, so between two
records each step costs one inverse and one forward FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from .errors import FitRejectedError, IntegratorFaultError, PreconditionError
from .grid import Field, GridSpec

__all__ = [
    "ComplexField",
    "TrajectoryRecord",
    "propagate",
    "orbit_distance",
    "growth_rate_fit",
    "complex_energy",
]


@dataclass(frozen=True)
class ComplexField:
    """Complex grid function tied to a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.M,):
            raise ValueError(f"expected {self.grid.M} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("complex field contains non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_real(cls, u: Field) -> "ComplexField":
        return cls(u.grid, u.values.astype(complex))

    @property
    def mass(self) -> float:
        return float(self.grid.h * np.sum(_density(self.values)))


def _density(values: np.ndarray) -> np.ndarray:
    """|values|^2 without the square root of np.abs."""
    return values.real**2 + values.imag**2


def _wavenumbers(grid: GridSpec) -> np.ndarray:
    """Full complex-FFT wavenumbers (rad/length), length M."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.M, d=grid.h)


def complex_energy(psi: ComplexField, V, f) -> float:
    """E(psi) = 1/2 integral(|psi'|^2 + V |psi|^2) - integral(F(|psi|))."""
    grid = psi.grid
    coeffs = np.fft.fft(psi.values)
    kinetic = grid.h * float(np.sum(_wavenumbers(grid) ** 2 * _density(coeffs))) / grid.M
    vs = gr.potential_samples(V, grid)
    return float(
        0.5 * kinetic
        + 0.5 * grid.h * np.sum(vs * _density(psi.values))
        - grid.h * np.sum(f.F(np.abs(psi.values)))
    )


def orbit_distance(psi: ComplexField, phi: Field) -> float:
    """H1 distance of psi to the phase orbit of the standing wave phi.

    The reference orbit is phi times a unit phase; the minimizing phase
    has the closed form theta = arg of the complex H1 pairing
    c = integral(psi' conj(phi)' + psi conj(phi)), so the squared distance
    is |psi|_H1^2 + |phi|_H1^2 - 2|c|.  All three come from one transform
    of psi and one of phi.  The multiplier of phi does not enter: it
    rotates the phase in time without changing the set swept.
    """
    if psi.grid != phi.grid:
        raise PreconditionError("psi and phi live on different grids")
    grid = psi.grid
    weight = (grid.h / grid.M) * (_wavenumbers(grid) ** 2 + 1.0)
    a = np.fft.fft(psi.values)
    b = np.fft.fft(phi.values)
    c = np.vdot(b, weight * a)
    d2 = np.dot(weight, _density(a)) + np.dot(weight, _density(b)) - 2.0 * abs(c)
    return float(np.sqrt(max(d2, 0.0)))


@dataclass
class TrajectoryRecord:
    """Time series of conserved quantities and orbit distances.

    Snapshots are stored sparsely (stride configurable) as complex arrays.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    orbit_dist: np.ndarray
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


_MASS_DRIFT_TOL = 1e-10  # relative particle-number drift that faults a run
_DT_CAP = 0.05           # largest time step


def propagate(psi0: ComplexField, V, f, dt: float, t_end: float,
              reference: Field | None = None,
              record_stride: int = 1, snapshot_stride: int = 0) -> TrajectoryRecord:
    """Strang split-step evolution from psi0 up to t_end.

    Each step is H N H, with H = exp(i k^2 dt/2) the kinetic half-step in
    Fourier space and N the pointwise phase rotation.  Adjacent half-steps
    fuse (H N H . H N H = H N H^2 N H), so between steps the state stays in
    Fourier space with the next first half-step already applied: a step is
    ifft, N, fft and a multiplication by H^2, and a record reads the state
    as ifft(H coeffs) before that multiplication.  The result is the plain
    Strang scheme up to roundoff.  The loop allocates nothing per step: the
    transforms, the phase and the rotation write into arrays set up once.

    reference, when given as a standing wave phi, adds an orbit-distance trace.
    A record is taken every record_stride >= 1 steps and a snapshot every
    snapshot_stride steps (none when 0), both also at the last step.
    t_end must be positive and a whole number of steps (to 1e-9 relative).
    Raises IntegratorFaultError if at a record the field is not finite or
    the relative particle-number drift exceeds _MASS_DRIFT_TOL.
    """
    if dt <= 0 or dt > _DT_CAP:
        raise PreconditionError(f"time step must lie in (0, {_DT_CAP}], got {dt}")
    if not t_end > 0:
        raise PreconditionError(f"t_end must be positive, got {t_end}")
    if record_stride < 1 or snapshot_stride < 0:
        raise PreconditionError(
            f"record stride must be at least 1 and snapshot stride at least 0, "
            f"got {record_stride} and {snapshot_stride}"
        )
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * abs(t_end):
        raise PreconditionError(f"t_end = {t_end} is not a whole number of steps dt = {dt}")
    grid = psi0.grid
    vs = gr.potential_samples(V, grid)
    half_kinetic = np.exp(1j * _wavenumbers(grid) ** 2 * (0.5 * dt))
    kinetic = half_kinetic * half_kinetic
    psi = np.empty(grid.M, dtype=complex)
    phase = np.empty(grid.M)  # the density, then the phase angle
    rotation = np.empty(grid.M, dtype=complex)

    mass0 = psi0.mass

    times = [0.0]
    masses = [mass0]
    energies = [complex_energy(psi0, V, f)]
    dists = []
    if reference is not None:
        dists.append(orbit_distance(psi0, reference))
    snap_times, snaps = [], []
    if snapshot_stride:
        snap_times.append(0.0)
        snaps.append(psi0.values.copy())

    # coeffs holds H fft(psi(t)) at the top of each step.
    coeffs = half_kinetic * np.fft.fft(psi0.values)
    for step in range(1, n_steps + 1):
        np.fft.ifft(coeffs, out=psi)
        # phase = dt (V - g(|psi|^2)), with the real part of rotation as scratch
        np.square(psi.real, out=phase)
        np.square(psi.imag, out=rotation.real)
        phase += rotation.real
        f.g(phase, out=phase)
        np.subtract(vs, phase, out=phase)
        phase *= dt
        # exp(i theta) written part by part: no complex exp
        np.cos(phase, out=rotation.real)
        np.sin(phase, out=rotation.imag)
        psi *= rotation
        np.fft.fft(psi, out=coeffs)
        t = step * dt

        if step % record_stride == 0 or step == n_steps:
            np.multiply(half_kinetic, coeffs, out=rotation)  # rotation is free until the next step
            np.fft.ifft(rotation, out=psi)
            m = float(grid.h * np.sum(_density(psi)))
            if not np.isfinite(m):
                raise IntegratorFaultError(f"field is no longer finite at t = {t:.4f}")
            if abs(m - mass0) > _MASS_DRIFT_TOL * mass0:
                raise IntegratorFaultError(
                    f"particle-number drift {abs(m - mass0) / mass0:.3e} at t = {t:.4f}"
                )
            current = ComplexField(grid, psi)
            times.append(t)
            masses.append(m)
            energies.append(complex_energy(current, V, f))
            if reference is not None:
                dists.append(orbit_distance(current, reference))
            if snapshot_stride and (step % snapshot_stride == 0 or step == n_steps):
                snap_times.append(t)
                snaps.append(psi.copy())
        coeffs *= kinetic

    return TrajectoryRecord(
        times=np.asarray(times),
        mass=np.asarray(masses),
        energy=np.asarray(energies),
        orbit_dist=np.asarray(dists) if dists else np.full(len(times), np.nan),
        snapshot_times=snap_times,
        snapshots=snaps,
    )


def growth_rate_fit(traj: TrajectoryRecord, window: tuple[float, float],
                    lower: float = 1e-6, upper: float = 1e-1) -> float:
    """Least-squares slope of log(orbit distance) over the time window.

    The window must sit in the linear regime: all distances inside it
    must lie within [lower, upper], otherwise the fit is rejected.
    """
    t0, t1 = window
    mask = (traj.times >= t0) & (traj.times <= t1)
    if np.count_nonzero(mask) < 4:
        raise FitRejectedError(f"window [{t0}, {t1}] holds fewer than 4 samples")
    d = traj.orbit_dist[mask]
    if np.any(~np.isfinite(d)):
        raise FitRejectedError("trajectory carries no orbit-distance trace")
    if np.any(d < lower) or np.any(d > upper):
        raise FitRejectedError(
            f"distances in [{d.min():.3e}, {d.max():.3e}] leave the linear band "
            f"[{lower:.1e}, {upper:.1e}]"
        )
    t = traj.times[mask]
    slope = np.polyfit(t, np.log(d), 1)[0]
    return float(slope)
