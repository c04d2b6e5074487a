"""Orbital instability of the supercritical soliton, cross-validated.

Constructs the positive eigenvalue of the linearized flow at a
mass-supercritical soliton, then drives the full equation from a seeded
perturbation and compares the measured departure rate.  A subcritical
control with the same machinery stays put.
"""

import numpy as np

from multibump.dynamics import ComplexField, growth_rate_fit, propagate
from multibump.errors import NoInstabilityDetected
from multibump.grid import GridSpec, inner_l2
from multibump.model import Nonlinearity, Potential
from multibump.spectra import instability_eigenvalue
from multibump.stationary import ConstrainedCriticalPoint, limit_profile

grid = GridSpec(16, 1024)
V = Potential.const(1.0)

print("== supercritical soliton, p = 8 ==")
f8 = Nonlinearity(8.0)
u8 = limit_profile(grid, 8.0, vbar=4.0)  # multiplier -3
phi8 = ConstrainedCriticalPoint.measure(u8, -3.0, inner_l2(u8, u8), V, f8)
phi8.certify()
inst = instability_eigenvalue(phi8, V, f8)
print(f"growth eigenvalue rho        = {inst.rho:.8f}")
print(f"quotient minimum mu          = {inst.mu:.6f}  (rho = sqrt(-mu))")
print(f"relative eigen-eq. residual  = {inst.eigen_residual:.2e}")

amp = 1e-4
seed = phi8.u.values + amp * inst.v.values
seed *= np.sqrt(phi8.mass) / np.sqrt(grid.h * np.sum(seed**2))
traj = propagate(ComplexField(grid, seed.astype(complex)), V, f8,
                 dt=2e-4, t_end=0.8, reference=phi8.u, record_stride=10)
d = traj.orbit_dist
window = (d > 2e-3) & (d < 1e-2)
t_sel = traj.times[window]
rate = growth_rate_fit(traj, (float(t_sel[0]), float(t_sel[-1])))
print(f"measured departure rate      = {rate:.6f} "
      f"({abs(rate - inst.rho) / inst.rho:.2%} from rho)")
print(f"orbit distance {d[0]:.2e} -> {d.max():.2e} by t = {traj.times[-1]:.1f}")

print("\n== subcritical control, p = 4 ==")
f4 = Nonlinearity(4.0)
u4 = limit_profile(grid, 4.0, vbar=4.0)
phi4 = ConstrainedCriticalPoint.measure(u4, -3.0, inner_l2(u4, u4), V, f4)
try:
    instability_eigenvalue(phi4, V, f4)
except NoInstabilityDetected as err:
    print(f"no unstable eigenvalue: quotient minimum {err.mu:.2e} (the "
          "constrained linearization is nonnegative, translation mode aside)")

rng = np.random.default_rng(3)
noise = np.fft.irfft(
    np.fft.rfft(rng.standard_normal(grid.M)) * np.exp(-np.arange(grid.M // 2 + 1) / 12.0),
    n=grid.M,
)
reflect = (-np.arange(grid.M)) % grid.M
noise = 0.5 * (noise + noise[reflect])
noise /= np.sqrt(grid.h) * np.linalg.norm(noise)
seed4 = phi4.u.values + 1e-5 * noise
seed4 *= np.sqrt(phi4.mass) / (np.sqrt(grid.h) * np.linalg.norm(seed4))
control = propagate(ComplexField(grid, seed4.astype(complex)), V, f4,
                    dt=1e-3, t_end=50.0, reference=phi4.u,
                    record_stride=100)
print(f"perturbed control: orbit distance stays below "
      f"{control.orbit_dist.max():.2e} up to t = 50")
