"""Single-peak families concentrating at a critical point of the potential.

Continues the rescaled free solutions down in the concentration scale,
tabulates the pairing criterion against its closed form, the curvature
lift of the translation mode, the Morse counts, and closes the loop by
mass-matching a family member and gluing two copies of it.
"""

import numpy as np

from multibump.gluing import BumpConfig, glue
from multibump.grid import GridSpec
from multibump.model import Nonlinearity, Potential
from multibump.semiclassical import (
    continue_family,
    criterion_value,
    h2_rate_table,
    morse_check,
    scaled_potential,
    select_mass_epsilon,
    translation_mode_estimate,
    z_eps_check,
)
from multibump.spectra import classify

grid = GridSpec(20, 1280)
V_min = Potential.cosine(-0.3, shift=0.3)   # nondegenerate minimum, V(0) = 1
V_max = Potential.cosine(0.3, shift=-0.3)   # nondegenerate maximum, V(0) = 1

print("== pairing criterion at the concentration limit ==")
print("p      numeric        closed form    |rel err|")
for p in (4.0, 5.5, 6.5, 8.0):
    c = criterion_value(p)
    print(f"{p:4.1f}  {c.numeric:+.8f}  {c.analytic:+.8f}  {c.relative_error:.2e}")
print("sign flips across the mass-critical exponent 6.")

for label, Vwell, p, m_V in (
    ("minimum, subcritical p=4", V_min, 4.0, 0),
    ("minimum, supercritical p=8", V_min, 8.0, 0),
    ("maximum, subcritical p=4", V_max, 4.0, 1),
):
    print(f"\n== family at a potential {label} ==")
    family = continue_family(grid, [0.2, 0.1, 0.05], Vwell, p)
    print("eps    mass(unresc)  x_peak    iters  |u-u0|_H1   |u-u0|_H2/eps^2")
    for m, h2row in zip(family.members, h2_rate_table(family)):
        print(f"{m.eps:5.3f}  {m.mass_unrescaled:.6f}   {m.x_peak:+.5f}  "
              f"{m.newton_iters:3d}   {m.h1_gap_to_profile:.3e}  {h2row['ratio_to_eps2']:.3f}")

    print("pairing (z_eps, u_eps)_2 against the limit:")
    for row in z_eps_check(family):
        print(f"  eps={row['eps']:5.3f}: {row['pairing']:+.6f}  "
              f"(limit {row['limit']:+.6f}, gap {row['gap_to_limit']:.2e})")

    print("translation-mode Rayleigh value vs curvature prediction:")
    for row in translation_mode_estimate(family):
        print(f"  eps={row['eps']:5.3f}: rayleigh={row['rayleigh']:+.4e}  "
              f"predicted={row['predicted']:+.4e}  ratio={row['ratio']:.4f}")

    print(f"Morse counts (expected m_f = m_V + 1 = {m_V + 1}):")
    for row in morse_check(family, m_V):
        flag = "  [flagged]" if row["flagged"] else ""
        print(f"  eps={row['eps']:5.3f}: m_f={row['m_f']} m={row['m']}{flag}")

print("\n== mass matching and end-to-end gluing (supercritical) ==")
family8 = continue_family(grid, [0.25, 0.2, 0.15], V_min, 8.0)
# pick the total mass that lands exactly on eps = 0.2, whose translation
# lattice (multiples of 1/eps = 5) consists of integers
target_eps = 0.2
masses = family8.unrescaled_masses
alpha = 2 * float(np.interp(target_eps, family8.eps_values[::-1], masses[::-1]))
eps_n, base = select_mass_epsilon(alpha, 2, family8)
print(f"requested per-bump mass {alpha / 2:.8f}: matched at eps = {eps_n:.10f}")
print(f"  |mass - alpha/2| = {abs(eps_n * base.mass - alpha / 2):.2e}")

Veps = scaled_potential(V_min, eps_n)
base_report = classify(base.u, 0.0, Veps, Nonlinearity(8.0))
result = glue(base, BumpConfig(2, (-5, 5)), 2 * base.mass, Veps, Nonlinearity(8.0))
glued_report = classify(result.point.u, result.point.lam, Veps, Nonlinearity(8.0))
print(f"base peak:  m = {base_report.m}, m_f = {base_report.m_f}, "
      f"(z,u)_2 = {base_report.z_dot_u:+.4f}")
print(f"glued pair: m = {glued_report.m}, m_f = {glued_report.m_f} "
      f"(supercritical branch: n(m_V+1) = 2)")
