"""Acceptance gate: one test per criterion, each printed as PASS or FAIL.

Tolerances are pinned here and nowhere else; a criterion that cannot meet
its tolerance fails loudly rather than being loosened.
"""

import time

import numpy as np
import pytest

from multibump.gluing import (
    BumpConfig,
    ExtendedPoint,
    extended_gradient,
    glue,
    ground_state,
    newton_correct,
    superpose,
)
from multibump.grid import (
    GridSpec,
    inner_h1v,
    inner_l2,
    norm_h1,
    resolvent_solve,
)
from multibump.model import (
    Nonlinearity,
    Potential,
    energy,
    hessian_form,
    l2_residual,
)
from multibump.semiclassical import (
    criterion_value,
    morse_check,
    scaled_potential,
    translation_mode_estimate,
)
from multibump.spectra import classify, dense_spectrum, linearized_matrix
from multibump.stationary import limit_profile


def record(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_soliton():
    t0 = time.perf_counter()
    grid = GridSpec(40, 4096)
    u0 = limit_profile(grid, 4.0)
    residual = l2_residual(u0, 0.0, Potential.const(1.0), Nonlinearity(4.0))
    res_norm = float(np.max(np.abs(residual.values)))
    mass = inner_l2(u0, u0)
    elapsed = time.perf_counter() - t0
    record(
        "1 closed-form soliton",
        res_norm < 1e-8 and abs(mass - 4.0) < 1e-8 and elapsed < 1.0,
        f"residual={res_norm:.2e} mass_err={abs(mass - 4):.2e} time={elapsed:.2f}s",
    )


def test_criterion_2_reflectionless_spectrum():
    t0 = time.perf_counter()
    grid = GridSpec(40, 4096)
    u0 = limit_profile(grid, 4.0)
    low = dense_spectrum(u0, 0.0, Potential.const(1.0), Nonlinearity(4.0))[:2]
    elapsed = time.perf_counter() - t0
    record(
        "2 exactly solvable well spectrum",
        abs(low[0] + 3.0) < 1e-6 and abs(low[1]) < 1e-6 and elapsed < 30.0,
        f"eigs=({low[0]:.8f}, {low[1]:.2e}) time={elapsed:.1f}s",
    )


def test_criterion_3_limit_pairing():
    values = {}
    for p in (4.0, 5.5, 6.5, 8.0):
        result = criterion_value(p)
        values[p] = result
        record(
            f"3 pairing criterion p={p}",
            result.relative_error < 1e-4,
            f"numeric={result.numeric:.6f} analytic={result.analytic:.6f} "
            f"rel_err={result.relative_error:.2e}",
        )
    record(
        "3 pairing sign dichotomy",
        values[4.0].numeric < 0 and values[5.5].numeric < 0
        and values[6.5].numeric > 0 and values[8.0].numeric > 0,
        "negative below the critical exponent, positive above",
    )


@pytest.fixture(scope="module")
def sweep(vcos, f4):
    """Timed end-to-end subcritical sweep on its own grid."""
    t0 = time.perf_counter()
    grid = GridSpec(24, 1536)
    base = ground_state(grid, 4.5, vcos, f4, center=0.5)
    results = {}
    for d in (8, 12, 16):
        cfg = BumpConfig(2, (-d // 2, d // 2))
        results[d] = glue(base, cfg, 9.0, vcos, f4)
    three = glue(base, BumpConfig(3, (-12, 0, 12)), 13.5, vcos, f4)
    elapsed = time.perf_counter() - t0
    return base, results, three, elapsed


def test_criterion_4_gluing(sweep, vcos, f4):
    base, results, three, elapsed = sweep
    iters_ok = all(r.iterations <= 10 for r in results.values())
    record("4 newton step budget", iters_ok,
           f"iterations={[r.iterations for r in results.values()]}")

    ds = np.array(sorted(results))
    logs = np.log([results[d].distance_h1 for d in ds])
    coeffs = np.polyfit(ds, logs, 1)
    fit = np.poly1d(coeffs)(ds)
    r2 = 1 - np.sum((logs - fit) ** 2) / np.sum((logs - logs.mean()) ** 2)
    record("4 distance decay", coeffs[0] < 0 and r2 > 0.99,
           f"slope={coeffs[0]:.3f} R2={r2:.6f}")

    gaps = [results[d].dlambda for d in ds]
    record("4 multiplier convergence", gaps[0] > gaps[1] > gaps[2],
           f"dlambda={[f'{g:.2e}' for g in gaps]}")

    m2 = classify(results[16].point.u, results[16].point.lam, vcos, f4)
    m3 = classify(three.point.u, three.point.lam, vcos, f4)
    record("4 constrained indices", m2.m == 1 and m3.m == 2,
           f"n=2 index {m2.m}, n=3 index {m3.m}")

    positive = all(r.point.u.values.min() > 0 for r in results.values())
    record("4 positivity", positive,
           f"min values={[f'{r.point.u.values.min():.1e}' for r in results.values()]}")

    record("4 sweep runtime", elapsed < 120.0, f"time={elapsed:.1f}s")


@pytest.fixture(scope="module")
def supercritical_glued(grid_semi, vmin_well, family_min_p8, f8):
    base = family_min_p8.members[0]  # eps = 0.2: translations live on 5 Z
    assert base.eps == 0.2
    Veps = scaled_potential(vmin_well, base.eps)
    result = glue(base.point, BumpConfig(2, (-5, 5)), 2 * base.point.mass, Veps, f8)
    return base, Veps, result


def test_criterion_5_index_formulas(sweep, supercritical_glued, vcos, f4, f8):
    base, results, three, _ = sweep
    base_report = classify(base.u, base.lam, vcos, f4)
    two_report = classify(results[16].point.u, results[16].point.lam, vcos, f4)
    three_report = classify(three.point.u, three.point.lam, vcos, f4)

    record(
        "5 free index additivity",
        two_report.m_f == 2 * base_report.m_f and three_report.m_f == 3 * base_report.m_f,
        f"m_f: base={base_report.m_f} n2={two_report.m_f} n3={three_report.m_f}",
    )
    # pairing negative: constrained index drops to n(m+1)-1
    sub_ok = (
        base_report.z_dot_u < 0
        and two_report.m == 2 * (base_report.m + 1) - 1
        and three_report.m == 3 * (base_report.m + 1) - 1
    )
    record("5 subcritical branch", sub_ok,
           f"(z,u)={base_report.z_dot_u:.3f} m2={two_report.m} m3={three_report.m}")

    sbase, Veps, sresult = supercritical_glued
    sb_report = classify(sbase.point.u, 0.0, Veps, f8)
    sg_report = classify(sresult.point.u, sresult.point.lam, Veps, f8)
    sup_ok = (
        sb_report.z_dot_u > 0
        and sg_report.m == 2 * sb_report.m
        and sg_report.m_f == 2 * sb_report.m_f
    )
    record(
        "5 supercritical branch",
        sup_ok,
        f"(z,u)={sb_report.z_dot_u:.3f} base m={sb_report.m} glued m={sg_report.m} "
        f"m_f={sg_report.m_f}",
    )


def test_criterion_6_semiclassical_counts(family_min_p4, family_max_p4):
    rows_min = morse_check(family_min_p4, m_V=0)
    ok_min = all(r["m_f"] == 1 for r in rows_min if not r["flagged"])
    usable_min = [r for r in rows_min if not r["flagged"]]
    record("6 free count at a potential minimum",
           ok_min and len(usable_min) == 3,
           f"m_f={[r['m_f'] for r in rows_min]}")

    rows_max = morse_check(family_max_p4, m_V=1)
    usable = [r for r in rows_max if not r["flagged"]]
    ok_max = len(usable) > 0 and all(r["m_f"] == 2 for r in usable)
    record("6 free count at a potential maximum", ok_max,
           f"m_f={[r['m_f'] for r in rows_max]} "
           f"flagged={[r['flagged'] for r in rows_max]}")

    tm = translation_mode_estimate(family_min_p4)
    smallest = tm[-1]
    record(
        "6 translation-mode curvature ratio",
        abs(smallest["ratio"] - 1.0) < 0.10,
        f"ratio at eps={smallest['eps']}: {smallest['ratio']:.4f}",
    )


def test_criterion_7_instability(phi_super, inst_super, traj_super,
                                 traj_sub_control):
    record(
        "7 positive eigenvalue",
        inst_super.rho > 0 and inst_super.eigen_residual < 1e-8,
        f"rho={inst_super.rho:.6f} eigen_residual={inst_super.eigen_residual:.2e}",
    )
    from multibump.dynamics import growth_rate_fit

    d = traj_super.orbit_dist
    usable = (d > 2e-3) & (d < 1e-2)
    t_sel = traj_super.times[usable]
    rate = growth_rate_fit(traj_super, (float(t_sel[0]), float(t_sel[-1])))
    rel = abs(rate - inst_super.rho) / inst_super.rho
    record("7 nonlinear growth rate", rel < 0.15,
           f"fit={rate:.4f} rho={inst_super.rho:.4f} rel_err={rel:.2%}")

    record(
        "7 subcritical control confined",
        traj_sub_control.orbit_dist.max() < 1e-2
        and traj_sub_control.times[-1] >= 50.0,
        f"max distance={traj_sub_control.orbit_dist.max():.2e} to t=50",
    )


def test_criterion_8_cross_representation(grid24, vcos, f4, smooth_field):
    worst_grad = worst_form = 0.0
    for seed in range(20):
        u = smooth_field(grid24, seed=seed)
        lhs, _ = extended_gradient(ExtendedPoint(u, 0.0), 1.0, vcos, f4)  # u - S f(u)
        rhs = resolvent_solve(l2_residual(u, 0.0, vcos, f4), vcos)
        worst_grad = max(worst_grad, float(np.max(np.abs(lhs.values - rhs.values))))

        L = linearized_matrix(u, 0.1, vcos, f4)
        form = hessian_form(u, 0.1, vcos, f4)
        v = smooth_field(grid24, seed=1000 + seed)
        quad_form = grid24.h * float(v.values @ L @ v.values)
        worst_form = max(worst_form, abs(quad_form - form(v, v)))
    record("8 gradient representations agree", worst_grad < 1e-9,
           f"worst={worst_grad:.2e}")
    record("8 quadratic forms agree", worst_form < 1e-9, f"worst={worst_form:.2e}")

    # finite differences: halving the step shrinks errors about fourfold
    orders = []
    for seed in (30, 31, 32):
        u = smooth_field(grid24, seed=seed)
        v = smooth_field(grid24, seed=seed + 100)
        g = resolvent_solve(l2_residual(u, 0.0, vcos, f4), vcos)
        pairing = inner_h1v(g, v, vcos)
        form = hessian_form(u, 0.0, vcos, f4)
        quad_exp = form(v, v)
        for t in (2e-3, 1e-3):
            fd1 = (energy(u + t * v, vcos, f4) - energy(u - t * v, vcos, f4)) / (2 * t)
            fd2 = (
                energy(u + t * v, vcos, f4)
                - 2 * energy(u, vcos, f4)
                + energy(u + (-t) * v, vcos, f4)
            ) / t**2
            orders.append((t, abs(fd1 - pairing), abs(fd2 - quad_exp)))
    ratios = []
    for i in range(0, len(orders), 2):
        (t1, e1a, e1b), (t2, e2a, e2b) = orders[i], orders[i + 1]
        ratios.append(e1a / max(e2a, 1e-16))
        ratios.append(e1b / max(e2b, 1e-16))
    second_order = all(r > 2.5 for r in ratios)
    record("8 finite-difference consistency", second_order,
           f"halving ratios={[f'{r:.1f}' for r in ratios]}")


def test_criterion_9_uniqueness(sweep, vcos, f4, smooth_field):
    base, results, _, _ = sweep
    ref = results[12].point
    v0 = superpose(base.u, BumpConfig(2, (-6, 6)))
    rng = np.random.default_rng(11)
    worst = 0.0
    for seed in range(5):
        bump = smooth_field(base.u.grid, seed=500 + seed)
        radius = 0.05 * rng.uniform(0.3, 1.0)
        start = ExtendedPoint(v0 + (radius / norm_h1(bump)) * bump,
                              base.lam + 0.01 * rng.standard_normal())
        pt, _, _ = newton_correct(start, 9.0, vcos, f4, tol=1e-11)
        worst = max(worst, norm_h1(pt.u - ref.u))
    record("9 uniqueness in the ball", worst < 1e-8, f"worst gap={worst:.2e}")
