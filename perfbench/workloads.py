"""Workloads of the multibump benchmark: inputs, operations and output oracle.

``build(name, work, seed)`` imports the program, writes or generates the
workload's inputs under ``work`` (this is the set-up the benchmark times) and
returns the operations one pass runs, in order.  An operation is one CLI
command or one top-level library call.  Its ``run`` returns a value and its
``check`` reads that value or the artifacts and returns ``None`` when the
output is correct, else the reason.  The tolerances are the ones the
acceptance suite pins.

The seed drives the probe perturbations of ``glue_bigbox`` and the control
perturbation of ``evolve_soliton``; the program receives only the generated
configurations, fields and starting points.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RESIDUAL_TOL = 1e-8          # point residual (criterion 1 / artifact check)
CONSTRAINT_TOL = 1e-10       # |mass - alpha| of a solved point
GROWTH_REL_TOL = 0.15        # fitted departure rate against rho (criterion 7)
CONTROL_DIST_TOL = 1e-2      # control orbit distance (criterion 7)
UNIQUENESS_TOL = 1e-8        # probe gap to the glued point (criterion 9)
CRITERION_REL_TOL = 1e-4     # limit pairing against its closed form (criterion 3)

# A known program defect (ROADMAP open item 3): the two-bump instability at
# separation 16 is lost below the dense resolution floor, so `evolve` on that
# field exits 3 with the NoInstabilityDetected message.  The operation counts
# as failed; any other failure of it, another exit-3 precondition failure
# included, still marks the run incorrect.
KNOWN_DEFECT = (3, "precondition failure: quotient minimum")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # (exit code, start of the stderr message) of a known defect, or None
    known_defect: tuple | None = None


# -- shared helpers -------------------------------------------------------------


def _cli(argv: list) -> tuple:
    """Run one CLI command in-process; return (exit code, stderr text)."""
    from multibump import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue().strip()


def _exit_ok(result) -> str | None:
    rc, err = result
    if rc != 0:
        return f"exit {rc}: {err.splitlines()[-1] if err else ''}"
    return None


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _point_json_errors(path: Path) -> list:
    payload = _read_json(path)
    errors = []
    if not payload["residual"] <= RESIDUAL_TOL:
        errors.append(f"{path.name}: residual {payload['residual']:.3e}")
    if not payload["constraint_violation"] <= CONSTRAINT_TOL:
        errors.append(f"{path.name}: constraint {payload['constraint_violation']:.3e}")
    return errors


def _point_errors(label: str, point) -> list:
    errors = []
    if not point.l2_residual_norm <= RESIDUAL_TOL:
        errors.append(f"{label}: residual {point.l2_residual_norm:.3e}")
    if not point.constraint_violation <= CONSTRAINT_TOL:
        errors.append(f"{label}: constraint {point.constraint_violation:.3e}")
    return errors


def _then(result, check: Callable[[], list]) -> str | None:
    """Exit code first, then the artifact checks."""
    reason = _exit_ok(result)
    if reason is not None:
        return reason
    errors = check()
    return "; ".join(errors) if errors else None


def _write_config(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    return path


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# -- analysis: the CLI chain on the standard grid ---------------------------------

STANDARD = {
    "grid": {"L": 24, "M": 1536},
    "potential": {"kind": "cosine", "amplitude": 0.5},
    "nonlinearity": {"p": 4.0},
    "solver": {"center": 0.5},
}
SEPARATIONS = (8, 12, 16)


def _analysis(work: Path, seed: int) -> list:
    import multibump.cli  # noqa: F401  (import is part of set-up)

    del seed  # the chain is deterministic; nothing in it is drawn at random
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    gs_cfg = _write_config(inputs / "groundstate.json", {**STANDARD, "mass": 4.5})
    glue_cfg = _write_config(inputs / "glue.json", {
        **STANDARD,
        "mass": 9.0,
        "bumps": {"n": 2, "separations": list(SEPARATIONS)},
        "dynamics": {"dt": 1e-3, "t_end": 1.0, "perturbation_amplitude": 1e-4,
                     "perturbation_kind": "eigenvector"},
    })
    semi_cfg = _write_config(inputs / "semiclassical.json", {
        "grid": {"L": 20, "M": 1280},
        "potential": {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
        "nonlinearity": {"p": 4.0},
        "semiclassical": {"eps_list": [0.2, 0.1, 0.05], "m_V": 0},
    })
    d16 = out / "glue" / f"glue_point_d{SEPARATIONS[-1]}_field.bin"

    def check_groundstate():
        d = out / "groundstate"
        errors = _point_json_errors(d / "groundstate.json")
        report = _read_json(d / "groundstate_spectrum.json")
        if (report["m"], report["m_f"]) != (0, 1):
            errors.append(f"(m, m_f) = ({report['m']}, {report['m_f']}), expected (0, 1)")
        return errors

    def check_glue():
        d = out / "glue"
        errors = _point_json_errors(d / "base_point.json")
        rows = _read_csv(d / "glue_sweep.csv")
        if sorted(float(r["d"]) for r in rows) != [float(s) for s in SEPARATIONS]:
            errors.append(f"sweep rows {[r['d'] for r in rows]}")
        for row in rows:
            if row["status"] != "ok" or (int(row["m"]), int(row["m_f"])) != (1, 2):
                errors.append(f"d={row['d']}: {row['status']} (m, m_f)=({row['m']}, {row['m_f']})")
            else:
                errors += _point_json_errors(d / f"glue_point_d{int(float(row['d']))}.json")
        return errors

    def check_spectrum():
        d = out / "spectrum"
        report = _read_json(d / "spectrum.json")
        errors = []
        if not report["residual"] <= RESIDUAL_TOL:
            errors.append(f"residual {report['residual']:.3e}")
        if (report["m"], report["m_f"]) != (1, 2):
            errors.append(f"(m, m_f) = ({report['m']}, {report['m_f']}), expected (1, 2)")
        if len(_read_csv(d / "spectrum_eigenvalues.csv")) != STANDARD["grid"]["M"]:
            errors.append("eigenvalue table is not complete")
        return errors

    def check_evolve():
        # t_end is far too short for the separation-16 rate (about 8.5e-4) to
        # show, so a fitted rate is checked only where the program reports one
        report = _read_json(out / "evolve" / "evolve.json")
        rho = report["rho_expected"]
        if not (math.isfinite(rho) and rho > 0):
            return [f"rho_expected {rho}"]
        rate = report.get("growth_rate")
        if rate is not None and not _rel_gap(rate, rho) < GROWTH_REL_TOL:
            return [f"growth_rate {rate:.4g} vs rho {rho:.4g}"]
        return []

    def check_semiclassical():
        d = out / "semiclassical"
        rows = _read_csv(d / "semiclassical_family.csv")
        errors = [] if len(rows) == 3 else [f"{len(rows)} family rows"]
        for row in rows:
            # m_V = 0 at a potential minimum, p = 4 < 6: m = 0, m_f = 1
            if row["status"] != "ok" or (int(row["m"]), int(row["m_f"])) != (0, 1):
                errors.append(f"eps={row['eps']}: {row['status']} (m, m_f)=({row['m']}, {row['m_f']})")
        crit = _read_json(d / "semiclassical_criterion.json")
        if not crit["relative_error"] < CRITERION_REL_TOL:
            errors.append(f"criterion relative error {crit['relative_error']:.3e}")
        return errors

    def cli_op(name, config, command, *extra, check, known=None):
        argv = ["--config", config, "--out", out / name, command, *extra]
        return Op(f"cli.{name}", lambda: _cli(argv), lambda r: _then(r, check), known)

    return [
        cli_op("groundstate", gs_cfg, "groundstate", check=check_groundstate),
        cli_op("glue", glue_cfg, "glue", check=check_glue),
        cli_op("spectrum", glue_cfg, "spectrum", d16, check=check_spectrum),
        cli_op("evolve", glue_cfg, "evolve", d16, check=check_evolve, known=KNOWN_DEFECT),
        cli_op("semiclassical", semi_cfg, "semiclassical", check=check_semiclassical),
    ]


# -- glue_bigbox: Newton-Krylov gluing on a box twice the standard one -------------

BIG_N = (2, 3, 4, 5, 6)
BIG_D = (10, 12, 14)
PROBES = 5


def _smooth_field(rng, M: int, decay: float = 12.0):
    """Deterministic random smooth periodic field, sup-normalized."""
    import numpy as np

    n = M // 2 + 1
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeffs *= np.exp(-np.arange(n) / decay)
    vals = np.fft.irfft(coeffs, n=M)
    return vals / np.max(np.abs(vals))


def _glue_bigbox(work: Path, seed: int) -> list:
    import numpy as np

    from multibump import gluing as gl
    from multibump import grid as gr
    from multibump import model as md
    from multibump.cli import _symmetric_offsets

    del work  # the library calls run in memory and write no artifacts
    grid = gr.GridSpec(48, 3072)
    V, f = md.Potential.cosine(0.5), md.Nonlinearity(4.0)
    rng = np.random.default_rng(seed)
    # criterion 9's perturbations: smooth bump of H1 radius 0.05 * U(0.3, 1)
    # on the d = 12 superposition, multiplier moved by 0.01 * N(0, 1)
    probes = [
        (_smooth_field(rng, grid.M), 0.05 * rng.uniform(0.3, 1.0), 0.01 * rng.standard_normal())
        for _ in range(PROBES)
    ]
    state = {}

    def ground_state():
        state["base"] = gl.ground_state(grid, 4.5, V, f, center=0.5)
        return state["base"]

    def glue(n, d):
        result = gl.glue(state["base"], gl.BumpConfig(n, _symmetric_offsets(n, d)), 4.5 * n, V, f)
        state[n, d] = result.point
        return result

    def sigma(n, d):
        base = state["base"]
        pt = gl.ExtendedPoint(gl.superpose(base.u, gl.BumpConfig(n, _symmetric_offsets(n, d))), base.lam)
        return gl.bordered_sigma_min(pt, V, f)

    def certificate():
        base = state["base"]
        pt = gl.ExtendedPoint(gl.superpose(base.u, gl.BumpConfig(2, (-8, 8))), base.lam)
        return gl.shadowing_certificate(pt, 9.0, V, f, delta=0.1, q=0.5)

    def probe(i):
        base = state["base"]
        bump, radius, dlam = probes[i]
        v0 = gl.superpose(base.u, gl.BumpConfig(2, (-6, 6)))
        field = gr.Field(grid, bump)
        start = gl.ExtendedPoint(v0 + (radius / gr.norm_h1(field)) * field, base.lam + dlam)
        pt, iterations, _ = gl.newton_correct(start, 9.0, V, f, tol=1e-11)
        return pt, iterations

    def check_probe(result):
        pt, _ = result
        gap = gr.norm_h1(pt.u - state[2, 12].u)
        return None if gap < UNIQUENESS_TOL else f"gap {gap:.3e} to the d = 12 pair"

    def errors_or_none(errors):
        return "; ".join(errors) if errors else None

    ops = [Op("gluing.ground_state", ground_state,
              lambda p: errors_or_none(_point_errors("ground state", p)))]
    for n in BIG_N:
        for d in BIG_D:
            ops.append(Op(f"gluing.glue.n{n}.d{d}", lambda n=n, d=d: glue(n, d),
                          lambda r, n=n, d=d: errors_or_none(_point_errors(f"n={n} d={d}", r.point))))
            ops.append(Op(f"gluing.bordered_sigma_min.n{n}.d{d}", lambda n=n, d=d: sigma(n, d),
                          lambda s: None if math.isfinite(s) and s > 0 else f"sigma_min {s}"))
    ops.append(Op("gluing.shadowing_certificate", certificate,
                  lambda c: None if c.all_satisfied else f"conditions not satisfied: {c}"))
    for i in range(PROBES):
        ops.append(Op(f"gluing.newton_correct.probe{i}", lambda i=i: probe(i), check_probe))
    return ops


# -- evolve_soliton: split-step evolution of an unstable and a stable soliton -------


def _evolve_soliton(work: Path, seed: int) -> list:
    from multibump import cli  # noqa: F401  (import is part of set-up)
    from multibump import grid as gr
    from multibump import stationary as st

    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    base = {"grid": {"L": 16, "M": 1024}, "potential": {"kind": "constant", "constant": 1.0}}
    grid = gr.GridSpec(16, 1024)
    fields = {}
    for p in (8.0, 4.0):
        fields[p] = inputs / f"soliton_p{int(p)}.bin"
        gr.write_field_binary(st.limit_profile(grid, p, vbar=4.0), fields[p])
    unstable_cfg = _write_config(inputs / "unstable.json", {
        **base, "nonlinearity": {"p": 8.0},
        "dynamics": {"dt": 2e-4, "t_end": 0.8, "perturbation_amplitude": 1e-4,
                     "perturbation_kind": "eigenvector", "record_stride": 10},
    })
    control_cfg = _write_config(inputs / "control.json", {
        **base, "nonlinearity": {"p": 4.0},
        "dynamics": {"dt": 1e-3, "t_end": 20.0, "perturbation_amplitude": 1e-5,
                     "perturbation_kind": "random", "seed": seed, "record_stride": 100},
    })

    def check_unstable():
        report = _read_json(out / "unstable" / "evolve.json")
        rho, rate = report["rho_expected"], report.get("growth_rate")
        if rate is None or not (rho > 0 and _rel_gap(rate, rho) < GROWTH_REL_TOL):
            return [f"growth_rate {rate} vs rho {rho}"]
        return []

    def check_control():
        rows = _read_csv(out / "control" / "evolve_trace.csv")
        worst = max(float(r["orbit_distance"]) for r in rows)
        errors = [] if worst < CONTROL_DIST_TOL else [f"orbit distance {worst:.3e}"]
        if not float(rows[-1]["t"]) >= 20.0 - 1e-9:
            errors.append(f"stopped at t = {rows[-1]['t']}")
        return errors

    def evolve_op(name, config, field, check):
        argv = ["--config", config, "--out", out / name, "evolve", field]
        return Op(f"cli.evolve.{name}", lambda: _cli(argv), lambda r: _then(r, check))

    return [
        evolve_op("unstable", unstable_cfg, fields[8.0], check_unstable),
        evolve_op("control", control_cfg, fields[4.0], check_control),
    ]


WORKLOADS = {
    "analysis": _analysis,
    "glue_bigbox": _glue_bigbox,
    "evolve_soliton": _evolve_soliton,
}


def build(name: str, work: Path, seed: int) -> list:
    return WORKLOADS[name](work, seed)
