"""Batch experiment harness.

One JSON configuration file per run; subcommands map to the laboratory's
capabilities: groundstate, glue, spectrum, evolve, semiclassical, sweep.
All tables are CSV with a header row; all scalar reports are JSON with
the configuration hash and code version embedded so identical runs are
byte-identical.

Commands only raise: main prints a failure as one stderr line
"<label>: <message>" and exits with the code its error class declares
(errors.py): 2 configuration error, 3 precondition failure, 4 solver
failure; 0 is success.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics as dy
from . import gluing as gl
from . import grid as gr
from . import model as md
from . import semiclassical as sc
from . import spectra as sp
from . import stationary as st
from .errors import (
    ConfigError,
    FitRejectedError,
    GluingFailedError,
    InvalidFieldError,
    MultibumpError,
    PreconditionError,
)

__all__ = ["RunConfig", "main"]

_SCHEMA = {
    "grid": {"L", "M"},
    "potential": {"kind", "amplitude", "shift", "constant", "table"},
    "nonlinearity": {"p"},
    "mass": None,
    "bumps": {"n", "offsets", "separations", "n_list"},
    "solver": {"flow_tol", "newton_tol", "flow_step", "center"},
    "dynamics": {
        "dt",
        "t_end",
        "perturbation_amplitude",
        "perturbation_kind",
        "seed",
        "record_stride",
    },
    "semiclassical": {"eps_list", "m_V"},
    "output": None,
}


class RunConfig:
    """Validated run configuration (unknown keys rejected)."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be an object")
        unknown = set(data) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        for key, allowed in _SCHEMA.items():
            if allowed is None or key not in data:
                continue
            section = data[key]
            if not isinstance(section, dict):
                raise ConfigError(f"section {key!r} must be an object")
            extra = set(section) - allowed
            if extra:
                raise ConfigError(f"unknown keys in {key!r}: {sorted(extra)}")
        self.data = data
        self._validate()

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
        return cls(data)

    def _validate(self):
        g = self.data.get("grid", {})
        L, M = g.get("L", 24), g.get("M", 1536)
        if not (isinstance(L, int) and L > 0):
            raise ConfigError(f"grid.L must be a positive integer, got {L!r}")
        if not (isinstance(M, int) and M >= 64 and M % 2 == 0):
            raise ConfigError(f"grid.M must be an even integer >= 64, got {M!r}")
        if M % (2 * L) != 0:
            raise ConfigError(
                f"grid.M = {M} must be a multiple of 2L = {2 * L} so that unit "
                "translations are exact grid shifts"
            )
        p = self.data.get("nonlinearity", {}).get("p", 4.0)
        if not p > 2:
            raise ConfigError(f"nonlinearity.p must exceed 2, got {p}")
        alpha = self.data.get("mass", 1.0)
        if not alpha > 0:
            raise ConfigError(f"mass must be positive, got {alpha}")
        kind = self.data.get("potential", {}).get("kind", "constant")
        if kind not in ("constant", "cosine", "tabulated"):
            raise ConfigError(f"unknown potential kind {kind!r}")
        try:
            for n in self.data.get("bumps", {}).get("n_list", [None]):
                self.bump_configs(None if n is None else int(n))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bumps section: {exc}") from exc

    # -- constructors -------------------------------------------------------

    def grid(self) -> gr.GridSpec:
        g = self.data.get("grid", {})
        return gr.GridSpec(g.get("L", 24), g.get("M", 1536))

    def potential(self) -> md.Potential:
        pot = self.data.get("potential", {"kind": "constant", "constant": 1.0})
        kind = pot.get("kind", "constant")
        if kind == "constant":
            return md.Potential.const(pot.get("constant", 1.0))
        if kind == "cosine":
            return md.Potential.cosine(pot.get("amplitude", 0.5), pot.get("shift", 0.0))
        return md.Potential.tabulated(pot["table"], pot.get("shift", 0.0))

    def nonlinearity(self) -> md.Nonlinearity:
        return md.Nonlinearity(self.data.get("nonlinearity", {}).get("p", 4.0))

    def mass(self) -> float:
        return float(self.data.get("mass", 1.0))

    def bump_configs(self, n: int | None = None) -> list:
        """Glue configurations: the explicit offsets, else n bumps per separation."""
        bumps = self.data.get("bumps", {})
        if "separations" not in bumps and "offsets" in bumps:
            offsets = tuple(bumps["offsets"])
            return [gl.BumpConfig(len(offsets), offsets)]
        n = int(bumps.get("n", 2)) if n is None else n
        separations = bumps.get("separations", [8, 12, 16])
        return [gl.BumpConfig(n, _symmetric_offsets(n, int(d))) for d in separations]

    def solver(self) -> dict:
        s = dict(self.data.get("solver", {}))
        s.setdefault("flow_tol", 1e-6)
        s.setdefault("newton_tol", 1e-10)
        s.setdefault("flow_step", 0.8)
        s.setdefault("center", 0.0)
        return s

    def hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _metadata(config: RunConfig) -> dict:
    return {
        "config_hash": config.hash(),
        "version": __version__,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (repr(float(c)) if isinstance(c, float) else str(c) for c in row)
            fh.write(",".join(cells) + "\n")


def _point_payload(point: st.ConstrainedCriticalPoint, V, f, config: RunConfig,
                   field_file: str) -> dict:
    return {
        "lambda": point.lam,
        "lambda_user": point.lam_user,
        "mass": point.mass,
        "residual": point.l2_residual_norm,
        "constraint_violation": point.constraint_violation,
        "energy": md.energy(point.u, V, f),
        "field_file": field_file,
        **_metadata(config),
    }


def _emit_point(point, V, f, config, out: Path, stem: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    gr.write_field_csv(point.u, out / f"{stem}_field.csv")
    gr.write_field_binary(point.u, out / f"{stem}_field.bin")
    _write_json(out / f"{stem}.json", _point_payload(point, V, f, config, f"{stem}_field.bin"))


# -- subcommands ---------------------------------------------------------------


def _working_potential(V, point):
    """Potential in the gauge the point was solved in."""
    return V.shifted(point.potential_shift) if point.potential_shift else V


def _ground_state(config: RunConfig, mass: float):
    """The configured ground state of the given mass, with the potential in
    its working gauge and the nonlinearity."""
    V, f = config.potential(), config.nonlinearity()
    s = config.solver()
    point = gl.ground_state(
        config.grid(), mass, V, f,
        center=s["center"], flow_tol=s["flow_tol"], newton_tol=s["newton_tol"],
        flow_step=s["flow_step"],
    )
    return point, _working_potential(V, point), f


def cmd_groundstate(config: RunConfig, out: Path) -> None:
    point, Vw, f = _ground_state(config, config.mass())
    point.certify()
    _emit_point(point, Vw, f, config, out, "groundstate")
    report = sp.classify(point.u, point.lam, Vw, f)
    _write_json(out / "groundstate_spectrum.json", {**report.to_dict(), **_metadata(config)})


def _symmetric_offsets(n: int, d: int) -> tuple:
    span = d * (n - 1)
    start = -span // 2
    return tuple(start + d * i for i in range(n))


def _glue_row(ubar, cfg, alpha, V, f, newton_tol):
    from dataclasses import replace

    result = gl.glue(ubar, cfg, alpha, V, f, tol=newton_tol)
    if ubar.potential_shift:
        result.point = replace(result.point, potential_shift=ubar.potential_shift)
    point = result.point
    report = sp.classify(point.u, point.lam, V, f)
    sigma = gl.bordered_sigma_min(
        gl.ExtendedPoint(gl.superpose(ubar.u, cfg), ubar.lam), V, f
    )
    return result, report, sigma


def _glue_configs(config: RunConfig, n: int | None = None) -> list:
    """The glue configurations; one bump has nothing to glue (exit 2)."""
    configs = config.bump_configs(n)
    if any(cfg.n < 2 for cfg in configs):
        raise ConfigError("glue and sweep need at least two bumps (bumps.n, n_list or offsets)")
    return configs


def _glue_sweep(config: RunConfig, out: Path) -> int:
    """Glue at every configured separation, write glue_sweep.csv and the
    converged points; returns the number of rows that converged."""
    configs = _glue_configs(config)
    alpha = config.mass()
    ubar, V, f = _ground_state(config, alpha / configs[0].n)
    _emit_point(ubar, V, f, config, out, "base_point")
    newton_tol = config.solver()["newton_tol"]

    rows, n_ok = [], 0
    for cfg in configs:
        d = cfg.separation
        try:
            result, report, sigma = _glue_row(ubar, cfg, alpha, V, f, newton_tol)
        except MultibumpError as exc:
            rows.append([d, -1, float("nan"), float("nan"), float("nan"), -1, -1, f"failed:{type(exc).__name__}"])
            continue
        n_ok += 1
        rows.append([
            d, result.iterations, result.distance_h1, result.dlambda,
            sigma, report.m, report.m_f, "ok",
        ])
        stem = f"glue_point_d{int(d)}"
        _emit_point(result.point, V, f, config, out, stem)
        _write_json(out / f"{stem}_spectrum.json", {**report.to_dict(), **_metadata(config)})
    _write_csv(
        out / "glue_sweep.csv",
        ["d", "newton_iters", "dist_h1", "dlambda", "sigma_min", "m", "m_f", "status"],
        rows,
    )
    return n_ok


def cmd_glue(config: RunConfig, out: Path) -> None:
    if not _glue_sweep(config, out):
        raise GluingFailedError("no separation converged; see glue_sweep.csv")


def _read_field(field_file: str) -> gr.Field:
    """Field from a binary (.bin) or CSV file; unreadable input is an invalid field."""
    path = Path(field_file)
    try:
        return gr.read_field_binary(path) if path.suffix == ".bin" else gr.read_field_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        raise InvalidFieldError(f"cannot read field {path}: {exc}") from exc


# sup-norm strong residual above which spectrum refuses a field (exit 3)
_FIELD_RESIDUAL_TOL = 1e-6


def cmd_spectrum(config: RunConfig, out: Path, field_file: str) -> None:
    V, f = config.potential(), config.nonlinearity()
    u = _read_field(field_file)
    lam = st.lagrange_multiplier(u, V, f)
    res = md.l2_residual(u, lam, V, f)
    res_norm = float(np.max(np.abs(res.values)))
    if res_norm > _FIELD_RESIDUAL_TOL:
        raise PreconditionError(
            f"field is not a critical point: residual {res_norm:.3e} > {_FIELD_RESIDUAL_TOL:.1e}"
        )
    report = sp.classify(u, lam, V, f)
    _write_json(
        out / "spectrum.json",
        {**report.to_dict(), "lambda": lam, "residual": res_norm, **_metadata(config)},
    )
    # the full spectrum of L: the one dense eigensolve left
    eigenvalues = np.linalg.eigvalsh(sp.linearized_matrix(u, lam, V, f))
    _write_csv(
        out / "spectrum_eigenvalues.csv",
        ["index", "value"],
        [[i, float(v)] for i, v in enumerate(eigenvalues)],
    )


def cmd_evolve(config: RunConfig, out: Path, field_file: str,
               snapshot_stride: int = 0) -> None:
    V, f = config.potential(), config.nonlinearity()
    phi = _read_field(field_file)
    lam = st.lagrange_multiplier(phi, V, f)
    dyn = config.data.get("dynamics", {})
    dt = float(dyn.get("dt", 1e-3))
    t_end = float(dyn.get("t_end", 10.0))
    amp = float(dyn.get("perturbation_amplitude", 0.0))
    kind = dyn.get("perturbation_kind", "none" if amp == 0 else "eigenvector")
    stride = int(dyn.get("record_stride", 20))

    mass = gr.inner_l2(phi, phi)
    point = st.ConstrainedCriticalPoint.measure(phi, lam, mass, V, f)
    seed_vals = phi.values.copy()
    rate_expected = float("nan")
    if kind == "eigenvector":
        inst = sp.instability_eigenvalue(point, V, f)
        seed_vals = seed_vals + amp * inst.v.values
        rate_expected = inst.rho
    elif kind == "random":
        rng = np.random.default_rng(int(dyn.get("seed", 0)))
        noise = rng.standard_normal(len(seed_vals)) * np.exp(-np.abs(phi.grid.x))
        noise /= np.sqrt(phi.grid.h) * np.linalg.norm(noise)
        seed_vals = seed_vals + amp * noise
    elif kind != "none":
        raise ConfigError(f"unknown perturbation kind {kind!r}")
    if amp > 0:
        seed_vals *= np.sqrt(mass) / (np.sqrt(phi.grid.h) * np.linalg.norm(seed_vals))

    traj = dy.propagate(
        dy.ComplexField(phi.grid, seed_vals.astype(complex)), V, f,
        dt=dt, t_end=t_end, reference=(phi, lam),
        record_stride=stride, snapshot_stride=snapshot_stride,
    )
    _write_csv(
        out / "evolve_trace.csv",
        ["t", "mass", "energy", "orbit_distance"],
        [[float(t), float(m), float(e), float(d)]
         for t, m, e, d in zip(traj.times, traj.mass, traj.energy, traj.orbit_dist)],
    )
    payload = {"rho_expected": rate_expected, **_metadata(config)}
    d = traj.orbit_dist
    window = (d > 10 * max(amp, 1e-7)) & (d < 1e-2)
    if kind == "eigenvector" and np.count_nonzero(window) >= 4:
        t_sel = traj.times[window]
        try:
            payload["growth_rate"] = dy.growth_rate_fit(
                traj, (float(t_sel[0]), float(t_sel[-1])), lower=1e-7, upper=2e-2
            )
        except FitRejectedError:
            payload["growth_rate"] = float("nan")
    _write_json(out / "evolve.json", payload)
    for i, (t, snap) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
        np.save(out / f"snapshot_{i:04d}.npy", snap)


def cmd_semiclassical(config: RunConfig, out: Path) -> None:
    grid = config.grid()
    V, f = config.potential(), config.nonlinearity()
    semi = config.data.get("semiclassical", {})
    eps_list = semi.get("eps_list", [0.2, 0.1, 0.05])
    m_V = int(semi.get("m_V", 0))
    family = sc.continue_family(grid, eps_list, V, f.p)
    z_rows = sc.z_eps_check(family)
    t_rows = sc.translation_mode_estimate(family, V)
    m_rows = sc.morse_check(family, m_V)
    rows = []
    for member, zr, tr, mr in zip(family.members, z_rows, t_rows, m_rows):
        rows.append([
            member.eps, member.mass_unrescaled, member.x_peak,
            mr["m"], mr["m_f"], zr["pairing"], tr["ratio"],
            "flagged" if mr["flagged"] else "ok",
        ])
    _write_csv(
        out / "semiclassical_family.csv",
        ["eps", "mass", "x_eps", "m", "m_f", "pairing", "rayleigh_ratio", "status"],
        rows,
    )
    crit = family.criterion
    _write_json(
        out / "semiclassical_criterion.json",
        {
            "p": f.p,
            "numeric": crit.numeric,
            "analytic": crit.analytic,
            "relative_error": crit.relative_error,
            **_metadata(config),
        },
    )
    if "bumps" in config.data:
        _semiclassical_end_to_end(config, out, family, V, f)


def _semiclassical_end_to_end(config: RunConfig, out: Path, family, V, f) -> None:
    """Mass-match a family member and glue n translated copies of it.

    Requires the matched concentration scale to land on an integer
    translation lattice (1/eps integral), otherwise the translated wells
    cannot be realized as exact grid shifts.
    """
    n = int(config.data["bumps"].get("n", 2))
    alpha = config.mass()
    eps_n, base = sc.select_mass_epsilon(alpha, n, family)
    stride = 1.0 / eps_n
    if abs(stride - round(stride)) > 1e-9:
        raise PreconditionError(
            f"matched eps = {eps_n:.8f} has no integer translation lattice; "
            "choose a total mass whose per-bump share lands on 1/eps integral"
        )
    stride = int(round(stride))
    offsets = tuple(stride * (2 * i - (n - 1)) for i in range(n))
    Veps = sc.scaled_potential(V, eps_n)
    result = gl.glue(base, gl.BumpConfig(n, offsets), n * base.mass, Veps, f)
    report = sp.classify(result.point.u, result.point.lam, Veps, f)
    _emit_point(result.point, Veps, f, config, out, "endtoend_point")
    _write_json(
        out / "endtoend.json",
        {
            "eps": eps_n,
            "n": n,
            "offsets": list(offsets),
            "per_bump_mass": base.mass,
            **report.to_dict(),
            **_metadata(config),
        },
    )


def cmd_sweep(config: RunConfig, out: Path) -> None:
    """Separation sweep over one or more bump counts (superset of glue);
    fails only if no separation converged for any of them."""
    bumps = dict(config.data.get("bumps", {}))
    n_list = bumps.get("n_list", [bumps.get("n", 2)])
    for n in n_list:
        _glue_configs(config, int(n))
    n_ok = 0
    for n in n_list:
        sub = dict(config.data)
        sub_bumps = dict(bumps)
        sub_bumps.pop("n_list", None)
        sub_bumps["n"] = int(n)
        sub["bumps"] = sub_bumps
        n_ok += _glue_sweep(RunConfig(sub), out / f"n{n}")
    if not n_ok:
        raise GluingFailedError(f"no separation converged for any n in {n_list}")


def _add_common_flags(parser, suppress=False):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help="JSON run configuration")
    parser.add_argument("--out", default=default, help="output directory override")
    parser.add_argument("--snapshot-stride", type=int,
                        default=argparse.SUPPRESS if suppress else 0,
                        help="steps between stored snapshots (evolve)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multibump", description="normalized multibump standing-wave laboratory"
    )
    _add_common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("groundstate", "semiclassical", "glue", "sweep"):
        p = sub.add_parser(name)
        _add_common_flags(p, suppress=True)
    for name in ("spectrum", "evolve"):
        p = sub.add_parser(name)
        p.add_argument("field_file", help="field CSV or binary produced by this tool")
        _add_common_flags(p, suppress=True)

    args = parser.parse_args(argv)
    if args.config is None:
        parser.error("--config is required")
    try:
        config = RunConfig.load(args.config)
        out = Path(args.out or os.environ.get("MULTIBUMP_OUT") or config.data.get("output", "out"))
        out.mkdir(parents=True, exist_ok=True)
        # a module global at call time, so that a patched cli.cmd_* is the one run
        command = globals()[f"cmd_{args.command}"]
        if args.command == "evolve":
            command(config, out, args.field_file, snapshot_stride=args.snapshot_stride)
        elif args.command == "spectrum":
            command(config, out, args.field_file)
        else:
            command(config, out)
    except MultibumpError as exc:
        message = str(exc).replace("\n", " ")
        print(f"{exc.label}: {message}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
