"""Batch experiment harness.

One JSON configuration file per run; subcommands map to the laboratory's
capabilities: groundstate, glue, spectrum, evolve, semiclassical, sweep.
All tables are CSV with a header row; all scalar reports are JSON with
the configuration hash and code version embedded so identical runs are
byte-identical.

Commands and the argument parser only raise: main prints a failure as one
stderr line "<label>: <message>" and exits with the code its error class
declares (errors.py): 2 configuration error, 3 precondition failure, 4
solver failure; 0 is success.
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


def _rule(says: str, test):
    """A predicate on a configured value; says is what it accepts."""
    test.says = says
    return test


# JSON numbers load as int or float, so type() keeps bool (true/false) out
_number = _rule("a finite number",
                lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_positive = _rule("a finite number > 0", lambda v: _number(v) and v > 0)
_whole = _rule("a whole number", lambda v: _number(v) and float(v).is_integer())
_integer = _rule("an integer", lambda v: type(v) is int)
_nonempty_string = _rule("a non-empty string", lambda v: type(v) is str and v != "")


def _at_least(low: int):
    return _rule(f"an integer >= {low}", lambda v: _integer(v) and v >= low)


def _one_of(*choices):
    return _rule(f"one of {list(choices)}", lambda v: v in choices)


def _list_of(rule):
    return _rule(f"a non-empty list, each {rule.says}",
                 lambda v: type(v) is list and len(v) > 0 and all(map(rule, v)))


# Each key a configuration may hold: section -> key -> (rule, default), or
# (rule, default) for the top-level mass and output; a default of None is read
# only where given.  Rules hold what the constructors do not check themselves.
_TABLE = {
    "grid": {"L": (_integer, 24), "M": (_integer, 1536)},
    "potential": {"kind": (_one_of("constant", "cosine", "tabulated"), "constant"),
                  "amplitude": (_number, 0.5), "shift": (_number, 0.0),
                  "constant": (_number, 1.0), "table": (_list_of(_number), None)},
    "nonlinearity": {"p": (_number, 4.0)},
    "mass": (_positive, 1.0),
    "bumps": {"n": (_at_least(1), 2), "offsets": (_list_of(_number), None),
              "separations": (_rule("a non-empty list of distinct whole numbers >= 1",
                                    lambda v: _list_of(_whole)(v) and min(v) >= 1
                                    and len(set(v)) == len(v)), [8, 12, 16]),
              "n_list": (_list_of(_at_least(1)), None)},
    # the solver tolerances are constants of gluing, stationary and grid
    "solver": {"center": (_number, 0.0)},
    "dynamics": {"dt": (_number, 1e-3), "t_end": (_positive, 10.0),
                 "perturbation_amplitude": (_number, 0.0),
                 # by default "none" at zero amplitude, else "eigenvector" (cmd_evolve)
                 "perturbation_kind": (_one_of("none", "eigenvector", "random"), None),
                 "seed": (_at_least(0), 0), "record_stride": (_at_least(1), 20),
                 "snapshot_stride": (_at_least(0), 0)},
    "semiclassical": {"eps_list": (_list_of(_positive), [0.2, 0.1, 0.05]), "m_V": (_integer, 0)},
    "output": (_nonempty_string, "out"),
}


def _check(name: str, rule, value) -> None:
    if not rule(value):
        raise ConfigError(f"{name} must be {rule.says}, got {value!r}")


def _built(section: str, make):
    """make(), its ValueError a configuration error in the named section."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc


class RunConfig:
    """A run configuration checked against _TABLE; construction also builds
    the grid, potential, nonlinearity and bump configurations, so whatever
    they refuse exits 2 before any solve.  data stays the dict as loaded
    (hash() reads it): get() supplies the defaults."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be an object")
        unknown = set(data) - set(_TABLE)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        for section, value in data.items():
            keys = _TABLE[section]
            if isinstance(keys, tuple):
                _check(section, keys[0], value)
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"section {section!r} must be an object")
            extra = sorted(f"{section}.{key}" for key in set(value) - set(keys))
            if extra:
                raise ConfigError(f"unknown configuration keys: {extra}")
            for key, item in value.items():
                _check(f"{section}.{key}", keys[key][0], item)
        self.data = data
        self.grid = _built("grid",
                           lambda: gr.GridSpec(self.get("grid", "L"), self.get("grid", "M")))
        L, M = self.grid.L, self.grid.M
        if M % (2 * L) != 0:
            raise ConfigError(
                f"grid.M = {M} must be a multiple of 2L = {2 * L} so that unit "
                "translations are exact grid shifts"
            )
        self.potential = _built("potential", self._potential)
        amp = self.get("dynamics", "perturbation_amplitude")
        if self.get("dynamics", "perturbation_kind") == "none" and amp != 0:
            raise ConfigError(f"dynamics.perturbation_kind 'none' does not read "
                              f"dynamics.perturbation_amplitude, got {amp!r}")
        self.nonlinearity = _built("nonlinearity",
                                   lambda: md.Nonlinearity(self.get("nonlinearity", "p")))
        # superpose admits distinct integer offsets |a| < L - 1 only: 2L - 3 of them
        n_max, bumps = 2 * L - 3, data.get("bumps", {})
        for key, n in [("n", self.get("bumps", "n")),
                       *(("n_list", n) for n in bumps.get("n_list", []))]:
            if key in bumps and n > n_max:
                raise ConfigError(f"bumps.{key} must be at most 2L - 3 = {n_max} on this "
                                  f"grid (L = {L}), got {n}")
            _built("bumps", lambda: self.bump_configs(n))

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
        return cls(data)

    def get(self, section: str, key: str | None = None):
        """The configured value of section.key (of the top-level scalar
        section when key is None), else its default from _TABLE."""
        if key is None:
            return self.data.get(section, _TABLE[section][1])
        return self.data.get(section, {}).get(key, _TABLE[section][key][1])

    def _potential(self) -> md.Potential:
        kind, shift = self.get("potential", "kind"), self.get("potential", "shift")
        own = {"constant": "constant", "cosine": "amplitude", "tabulated": "table"}[kind]
        unread = [f"potential.{key}" for key in sorted(set(self.data.get("potential", {}))
                                                         - {"kind", "shift", own})]
        if unread:
            raise ConfigError(f"kind {kind!r} does not read {', '.join(unread)}")
        if kind == "constant":
            return md.Potential.const(self.get("potential", "constant")).shifted(shift)
        if kind == "cosine":
            return md.Potential.cosine(self.get("potential", "amplitude"), shift)
        return md.Potential.tabulated(self.get("potential", "table"), shift)

    def bump_configs(self, n: int) -> list:
        """Glue configurations: the explicit offsets, else n bumps per separation."""
        offsets = self.get("bumps", "offsets")
        if offsets is not None and "separations" not in self.data["bumps"]:
            return [gl.BumpConfig(len(offsets), tuple(offsets))]
        return [gl.BumpConfig(n, _symmetric_offsets(n, int(d)))
                for d in self.get("bumps", "separations")]

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


def _ground_state(config: RunConfig, mass: float):
    """The configured ground state of the given mass, and the potential in
    the gauge it was solved in."""
    V = config.potential
    point = gl.ground_state(config.grid, mass, V, config.nonlinearity,
                            center=config.get("solver", "center"))
    return point, V.shifted(point.potential_shift) if point.potential_shift else V


def cmd_groundstate(config: RunConfig, out: Path) -> None:
    point, Vw = _ground_state(config, config.get("mass"))
    f = config.nonlinearity
    point.certify()
    _emit_point(point, Vw, f, config, out, "groundstate")
    report = sp.classify(point.u, point.lam, Vw, f)
    _write_json(out / "groundstate_spectrum.json", {**report.to_dict(), **_metadata(config)})


def _symmetric_offsets(n: int, d: int) -> tuple:
    span = d * (n - 1)
    start = -span // 2
    return tuple(start + d * i for i in range(n))


def _glue_row(ubar, cfg, alpha, V, f):
    result = gl.glue(ubar, cfg, alpha, V, f)
    report = sp.classify(result.point.u, result.point.lam, V, f)
    sigma = gl.bordered_sigma_min(
        gl.ExtendedPoint(gl.superpose(ubar.u, cfg), ubar.lam), V, f
    )
    return result, report, sigma


def _glue_configs(config: RunConfig, n: int) -> list:
    """The glue configurations; one bump has nothing to glue (exit 2)."""
    configs = config.bump_configs(n)
    if any(cfg.n < 2 for cfg in configs):
        raise ConfigError("glue and sweep need at least two bumps (bumps.n, n_list or offsets)")
    return configs


def _glue_sweep(config: RunConfig, out: Path) -> int:
    """Glue at every configured separation, write glue_sweep.csv and the
    converged points; returns the number of rows that converged."""
    configs = _glue_configs(config, config.get("bumps", "n"))
    alpha = config.get("mass")
    ubar, V = _ground_state(config, alpha / configs[0].n)
    f = config.nonlinearity
    _emit_point(ubar, V, f, config, out, "base_point")

    rows, n_ok = [], 0
    for cfg in configs:
        d = cfg.separation
        try:
            result, report, sigma = _glue_row(ubar, cfg, alpha, V, f)
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


def _read_point(config: RunConfig, field_file: str) -> st.ConstrainedCriticalPoint:
    """The field in field_file, at its Rayleigh multiplier and its own mass,
    with the defects measured in the configured potential."""
    V, f = config.potential, config.nonlinearity
    u = _read_field(field_file)
    return st.ConstrainedCriticalPoint.measure(u, st.lagrange_multiplier(u, V, f),
                                               gr.inner_l2(u, u), V, f)


def cmd_spectrum(config: RunConfig, out: Path, field_file: str) -> None:
    V, f = config.potential, config.nonlinearity
    point = _read_point(config, field_file)
    u, lam, res_norm = point.u, point.lam, point.l2_residual_norm
    if res_norm > _FIELD_RESIDUAL_TOL:
        raise PreconditionError(
            f"field is not a critical point: residual {res_norm:.3e} > {_FIELD_RESIDUAL_TOL:.1e}"
        )
    report = sp.classify(u, lam, V, f)
    _write_json(
        out / "spectrum.json",
        {**report.to_dict(), "lambda": lam, "residual": res_norm, **_metadata(config)},
    )
    eigenvalues = sp.dense_spectrum(u, lam, V, f)
    _write_csv(
        out / "spectrum_eigenvalues.csv",
        ["index", "value"],
        [[i, float(v)] for i, v in enumerate(eigenvalues)],
    )


def cmd_evolve(config: RunConfig, out: Path, field_file: str) -> None:
    V, f = config.potential, config.nonlinearity
    point = _read_point(config, field_file)
    phi, mass = point.u, point.mass
    amp = config.get("dynamics", "perturbation_amplitude")
    kind = config.get("dynamics", "perturbation_kind") or ("none" if amp == 0 else "eigenvector")

    seed_vals = phi.values.copy()
    rate_expected = float("nan")
    if kind == "eigenvector":
        inst = sp.instability_eigenvalue(point, V, f)
        seed_vals = seed_vals + amp * inst.v.values
        rate_expected = inst.rho
    elif kind == "random":
        rng = np.random.default_rng(config.get("dynamics", "seed"))
        noise = rng.standard_normal(len(seed_vals)) * np.exp(-np.abs(phi.grid.x))
        noise /= np.sqrt(phi.grid.h) * np.linalg.norm(noise)
        seed_vals = seed_vals + amp * noise
    if amp != 0:
        seed_vals *= np.sqrt(mass) / (np.sqrt(phi.grid.h) * np.linalg.norm(seed_vals))

    traj = dy.propagate(
        dy.ComplexField(phi.grid, seed_vals.astype(complex)), V, f,
        dt=config.get("dynamics", "dt"), t_end=config.get("dynamics", "t_end"),
        reference=phi, record_stride=config.get("dynamics", "record_stride"),
        snapshot_stride=config.get("dynamics", "snapshot_stride"),
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
    # no growth_rate when the window is too short or the fit refuses it
    if kind == "eigenvector" and np.count_nonzero(window) >= 4:
        t_sel = traj.times[window]
        try:
            payload["growth_rate"] = dy.growth_rate_fit(
                traj, (float(t_sel[0]), float(t_sel[-1])), lower=1e-7, upper=2e-2
            )
        except FitRejectedError:
            pass
    _write_json(out / "evolve.json", payload)
    for i, (t, snap) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
        np.save(out / f"snapshot_{i:04d}.npy", snap)


def cmd_semiclassical(config: RunConfig, out: Path) -> None:
    V, f = config.potential, config.nonlinearity
    family = sc.continue_family(config.grid, config.get("semiclassical", "eps_list"), V, f.p)
    z_rows = sc.z_eps_check(family)
    t_rows = sc.translation_mode_estimate(family)
    m_rows = sc.morse_check(family, config.get("semiclassical", "m_V"))
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
    n = config.get("bumps", "n")
    eps_n, base = sc.select_mass_epsilon(config.get("mass"), n, family)
    stride = 1.0 / eps_n
    if abs(stride - round(stride)) > 1e-9:
        raise PreconditionError(
            f"matched eps = {eps_n:.8f} has no integer translation lattice; "
            "choose a total mass whose per-bump share lands on 1/eps integral"
        )
    stride = int(round(stride))
    offsets = _symmetric_offsets(n, 2 * stride)
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
    n_list = config.get("bumps", "n_list") or [config.get("bumps", "n")]
    for n in n_list:
        _glue_configs(config, n)
    # each n runs, and hashes its artifacts, as the configuration with bumps.n = n
    bumps = {key: value for key, value in config.data.get("bumps", {}).items() if key != "n_list"}
    n_ok = 0
    for n in n_list:
        sub = RunConfig({**config.data, "bumps": {**bumps, "n": n}})
        n_ok += _glue_sweep(sub, out / f"n{n}")
    if not n_ok:
        raise GluingFailedError(f"no separation converged for any n in {n_list}")


class _Parser(argparse.ArgumentParser):
    """Its usage errors raise ConfigError, for main to report in one line."""

    def error(self, message):
        raise ConfigError(message)


def _reject_unknown_flags(argv, valued, commands) -> None:
    """Name a flag before the command that the root parser does not declare:
    argparse would take the flag's value for the command and name the value.
    valued are the root's flags that take a value."""
    tokens = iter(argv)
    for token in tokens:
        if token in commands:
            return
        if token in valued:
            next(tokens, None)  # its value
        elif token.startswith("-") and token.partition("=")[0] not in (*valued, "-h", "--help"):
            raise ConfigError(f"unrecognized flag before the command: {token}")


def main(argv=None) -> int:
    # no abbreviated flags: a flag is spelled as declared, or it is unknown
    parser = _Parser(prog="multibump", allow_abbrev=False,
                     description="normalized multibump standing-wave laboratory")
    valued = [*parser.add_argument("--config", required=True,
                                   help="JSON run configuration").option_strings,
              *parser.add_argument("--out", help="output directory override").option_strings]
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("groundstate", "semiclassical", "glue", "sweep"):
        sub.add_parser(name)
    for name in ("spectrum", "evolve"):
        sub.add_parser(name).add_argument(
            "field_file", help="field CSV or binary produced by this tool")

    try:
        argv = sys.argv[1:] if argv is None else argv
        _reject_unknown_flags(argv, valued, sub.choices)
        args = parser.parse_args(argv)
        config = RunConfig.load(args.config)
        out = Path(args.out or os.environ.get("MULTIBUMP_OUT") or config.get("output"))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
        # a module global at call time, so that a patched cli.cmd_* is the one run
        command = globals()[f"cmd_{args.command}"]
        command(config, out, *([args.field_file] if "field_file" in args else []))
    except MultibumpError as exc:
        message = str(exc).replace("\n", " ")
        print(f"{exc.label}: {message}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
