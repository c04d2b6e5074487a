"""Harness: config validation, artifacts, determinism, exit codes."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from multibump import cli, errors
from multibump.cli import RunConfig, main
from multibump.errors import ConfigError
from multibump.grid import (
    Field,
    GridSpec,
    read_field_binary,
    write_field_binary,
    write_field_csv,
)
from multibump.stationary import limit_profile

BASE_CONFIG = {
    "grid": {"L": 16, "M": 1024},
    "potential": {"kind": "cosine", "amplitude": 0.5},
    "nonlinearity": {"p": 4.0},
    "mass": 4.5,
    "solver": {"center": 0.5},
}


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# every place a value can sit: each table key, a top-level scalar (key None),
# and keys the table does not hold
_PLACES = [
    (section, key)
    for section, keys in cli._TABLE.items()
    for key in (keys if isinstance(keys, dict) else [None])
] + [("grid", "extra"), ("bumps", "d"), ("unknown_section", None)]
# integers bounded so that no example builds a long offset tuple; short
# lists of small integers pass most list rules and reach the constructors
_JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers(-1000, 1000) | hst.floats() | hst.text(max_size=4),
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8,
) | hst.lists(hst.integers(-30, 30), min_size=1, max_size=4)


class TestRunConfig:
    def test_accepts_base(self):
        RunConfig(dict(BASE_CONFIG))

    def test_accepts_the_readme_example(self):
        # the README's example holds only keys the table knows, with valid values
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example, = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        RunConfig(json.loads(example))

    @pytest.mark.parametrize(
        "patch",
        [
            {"unknown_section": {}},
            {"grid": {"L": 16, "M": 1024, "extra": 1}},
            {"grid": {"L": 16, "M": 1000}},  # not a multiple of 2L
            {"grid": {"L": 16, "M": 65}},
            {"grid": {"L": -2, "M": 1024}},
            {"nonlinearity": {"p": 2.0}},
            {"mass": -1.0},
            {"potential": {"kind": "mystery"}},
        ],
    )
    def test_rejects_invalid(self, patch):
        data = dict(BASE_CONFIG)
        data.update(patch)
        with pytest.raises(ConfigError):
            RunConfig(data)

    @pytest.mark.parametrize("potential", [
        {"kind": "constant", "constant": 1.0, "shift": 0.5},
        {"kind": "cosine", "amplitude": 0.0, "shift": 0.5},
        {"kind": "tabulated", "table": [1.0, 1.0], "shift": 0.5},
    ], ids=["constant", "cosine", "tabulated"])
    def test_every_kind_takes_the_shift(self, potential):
        # the constant kind used to drop its shift and sample 1.0
        config = RunConfig({**BASE_CONFIG, "potential": potential})
        assert np.all(config.potential.sample(config.grid) == 1.5)

    @pytest.mark.parametrize("potential, kind, unread", [
        ({"amplitude": 0.5}, "constant", "potential.amplitude"),
        ({"kind": "cosine", "amplitude": 0.5, "table": [1.0, 2.0]}, "cosine", "potential.table"),
        ({"kind": "cosine", "constant": 2.0}, "cosine", "potential.constant"),
        ({"kind": "tabulated", "table": [1.0, 2.0], "amplitude": 0.5}, "tabulated",
         "potential.amplitude"),
        ({"kind": "constant", "constant": 1.0, "amplitude": 0.5, "table": [1.0, 2.0]},
         "constant", "potential.amplitude, potential.table"),
    ])
    def test_refuses_keys_the_kind_does_not_read(self, potential, kind, unread, tmp_path,
                                                 capsys):
        # each of these ran, ignoring the key: the first as V = 1
        cfg = write_config(tmp_path, {**BASE_CONFIG, "potential": potential})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: kind {kind!r} does not read {unread}\n"
        assert not (tmp_path / "o").exists()

    def test_bump_counts_bounded_by_the_box(self):
        # L = 4: superpose admits the offsets |a| < 3, so at most 2L - 3 = 5 bumps
        small = {**BASE_CONFIG, "grid": {"L": 4, "M": 256}}
        RunConfig({**small, "bumps": {"n": 5, "separations": [1]}})
        RunConfig({**small, "bumps": {"n_list": [2, 5], "separations": [1]}})
        for key, bumps in [("n", {"n": 6}), ("n", {"n": 1000, "offsets": [0, 1]}),
                           ("n_list", {"n_list": [2, 6]})]:
            with pytest.raises(ConfigError, match=f"bumps.{key} must be at most 2L - 3 = 5"):
                RunConfig({**small, "bumps": bumps})
        # the default bumps.n is not bounded: a run without bumps needs none
        RunConfig({**BASE_CONFIG, "grid": {"L": 2, "M": 64}})

    def test_hash_stable_under_key_order(self):
        a = RunConfig(dict(BASE_CONFIG)).hash()
        reordered = json.loads(json.dumps(BASE_CONFIG, sort_keys=True))
        b = RunConfig(reordered).hash()
        assert a == b

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, {"mass": -1.0})
        rc = main(["--config", bad, "--out", str(tmp_path / "o"), "groundstate"])
        assert rc == 2

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(hst.tuples(hst.sampled_from(_PLACES), _JSON_VALUES), max_size=4))
    def test_constructs_or_raises_config_error(self, draws):
        # JSON-like values at table keys and at unknown ones: nothing but a
        # ConfigError may escape the constructor
        data = json.loads(json.dumps(BASE_CONFIG))
        for (section, key), value in draws:
            if key is None:
                data[section] = value
            else:
                if not isinstance(data.get(section), dict):
                    data[section] = {}
                data[section][key] = value
        try:
            RunConfig(data)
        except ConfigError:
            pass


def _run_cli(argv, code=None, **env_vars):
    """The CLI in a fresh interpreter (or code run with argv), with env_vars set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    command = ["-m", "multibump"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def groundstate_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gs")
    cfg = write_config(tmp, BASE_CONFIG)
    out = tmp / "out"
    rc = main(["--config", cfg, "--out", str(out), "groundstate"])
    assert rc == 0
    return tmp, cfg, out


class TestGroundstate:
    def test_artifacts_exist(self, groundstate_run):
        _, _, out = groundstate_run
        for name in (
            "groundstate.json",
            "groundstate_field.csv",
            "groundstate_field.bin",
            "groundstate_spectrum.json",
        ):
            assert (out / name).exists()

    def test_payload_contents(self, groundstate_run):
        _, _, out = groundstate_run
        payload = json.loads((out / "groundstate.json").read_text())
        assert payload["residual"] < 1e-8
        assert payload["mass"] == pytest.approx(4.5)
        assert "config_hash" in payload and "version" in payload
        spectrum = json.loads((out / "groundstate_spectrum.json").read_text())
        assert spectrum["m"] == 0 and spectrum["m_f"] == 1

    def test_runs_without_importing_scipy(self, groundstate_run):
        # scipy is the tests' oracle only: a command, classify and its lazy
        # imports included, runs on numpy alone
        tmp, cfg, _ = groundstate_run
        code = ("import sys; from multibump import cli; rc = cli.main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "sys.exit(rc)")
        proc = _run_cli(["--config", cfg, "--out", str(tmp / "no_scipy"), "groundstate"],
                        code=code)
        assert proc.returncode == 0, proc.stderr
        assert (tmp / "no_scipy" / "groundstate_spectrum.json").exists()
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_artifacts_do_not_depend_on_thread_count(self, groundstate_run):
        # BLAS reads its thread count when it loads, so each count needs its
        # own interpreter
        tmp, cfg, _ = groundstate_run
        for threads in ("1", "2"):
            proc = _run_cli(["--config", cfg, "--out", str(tmp / f"threads{threads}"),
                             "groundstate"], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        for name in ("groundstate.json", "groundstate_spectrum.json"):
            assert ((tmp / "threads1" / name).read_bytes()
                    == (tmp / "threads2" / name).read_bytes())

    def test_determinism(self, groundstate_run):
        tmp, cfg, out = groundstate_run
        out2 = tmp / "out2"
        assert main(["--config", cfg, "--out", str(out2), "groundstate"]) == 0
        for name in ("groundstate.json", "groundstate_field.bin",
                     "groundstate_spectrum.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()


class TestGroundstateRegimes:
    """One Newton start on either side of the critical exponent p = 6."""

    @pytest.mark.parametrize("p, mass, L, M", [(7.0, 2.5, 8, 512), (9.687, 2.09, 4, 256)])
    def test_supercritical_bump_has_one_negative_direction(self, p, mass, L, M, tmp_path):
        data = {**BASE_CONFIG, "grid": {"L": L, "M": M}, "nonlinearity": {"p": p},
                "mass": mass}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"]) == 0
        spectrum = json.loads((tmp_path / "o" / "groundstate_spectrum.json").read_text())
        assert (spectrum["m"], spectrum["m_f"]) == (1, 1)

    def test_critical_exponent_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "grid": {"L": 8, "M": 512},
                                      "nonlinearity": {"p": 6.0}, "mass": 2.0})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition failure: at the critical exponent 6")
        assert err.count("\n") == 1

    def test_unresolved_bump_fails_at_once(self, tmp_path, capsys):
        # at p = 5 a bump of mass 9 decays over 0.03, about one grid spacing:
        # glue refuses the profile's start, and the refusal names the width
        cfg = write_config(tmp_path, {"grid": {"L": 8, "M": 512},
                                      "potential": {"kind": "constant", "constant": 1.0},
                                      "nonlinearity": {"p": 5.0}, "mass": 9.0})
        start = time.perf_counter()
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert rc == 3 and err.count("\n") == 1
        assert "decays over 2.932e-02 = 0.94 h" in err and "starting residual" in err


class TestSpectrumCommand:
    def test_classifies_existing_field(self, groundstate_run, eigensolve_sizes):
        tmp, cfg, out = groundstate_run
        rc = main([
            "--config", cfg, "--out", str(tmp / "spectrum_out"),
            "spectrum", str(out / "groundstate_field.bin"),
        ])
        assert rc == 0
        # the table's parity blocks (the field is even about x = 0.5, a grid
        # point), and no other eigensolve of an order near M = 1024: the rest
        # are the Rayleigh-Ritz and tridiagonal solves of LOBPCG and Lanczos
        assert [n for n in eigensolve_sizes if n >= 1024 // 4] == [513, 511]
        report = json.loads((tmp / "spectrum_out" / "spectrum.json").read_text())
        assert report["classification"] == "fully_nondegenerate_neg"
        rows = (tmp / "spectrum_out" / "spectrum_eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "index,value"
        assert len(rows) == 1 + 1024  # one per grid point
        assert float(rows[1].split(",")[1]) < 0  # single negative direction first
        values = np.array([float(row.split(",")[1]) for row in rows[1:]])
        assert np.count_nonzero(values < -report["tau0"]) == report["m_f"]

    def test_artifacts_do_not_depend_on_thread_count(self, groundstate_run):
        # BLAS reads its thread count when it loads, so each count needs its
        # own interpreter; the eigenvalue table is the dense solve that a
        # second thread would reorder
        tmp, cfg, out = groundstate_run
        dirs = [tmp / f"spectrum_threads{threads}" for threads in ("1", "2")]
        for threads, directory in zip(("1", "2"), dirs):
            proc = _run_cli(["--config", cfg, "--out", str(directory), "spectrum",
                             str(out / "groundstate_field.bin")], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        names = sorted(path.name for path in dirs[0].iterdir())
        assert names == ["spectrum.json", "spectrum_eigenvalues.csv"]
        assert sorted(path.name for path in dirs[1].iterdir()) == names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_uncertified_count_exits_4(self, groundstate_run):
        tmp, cfg, out = groundstate_run
        capped = ("import sys; from multibump import cli, spectra; spectra._BLOCK_CAP = 1; "
                  "sys.exit(cli.main(sys.argv[1:]))")
        proc = _run_cli(["--config", cfg, "--out", str(tmp / "spectrum_capped"),
                         "spectrum", str(out / "groundstate_field.bin")], code=capped)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure: Ritz block of 1 ")

    def test_tampered_field_exits_3(self, groundstate_run, capsys):
        from multibump.grid import read_field_binary, write_field_binary, Field

        tmp, cfg, out = groundstate_run
        u = read_field_binary(out / "groundstate_field.bin")
        rng = np.random.default_rng(0)
        bad = Field(u.grid, u.values + 0.05 * rng.standard_normal(u.grid.M))
        tampered = tmp / "tampered.bin"
        write_field_binary(bad, tampered)
        rc = main(["--config", cfg, "--out", str(tmp / "spectrum_out2"),
                   "spectrum", str(tampered)])
        assert rc == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("precondition failure: field is not a critical point")


class TestGlueCommand:
    def test_sweep_csv(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["mass"] = 9.0
        data["bumps"] = {"n": 2, "separations": [8, 10]}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "glue"])
        assert rc == 0
        lines = (out / "glue_sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["d", "newton_iters", "dist_h1", "dlambda",
                          "sigma_min", "m", "m_f", "status"]
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.endswith("ok")
            assert int(line.split(",")[5]) == 1  # constrained index n - 1

    def test_partial_failure_still_succeeds(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["mass"] = 9.0
        data["bumps"] = {"n": 2, "separations": [2, 10]}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "glue"])
        assert rc == 0
        lines = (out / "glue_sweep.csv").read_text().strip().splitlines()
        statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert any(s.startswith("failed") for s in statuses)
        assert any(s == "ok" for s in statuses)

    def test_nothing_converged_exits_4_with_one_line(self, tmp_path, capsys):
        data = dict(BASE_CONFIG, mass=9.0, bumps={"n": 2, "separations": [2]})
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "glue"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure: ")
        rows = (out / "glue_sweep.csv").read_text().strip().splitlines()
        assert rows[1:] == ["2.0,-1,nan,nan,nan,-1,-1,failed:GluingFailedError"]


class TestEvolveCommand:
    def test_unperturbed_control_is_flat(self, groundstate_run, tmp_path):
        _, cfg_path, out = groundstate_run
        data = dict(BASE_CONFIG)
        data["dynamics"] = {"dt": 1e-3, "t_end": 1.0, "perturbation_amplitude": 0.0}
        cfg = write_config(tmp_path, data)
        run_out = tmp_path / "evo"
        rc = main(["--config", cfg, "--out", str(run_out),
                   "evolve", str(out / "groundstate_field.bin")])
        assert rc == 0
        rows = (run_out / "evolve_trace.csv").read_text().strip().splitlines()[1:]
        dists = [float(r.split(",")[3]) for r in rows]
        assert max(dists) < 1e-4

    def test_eigenvector_run_does_not_depend_on_thread_count(self, tmp_path):
        # rho_expected is the instability pencil's, at a glued pair whose mu
        # (-6.7e-5) is small against the operator scale (1e4)
        data = {**BASE_CONFIG, "grid": {"L": 24, "M": 1536}, "mass": 9.0,
                "bumps": {"n": 2, "separations": [12]},
                "dynamics": {"dt": 1e-3, "t_end": 0.02, "perturbation_amplitude": 1e-4,
                             "perturbation_kind": "eigenvector"}}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--out", str(tmp_path / "glue"), "glue"]) == 0
        field = tmp_path / "glue" / "glue_point_d12_field.bin"
        for threads in ("1", "2"):
            proc = _run_cli(["--config", cfg, "--out", str(tmp_path / f"threads{threads}"),
                             "evolve", str(field)], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "threads1" / "evolve.json").read_bytes()
                == (tmp_path / "threads2" / "evolve.json").read_bytes())

    def test_refused_fit_omits_the_growth_rate(self, tmp_path, monkeypatch):
        # the p = 8 bump (m = 1) grows out of its linear band in t = 2
        data = {**BASE_CONFIG, "grid": {"L": 8, "M": 512}, "nonlinearity": {"p": 8.0},
                "mass": 2.0,
                "dynamics": {"dt": 2e-3, "t_end": 2.0, "perturbation_amplitude": 1e-5,
                             "perturbation_kind": "eigenvector", "record_stride": 10}}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--out", str(tmp_path / "gs"), "groundstate"]) == 0
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise errors.FitRejectedError("refused")

        monkeypatch.setattr(cli.dy, "growth_rate_fit", refuse)
        assert main(["--config", cfg, "--out", str(tmp_path / "evo"), "evolve",
                     str(tmp_path / "gs" / "groundstate_field.bin")]) == 0
        payload = json.loads((tmp_path / "evo" / "evolve.json").read_text())
        assert calls and "growth_rate" not in payload and payload["rho_expected"] > 0

    @pytest.mark.parametrize("amplitude", [1e-3, -1e-3])
    def test_perturbed_start_keeps_the_base_mass(self, amplitude, tmp_path):
        data = {"grid": {"L": 8, "M": 256}, "potential": {"kind": "constant", "constant": 1.0},
                "nonlinearity": {"p": 4.0}, "mass": 2.0,
                "dynamics": {"dt": 1e-3, "t_end": 0.002, "record_stride": 1,
                             "perturbation_amplitude": amplitude,
                             "perturbation_kind": "random"}}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--out", str(tmp_path / "gs"), "groundstate"]) == 0
        field = tmp_path / "gs" / "groundstate_field.bin"
        assert main(["--config", cfg, "--out", str(tmp_path / "evo"), "evolve", str(field)]) == 0
        rows = (tmp_path / "evo" / "evolve_trace.csv").read_text().splitlines()
        base = read_field_binary(field)
        base_mass = base.grid.h * float(np.dot(base.values, base.values))
        assert float(rows[1].split(",")[1]) == pytest.approx(base_mass, rel=1e-12, abs=0)

    def test_snapshot_stride_writes_snapshots(self, groundstate_run, tmp_path):
        _, _, out = groundstate_run
        data = dict(BASE_CONFIG, dynamics={"dt": 1e-3, "t_end": 0.01, "record_stride": 1,
                                           "snapshot_stride": 4})
        cfg = write_config(tmp_path, data)
        run_out = tmp_path / "evo"
        assert main(["--config", cfg, "--out", str(run_out),
                     "evolve", str(out / "groundstate_field.bin")]) == 0
        # steps 0, 4 and 8 of the 10, and the last one
        snapshots = sorted(run_out.glob("snapshot_*.npy"))
        assert [path.name for path in snapshots] == [f"snapshot_{i:04d}.npy" for i in range(4)]
        for path in snapshots:
            assert np.load(path).shape == (1024,)

    def test_negative_snapshot_stride_exits_2_before_any_work(self, groundstate_run, tmp_path,
                                                              capsys):
        _, _, out = groundstate_run
        cfg = write_config(tmp_path, dict(BASE_CONFIG, dynamics={"snapshot_stride": -4}))
        run_out = tmp_path / "evo"
        assert main(["--config", cfg, "--out", str(run_out),
                     "evolve", str(out / "groundstate_field.bin")]) == 2
        err = capsys.readouterr().err
        assert (err.startswith("configuration error: dynamics.snapshot_stride")
                and err.count("\n") == 1)
        assert not run_out.exists()

    def test_partial_last_step_exits_3(self, groundstate_run, tmp_path, capsys):
        _, _, out = groundstate_run
        data = dict(BASE_CONFIG)
        data["dynamics"] = {"dt": 0.003, "t_end": 0.01}  # 3.33 steps
        cfg = write_config(tmp_path, data)
        rc = main(["--config", cfg, "--out", str(tmp_path / "evo"),
                   "evolve", str(out / "groundstate_field.bin")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("precondition failure: t_end")

    def test_overflowing_field_prints_one_line(self, tmp_path):
        # a separate interpreter: pytest would capture numpy's RuntimeWarnings
        grid = GridSpec(16, 1024)
        field_path = tmp_path / "big.bin"
        write_field_binary(Field(grid, 1e60 * np.exp(-grid.x**2)), field_path)
        data = dict(BASE_CONFIG)
        data["nonlinearity"] = {"p": 8.0}
        data["dynamics"] = {"dt": 1e-3, "t_end": 0.01}
        cfg = write_config(tmp_path, data)
        proc = _run_cli(["--config", cfg, "--out", str(tmp_path / "evo"), "evolve",
                         str(field_path)])
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "precondition failure: field contains non-finite entries"
        ]


class TestOutputDirectory:
    """--out, else MULTIBUMP_OUT, else the configured output."""

    def _run(self, tmp_path, monkeypatch, flags):
        seen = []
        monkeypatch.setattr(cli, "cmd_groundstate", lambda config, out: seen.append(out))
        monkeypatch.setenv("MULTIBUMP_OUT", str(tmp_path / "env"))
        cfg = write_config(tmp_path, dict(BASE_CONFIG, output=str(tmp_path / "configured")))
        assert main(["--config", cfg, *flags, "groundstate"]) == 0
        assert not (tmp_path / "configured").exists()
        return seen

    def test_environment_sets_it_without_out(self, tmp_path, monkeypatch):
        assert self._run(tmp_path, monkeypatch, []) == [tmp_path / "env"]
        assert (tmp_path / "env").is_dir()

    def test_out_overrides_the_environment(self, tmp_path, monkeypatch):
        flags = ["--out", str(tmp_path / "flag")]
        assert self._run(tmp_path, monkeypatch, flags) == [tmp_path / "flag"]
        assert (tmp_path / "flag").is_dir() and not (tmp_path / "env").exists()


class TestSweepCommand:
    def test_multiple_bump_counts(self, tmp_path):
        data = dict(BASE_CONFIG)
        data["mass"] = 9.0
        data["bumps"] = {"n_list": [2], "separations": [10]}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "sweep"])
        assert rc == 0
        assert (out / "n2" / "glue_sweep.csv").exists()

    def test_nothing_converged_runs_every_n_then_exits_4(self, tmp_path, capsys):
        data = dict(BASE_CONFIG, mass=9.0, bumps={"n_list": [2, 3], "separations": [2]})
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure: ")
        for n in (2, 3):
            rows = (out / f"n{n}" / "glue_sweep.csv").read_text().strip().splitlines()
            assert len(rows) == 2 and rows[1].endswith(",failed:GluingFailedError")

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2", "sweep"]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestPotentialGauge:
    def test_negative_bottom_is_shifted_and_reported(self, tmp_path):
        from multibump.gluing import ground_state
        from multibump.grid import GridSpec
        from multibump.model import Nonlinearity, Potential

        grid = GridSpec(16, 1024)
        V = Potential.cosine(0.5, shift=-1.2)  # bottom below zero
        point = ground_state(grid, 4.0, V, Nonlinearity(4.0), center=0.5)
        assert point.potential_shift > 0
        assert point.lam_user == pytest.approx(point.lam - point.potential_shift)


class TestSemiclassicalCommand:
    def test_family_tables(self, tmp_path):
        data = {
            "grid": {"L": 20, "M": 1280},
            "potential": {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
            "nonlinearity": {"p": 4.0},
            "mass": 1.0,
            "semiclassical": {"eps_list": [0.2, 0.1], "m_V": 0},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "semiclassical"])
        assert rc == 0
        lines = (out / "semiclassical_family.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        crit = json.loads((out / "semiclassical_criterion.json").read_text())
        assert crit["relative_error"] < 1e-4
        for line in lines[1:]:
            cells = line.split(",")
            numbers = [float(c) for c in cells[:-1]]  # every cell but the status parses
            assert cells[-1] == "ok"
            assert int(cells[3]) == 0 and int(cells[4]) == 1  # m, m_f
            assert numbers[5] < 0  # subcritical pairing

    def test_one_criterion_solve(self, tmp_path, monkeypatch):
        from multibump import semiclassical

        calls = []
        original = semiclassical.criterion_value

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(semiclassical, "criterion_value", counted)
        data = {
            "grid": {"L": 20, "M": 1280},
            "potential": {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
            "nonlinearity": {"p": 4.0},
            "semiclassical": {"eps_list": [0.2], "m_V": 0},
        }
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "semiclassical"]) == 0
        assert len(calls) == 1

    def test_end_to_end_gluing(self, tmp_path):
        # total mass chosen so the per-bump share matches eps = 0.2 exactly,
        # whose translation lattice (multiples of 5) is integral
        from multibump.grid import GridSpec
        from multibump.model import Potential
        from multibump.semiclassical import continue_family

        grid = GridSpec(20, 1280)
        V = Potential.cosine(-0.3, shift=0.3)
        family = continue_family(grid, [0.25, 0.2, 0.15], V, 4.0)
        alpha = 2 * float(
            np.interp(0.2, family.eps_values[::-1], family.unrescaled_masses[::-1])
        )
        data = {
            "grid": {"L": 20, "M": 1280},
            "potential": {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
            "nonlinearity": {"p": 4.0},
            "mass": alpha,
            "semiclassical": {"eps_list": [0.25, 0.2, 0.15], "m_V": 0},
            "bumps": {"n": 2},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "semiclassical"])
        assert rc == 0
        payload = json.loads((out / "endtoend.json").read_text())
        assert payload["eps"] == pytest.approx(0.2, abs=1e-8)
        # subcritical branch at a potential minimum: index n(m_V + 1) - 1
        assert payload["m"] == 1 and payload["m_f"] == 2


def _error_classes(base=errors.MultibumpError):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_classes(sub)


_CONFIG, _PRECONDITION, _SOLVER = (
    (2, "configuration error"), (3, "precondition failure"), (4, "solver failure"))
# every package error with its exit code and stderr label
EXIT_CODES = {
    "ConfigError": _CONFIG,
    "PreconditionError": _PRECONDITION,
    "MassRangeError": _PRECONDITION,
    "NoInstabilityDetected": _PRECONDITION,
    "InvalidFieldError": _PRECONDITION,
    "GridMismatchError": _PRECONDITION,
    "MisalignedTranslationError": _PRECONDITION,
    "AssumptionViolationError": _PRECONDITION,
    "NotFreelyNondegenerateError": _PRECONDITION,
    "PositivityViolationError": _PRECONDITION,
    "CriticalExponentError": _PRECONDITION,
    "GluingFailedError": _SOLVER,
    "LinearSolverError": _SOLVER,
    "ContinuationNeededError": _SOLVER,
    "IntegratorFaultError": _SOLVER,
    "FitRejectedError": _SOLVER,
    "DegenerateSuperpositionError": _SOLVER,
    "UncertifiedCountError": _SOLVER,
}


_RANDOM = {"perturbation_amplitude": 1e-5, "perturbation_kind": "random"}
# (command, configuration patch, the key its refusal names); solver.flow_step,
# flow_tol and newton_tol are no longer keys, and are refused as unknown ones
_MALFORMED = [
    # each of these exited 1 with a traceback
    ("groundstate", {"mass": "abc"}, "mass"),
    ("groundstate", {"nonlinearity": {"p": "x"}}, "nonlinearity.p"),
    ("groundstate", {"nonlinearity": {"p": None}}, "nonlinearity.p"),
    ("groundstate", {"potential": {"kind": "cosine", "amplitude": "x"}}, "potential.amplitude"),
    ("groundstate", {"potential": {"kind": "cosine", "amplitude": float("nan")}},
     "potential.amplitude"),
    ("groundstate", {"potential": {"kind": "tabulated"}}, "potential"),
    ("groundstate", {"potential": {"kind": "tabulated", "table": [1.0]}}, "potential"),
    ("groundstate", {"potential": {"kind": "tabulated", "table": [1.0, "nan"]}},
     "potential.table"),
    ("groundstate", {"solver": {"center": 0.5, "flow_step": "x"}}, "solver.flow_step"),
    ("groundstate", {"solver": {"center": "x"}}, "solver.center"),
    ("semiclassical", {"semiclassical": {"eps_list": ["x"]}}, "semiclassical.eps_list"),
    ("semiclassical", {"semiclassical": {"eps_list": 0.2}}, "semiclassical.eps_list"),
    ("semiclassical", {"semiclassical": {"m_V": "x"}}, "semiclassical.m_V"),
    ("evolve", {"dynamics": {"record_stride": 0}}, "dynamics.record_stride"),
    ("evolve", {"dynamics": {**_RANDOM, "seed": -1}}, "dynamics.seed"),
    ("glue", {"mass": 9.0, "bumps": {"n": 2, "separations": []}}, "bumps.separations"),
    ("semiclassical", {"grid": {"L": 20, "M": 1280},
                       "potential": {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
                       "semiclassical": {"eps_list": [0.2]},
                       "bumps": {"n": 0, "offsets": [0, 8]}}, "bumps.n"),
    # each of these ran (exit 0), or failed later with exit 3 or 4
    ("evolve", {"dynamics": {"record_stride": -3}}, "dynamics.record_stride"),
    ("groundstate", {"output": 5}, "output"),
    ("groundstate", {"solver": {"center": 0.5, "newton_tol": 0.0}}, "solver.newton_tol"),
    ("groundstate", {"solver": {"center": 0.5, "flow_tol": -1e-6}}, "solver.flow_tol"),
    ("groundstate", {"solver": {"center": 0.5, "flow_step": 0}}, "solver.flow_step"),
    ("sweep", {"mass": 9.0, "bumps": {"n_list": [], "separations": [10]}}, "bumps.n_list"),
    ("glue", {"mass": 9.0, "bumps": {"n": 2, "separations": [6.5]}}, "bumps.separations"),
    ("groundstate", {"mass": float("inf")}, "mass"),
    ("semiclassical", {"semiclassical": {"eps_list": []}}, "semiclassical.eps_list"),
    # these wrote into the working directory, or solved a ground state and then exited 4
    ("groundstate", {"output": ""}, "output"),
    ("glue", {"grid": {"L": 4, "M": 256}, "bumps": {"n": 9, "separations": [1]}}, "bumps.n"),
    ("sweep", {"grid": {"L": 4, "M": 256}, "bumps": {"n_list": [2, 9], "separations": [1]}},
     "bumps.n_list"),
]


class TestExitCodes:
    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_exits_with_its_code_and_label(self, name, tmp_path, capsys, monkeypatch):
        code, label = EXIT_CODES[name]
        error = getattr(errors, name)
        assert (error.exit_code, error.label) == (code, label)

        def fail(config, out):
            raise error("first line\nsecond line")

        monkeypatch.setattr(cli, "cmd_groundstate", fail)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"]) == code
        assert capsys.readouterr().err == f"{label}: first line second line\n"

    def test_every_error_declares_a_code(self):
        public = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.MultibumpError)
                  and not name.startswith("_")}
        assert public - {"MultibumpError"} == set(EXIT_CODES)
        for error in _error_classes():
            assert (error.exit_code, error.label) in EXIT_CODES.values(), error.__name__

    def test_only_main_writes_to_stderr(self):
        def stderr_uses(node):
            return sum(getattr(sub, "attr", getattr(sub, "id", None)) == "stderr"
                       for sub in ast.walk(node))

        total, in_main = 0, 0
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            total += stderr_uses(tree)
            if path.name == "cli.py":
                main_def, = (node for node in tree.body
                             if isinstance(node, ast.FunctionDef) and node.name == "main")
                in_main = stderr_uses(main_def)
        assert total == in_main == 1

    @pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_package_error_maps_to_a_code(self, error, tmp_path, capsys, monkeypatch):
        def fail(config, out):
            raise error("first line\nsecond line")

        monkeypatch.setattr(cli, "cmd_groundstate", fail)
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"])
        assert rc in (2, 3, 4)
        assert capsys.readouterr().err.count("\n") == 1

    def test_no_instability_message(self, tmp_path, capsys, monkeypatch):
        def fail(config, out):
            raise errors.NoInstabilityDetected(
                "quotient minimum -7.296e-07 is not below the resolution floor -2.268e-06"
            )

        monkeypatch.setattr(cli, "cmd_groundstate", fail)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "groundstate"]) == 3
        assert capsys.readouterr().err.startswith("precondition failure: quotient minimum ")

    @pytest.mark.parametrize(
        "bumps",
        [
            {"n": 2, "offsets": [3, 3]},
            {"n": 2, "offsets": [0.5, 4]},
            {"n": 0},
            {"n": 2, "separations": [0]},
            {"n_list": ["two"]},
            {"n": 0, "n_list": [2]},
        ],
    )
    def test_invalid_bumps_exit_2(self, bumps, tmp_path, capsys):
        data = dict(BASE_CONFIG)
        data["bumps"] = bumps
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "glue"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("command, patch, names", _MALFORMED,
                             ids=[f"{command}-{names}-{i}" for i, (command, _, names)
                                  in enumerate(_MALFORMED)])
    def test_malformed_config_exits_2(self, command, patch, names, groundstate_run, tmp_path,
                                      capsys):
        # refused before any solve, in one line that names the key
        cfg = write_config(tmp_path, {**BASE_CONFIG, **patch})
        field = [str(groundstate_run[2] / "groundstate_field.bin")] if command == "evolve" else []
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), command, *field]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert names in err

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{",                        # not UTF-8
        b'{"mass": ' + b"1" * 5000 + b"}",  # past the integer conversion limit
        b"[" * 100000 + b"]" * 100000,      # past the recursion limit
    ], ids=["not_utf8", "long_integer", "deep_nesting"])
    def test_unreadable_config_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(text)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "groundstate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read configuration ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("under_file", [False, True], ids=["is_a_file", "under_a_file"])
    def test_unusable_output_directory_exits_2(self, under_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under_file else blocker
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["--config", cfg, "--out", str(out), "groundstate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("command, bumps", [
        ("glue", {"n": 1, "separations": [8]}),
        ("glue", {"offsets": [0]}),
        ("sweep", {"n": 1, "separations": [8]}),
        ("sweep", {"n_list": [2, 1], "separations": [8]}),
        ("sweep", {"offsets": [0]}),
    ])
    def test_single_bump_glue_exits_2(self, command, bumps, tmp_path, capsys):
        # one bump has no separation (+inf) to name its artifacts by
        cfg = write_config(tmp_path, dict(BASE_CONFIG, bumps=bumps))
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: glue and sweep need")


class TestParserErrors:
    """Usage errors take the one failure path: exit 2, one stderr line."""

    @pytest.mark.parametrize("argv", [
        ["groundstate"],
        ["--out", "{out}", "groundstate"],
        ["--config", "{cfg}", "--out", "{out}", "bogus"],
        ["--config", "{cfg}", "--out", "{out}"],
        ["--config", "{cfg}", "--out", "{out}", "spectrum"],
        ["--config", "{cfg}", "groundstate", "--out", "{out}"],
        ["groundstate", "--config", "{cfg}", "--out", "{out}"],
        ["--config", "{cfg}", "--out", "{out}", "groundstate", "extra"],
        ["--config", "{cfg}", "--out", "{out}", "groundstate", "--snapshot-stride", "5"],
        ["--config", "{cfg}", "--out", "{out}", "--snapshot-stride", "5", "groundstate"],
        ["--config"],
    ], ids=["no_config", "out_only", "unknown_command", "no_command", "no_field_file",
            "out_after_command", "config_after_command", "extra_argument",
            "snapshot_stride_after_command", "snapshot_stride_before_command",
            "config_without_value"])
    def test_exits_2_with_one_line(self, argv, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "cmd_groundstate", lambda config, out: ran.append(out))
        cfg = write_config(tmp_path, BASE_CONFIG)
        argv = [arg.format(cfg=cfg, out=tmp_path / "o") for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not ran and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--snapshot-stride", "--conf"])
    def test_unknown_flag_before_the_command_is_named(self, flag, tmp_path, capsys):
        # argparse would take the value 5 for the command and name it
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), flag, "5",
                     "groundstate"]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: unrecognized flag before the command: {flag}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--config", "c.json", "evolve", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: multibump")


_LABELS = dict([_CONFIG, _PRECONDITION, _SOLVER])
_RUN_ARGV = ["--config", "{cfg}", "--out", "{out}", "{command}"]
_BAD_ARGV = [
    [],
    ["{command}"],
    ["--config", "{cfg}", "{command}", "--out", "{out}"],
    ["--config", "{cfg}", "--out", "{out}", "{command}", "--snapshot-stride", "3"],
    ["--config", "{cfg}.missing", "--out", "{out}", "{command}"],
    ["--config", "{cfg}", "--out", "{out}", "bogus"],
]


@hst.composite
def _small_runs(draw, command):
    """(argv, configuration, field kind) of a small run of command: a valid
    configuration on M <= 512, or a malformed argv."""
    L = draw(hst.sampled_from([16, 8, 4]))
    glues = command in ("glue", "sweep")
    n, mass = draw(hst.integers(2, 3)), draw(hst.sampled_from([4.5, 2.0, 0.5, 9.0]))
    separations = hst.lists(hst.integers(8, 12) | hst.integers(1, 2 * L), min_size=1,
                            max_size=2, unique=True)
    data = {
        "grid": {"L": L, "M": draw(hst.sampled_from([256, 512, 128]))},
        "potential": draw(hst.sampled_from([
            {"kind": "constant", "constant": 1.0}, {"kind": "cosine", "amplitude": 0.5},
            {"kind": "cosine", "amplitude": -0.3, "shift": 0.3},
            {"kind": "constant", "constant": 0.5}])),
        "nonlinearity": {"p": draw(hst.sampled_from([4.0, 8.0, 3.0, 6.0, 5.0]))},
        "mass": n * mass if glues else mass,  # glue and sweep: mass per bump
        "solver": {"center": draw(hst.sampled_from([0.0, 0.5]))},
        "dynamics": {"dt": 1e-3, "t_end": draw(hst.sampled_from([0.004, 0.0045])),
                     "perturbation_amplitude": draw(hst.sampled_from([0.0, 1e-4])),
                     "record_stride": draw(hst.integers(1, 3)),
                     "snapshot_stride": draw(hst.integers(0, 3))},
        "semiclassical": {"eps_list": draw(hst.sampled_from([[0.5], [0.5, 0.25]]))},
    }
    if draw(hst.booleans()):
        data["dynamics"]["perturbation_kind"] = draw(hst.sampled_from(["eigenvector", "random"]))
    if glues or draw(hst.booleans()):
        data["bumps"] = {"n": n, "separations": draw(separations)}
        if command == "sweep" and draw(hst.booleans()):
            data["bumps"]["n_list"] = [2, 3]
    run = _RUN_ARGV + (["{field}"] if command in ("spectrum", "evolve") else [])
    argv = draw(hst.one_of(hst.just(run), hst.sampled_from(_BAD_ARGV)))
    field = draw(hst.sampled_from(["profile", "gaussian", "missing"]))
    return [arg.replace("{command}", command) for arg in argv], data, field


class TestCommandContract:
    # derandomized: tier-1 runs the same examples every time; raise
    # max_examples to search further
    @pytest.mark.parametrize("command", ["groundstate", "glue", "sweep", "semiclassical",
                                         "spectrum", "evolve"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draws=hst.data())
    def test_exits_0_2_3_or_4_and_fails_in_one_line(self, command, tmp_path_factory, draws):
        argv, data, field = draws.draw(_small_runs(command))
        tmp = tmp_path_factory.mktemp("run")
        grid = GridSpec(data["grid"]["L"], data["grid"]["M"])
        p = data["nonlinearity"]["p"]
        if field == "profile":  # in a constant potential, a critical point at any vbar
            vbar = (20 / grid.L) ** 2  # decays to e^-20 at the box's edge
            write_field_binary(limit_profile(grid, p, vbar), tmp / "field.bin")
        elif field == "gaussian":
            write_field_binary(Field(grid, np.exp(-grid.x**2)), tmp / "field.bin")
        cfg = write_config(tmp, data)
        argv = [arg.format(cfg=cfg, out=tmp / "o", field=tmp / "field.bin") for arg in argv]
        err = io.StringIO()
        # a warning would reach stderr outside pytest: it counts as a line
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        if rc == 0:
            assert lines == []
        else:
            assert rc in _LABELS
            assert len(lines) == 1 and lines[0].startswith(_LABELS[rc] + ": "), lines


def _truncated(path, source):
    path.write_bytes(source.read_bytes()[:500])


def _misaligned(path, source):
    # L = 7 with M = 64: unit translations would not be grid shifts
    path.write_bytes(b"MBF1" + np.array([7, 64], dtype="<i8").tobytes()
                     + np.ones(64).astype("<f8").tobytes())


def _garbage(path, source):
    path.write_bytes(b"nonsense")


def _csv_misaligned(path, source):
    # a CSV field on L = 7 with M = 64
    grid = GridSpec(7, 64)
    write_field_csv(Field(grid, np.cos(grid.x)), path)


def _csv_off_grid(path, source):
    # the field of `source` with its x column moved by half a spacing
    field = read_field_binary(source)
    x = field.grid.x + 0.5 * field.grid.h
    path.write_text("x,value\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, field.values)))


class TestBadFieldFiles:
    @pytest.mark.parametrize("command", ["spectrum", "evolve"])
    @pytest.mark.parametrize(
        "make",
        [_truncated, _misaligned, _garbage, None, _csv_misaligned, _csv_off_grid],
        ids=["truncated", "misaligned", "garbage", "missing", "csv_misaligned", "csv_off_grid"],
    )
    def test_exit_3_without_traceback(self, groundstate_run, tmp_path, capsys, command, make):
        _, cfg, out = groundstate_run
        csv = make in (_csv_misaligned, _csv_off_grid)
        field = tmp_path / ("field.csv" if csv else "field.bin")
        if make is not None:
            make(field, out / "groundstate_field.bin")
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), command, str(field)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition failure: ") and err.count("\n") == 1
