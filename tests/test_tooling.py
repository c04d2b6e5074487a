"""The benchmark's tracer still finds every name it patches in the program."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import numpy.fft
import numpy.linalg

from multibump import cli, dynamics, gluing, grid, model, semiclassical, spectra, stationary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, dynamics, gluing, grid, model, semiclassical, spectra, stationary,
          numpy.fft, numpy.linalg, dynamics.ComplexField)
# Krylov call sites and work-count entry points the tracer looks up by name
KRYLOV_AND_ENTRY_POINTS = ((gluing, "minres"), (semiclassical, "minres"), (grid, "eigsh"),
                           (gluing, "_newton_step"), (gluing, "extended_gradient_norm"))


def _tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer").Tracer()


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    tracer = _tracer(monkeypatch)
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer.install()  # raises AttributeError if a name it traces is gone
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert all(getattr(owner, attr) is not before[owner][attr] for owner, attr in patched)
        assert all(site in patched for site in KRYLOV_AND_ENTRY_POINTS)
    finally:
        tracer.uninstall()
    for owner, saved in before.items():
        now = vars(owner)
        changed = sorted(k for k in saved.keys() | now.keys() if now.get(k) is not saved.get(k))
        assert not changed, f"{owner.__name__}: {changed}"


def test_tracer_counts_split_step_ffts_and_records(monkeypatch, V1):
    tracer = _tracer(monkeypatch)
    g = grid.GridSpec(4, 64)
    u = grid.Field(g, np.exp(-g.x**2))
    psi0 = dynamics.ComplexField.from_real(u)
    tracer.install()
    try:  # 20 steps, a record every 5
        dynamics.propagate(psi0, V1, model.Nonlinearity(4.0), dt=1e-3, t_end=0.02,
                           reference=u, record_stride=5)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    # two FFTs per step, one per record to read the state, one to enter Fourier space
    assert counts["dynamics.step_ffts"] / counts["dynamics.steps"] <= 2 + 1 / 5 + 1 / 20
    assert counts["dynamics.records"] == 5  # t = 0 and four records
    assert tracer.calls["dynamics.orbit_distance"] == 5
    assert tracer.calls["dynamics.ComplexField.validate"] == 4  # one per record
    assert tracer.tag_s["record"] > 0.0


def test_traced_glue_counts_one_newton_step_per_iteration(monkeypatch, ubar, vcos, f4):
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        result = gluing.glue(ubar, gluing.BumpConfig(2, (-6, 6)), 9.0, vcos, f4)
    finally:
        tracer.uninstall()
    assert result.iterations >= 1
    assert tracer.calls["gluing._newton_step"] == result.iterations
    assert tracer.counts["gluing.newton_iters_returned"] == result.iterations


def test_tracer_counts_one_minres_iteration_per_split_apply(monkeypatch):
    from test_grid import _counting_split_applies

    from multibump.gluing import _solve_bordered

    g = grid.GridSpec(4, 256)
    rng = np.random.default_rng(8)
    op = grid.FourierOperator(g, rng.uniform(-1.5, 2.0, g.M), border=np.exp(-g.x**2))
    rhs = rng.standard_normal(op.size)
    tracer = _tracer(monkeypatch)
    applies = _counting_split_applies(monkeypatch)
    tracer.install()
    try:
        _solve_bordered(op, rhs)
    finally:
        tracer.uninstall()
    assert tracer.calls["gluing.minres"] >= 1
    assert tracer.counts["gluing.minres.iters"] == applies[0] > 10


def test_traced_instability_counts_its_minres_solves(monkeypatch, phi_super, V1, f8):
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        spectra.instability_eigenvalue(phi_super, V1, f8)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["gluing.minres.calls"] > 0


def _call_sites(name):
    """Sorted (module, call form) of each call site of name in the package,
    one entry a site: "Name" for a bare name, "Attribute" for a call through
    a module or object."""
    calls = []
    for path in Path(grid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                calls.append((path.stem, type(func).__name__))
    return sorted(calls)


def test_minres_is_called_only_where_the_tracer_counts_it():
    # the tracer replaces the minres global of gluing and semiclassical; a
    # call elsewhere, or through a module attribute, would run untraced
    calls = _call_sites("minres")
    assert ("gluing", "Name") in calls
    assert set(calls) <= {("gluing", "Name"), ("semiclassical", "Name")}


def test_every_transform_is_an_np_fft_attribute_call():
    # the tracer and the FFT-counting tests patch numpy.fft attributes; a
    # transform reached through scipy.fft, an imported name or another alias
    # would run uncounted
    names = set(numpy.fft.__all__)
    stray = []
    for path in Path(grid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "fft" in ast.unparse(node):
                stray.append((path.stem, ast.unparse(node)))
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in names and ast.unparse(func) != f"np.fft.{name}":
                stray.append((path.stem, ast.unparse(func)))
    assert not stray
    assert ("grid", "Attribute") in _call_sites("rfft")  # the check sees the calls


def test_eigensolvers_are_called_only_where_they_belong():
    # the tracer counts the eigsh global of grid (the spectrum bottom); every
    # other sparse eigensolve is a grid.lobpcg run from spectra, an attribute
    # call because spectra imports grid as gr.  The one dense eigensolve is the
    # spectrum table's, np.linalg.eigvalsh on its parity blocks or on the
    # full matrix in spectra.dense_spectrum.  The small ones are grid's: the
    # tridiagonal of lanczos, the two Rayleigh-Ritz solves of lobpcg and the
    # Bloch fibres of a periodic weight (_bloch_fibres), each np.linalg.eigh,
    # which the tracer's dense metrics and the eigensolve_sizes spy observe
    # too.  One LOBPCG wrapper, spectra._lowest_ritz, holds the one lobpcg
    # call site
    assert _call_sites("eigsh") == [("grid", "Name")]
    assert _call_sites("lobpcg") == [("spectra", "Attribute")]
    assert _call_sites("eigvalsh") == [("spectra", "Attribute")] * 2
    assert _call_sites("eigh") == [("grid", "Attribute")] * 4


def test_spectrum_bottom_is_asked_only_where_a_potential_enters():
    # -Lap + V > 0 is checked where V enters (positive_gauge, glue) and by
    # the instability construction's multiplier test; grid's metric and
    # resolvent take it as given
    modules = {module for module, _ in _call_sites("operator_bottom_eigenvalue")}
    assert modules == {"model", "gluing", "spectra"}


def test_cli_reads_exactly_the_configuration_table():
    # every (section, key) that cli reads through RunConfig.get is a row of
    # _TABLE, and every row is read: a key the table accepts but no command
    # reads would be taken and ignored
    reads = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        func = getattr(node, "func", None)
        if (isinstance(func, ast.Attribute) and func.attr == "get"
                and isinstance(func.value, ast.Name) and func.value.id in ("config", "self")):
            keys = [ast.literal_eval(arg) for arg in node.args]  # only literal keys
            reads.add((keys[0], keys[1] if len(keys) > 1 else None))
    table = {(section, key) for section, keys in cli._TABLE.items()
             for key in (keys if isinstance(keys, dict) else [None])}
    assert ("dynamics", "snapshot_stride") in reads  # the check sees the reads
    assert reads == table
