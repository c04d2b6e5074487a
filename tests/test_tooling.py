"""The benchmark's tracer still finds every name it patches in the program."""

import importlib
import sys
from pathlib import Path

import numpy.fft
import numpy.linalg

from multibump import cli, dynamics, gluing, grid, model, semiclassical, spectra, stationary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, dynamics, gluing, grid, model, semiclassical, spectra, stationary,
          numpy.fft, numpy.linalg, dynamics.ComplexField)
# Krylov call sites and work-count entry points the tracer looks up by name
KRYLOV_AND_ENTRY_POINTS = ((gluing, "minres"), (semiclassical, "minres"), (grid, "eigsh"),
                           (gluing, "_newton_step"), (gluing, "extended_gradient_norm"))


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
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
