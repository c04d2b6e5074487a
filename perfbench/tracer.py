"""Per-layer tracing for the traced benchmark pass.

Wraps, from outside the program, every public function of each
``multibump`` module, a few private entry points whose call counts are work
counts (``gluing._newton_step``), and the numpy/scipy FFT, dense and Krylov
entry points those modules call.  Nothing under ``src/`` is modified: the
wrappers replace module attributes, which is how every call site in the
package looks the functions up.  They are installed only by the traced pass.

Each wrapped call is a span with a name (``gluing.glue``), a group (the
layer: ``gluing``, ``dense``, ``fft`` ...) and optional tags (``record``).
A span's inclusive time is counted once per outermost call of that name; a
group's self time is its spans' durations minus the durations of their
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# CLI commands the workloads run (sweep is cmd_glue in a loop, so glue covers it).
CLI_COMMANDS = ("groundstate", "glue", "spectrum", "evolve", "semiclassical")
_FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
_DENSE_FUNCS = ("eigvalsh", "eigh", "solve", "cholesky")
_MODEL_GROUP_FUNCS = ("energy", "l2_residual", "h1_gradient", "hessian_form")
# One _newton_step per Newton iteration; extended_gradient_norm per trial.
_EXTRA_ENTRY_POINTS = {"multibump.gluing": ("_newton_step", "extended_gradient_norm")}


class Tracer:
    """In-memory span and counter store; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.calls = defaultdict(int)      # span name -> calls
        self.seconds = defaultdict(float)  # span name -> inclusive s over outermost calls
        self.group_s = defaultdict(float)  # group -> inclusive s over outermost calls
        self.self_s = defaultdict(float)   # group -> self s
        self.tag_s = defaultdict(float)    # tag -> inclusive s over outermost calls
        self.counts = defaultdict(int)     # named work counters
        self.depth = defaultdict(int)      # name, group or tag -> active depth
        self._stack = []            # child-time accumulators of active spans
        self._patches = []          # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name, group, tags=(), before=None, after=None):
        """Return fn wrapped in a span; before(args, kwargs) and
        after(result, args, kwargs) update counters outside the timed call."""
        depth, calls, stack = self.depth, self.calls, self._stack
        seconds, group_s, self_s, tag_s = self.seconds, self.group_s, self.self_s, self.tag_s
        keys = (name, group) + tuple(tags)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            for key in keys:
                depth[key] += 1
            child = [0.0]
            stack.append(child)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[group] += dt - child[0]
                for key in keys:
                    depth[key] -= 1
                if not depth[name]:
                    seconds[name] += dt
                if not depth[group]:
                    group_s[group] += dt
                for tag in tags:
                    if not depth[tag]:
                        tag_s[tag] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        return span

    def patch(self, owner, attr, name, group, **hooks):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, group, **hooks))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- installation ------------------------------------------------------

    def install(self):
        import numpy.fft
        import numpy.linalg

        from multibump import cli, dynamics, gluing, grid, model, semiclassical, spectra, stationary

        depth, counts = self.depth, self.counts

        def fft_before(args, kwargs):
            n = kwargs.get("n")
            counts["fft.points"] += len(args[0]) if n is None else n
            if depth["grid.resolvent_solve"]:
                counts["grid.resolvent_solve.ffts"] += 1
            if depth["dynamics.propagate"] and not depth["record"]:
                counts["dynamics.step_ffts"] += 1

        def dense_before(args, kwargs):
            counts["dense.m3_computed"] += len(args[0]) ** 3

        # Newton work: one _newton_step per iteration, line-search trials as
        # extended-gradient evaluations, and the iteration counts returned.
        def glue_after(result, args, kwargs):
            counts["gluing.newton_iters_returned"] += result.iterations

        def correct_after(result, args, kwargs):
            if not depth["gluing.glue"]:
                counts["gluing.newton_iters_returned"] += result[1]

        def egn_before(args, kwargs):
            if depth["gluing.newton_correct"]:
                counts["gluing.egn_in_newton"] += 1

        def resolvent_before(args, kwargs):
            if depth["stationary.normalized_flow"]:
                counts["stationary.normalized_flow.resolvent_calls"] += 1

        propagate_sig = inspect.signature(dynamics.propagate)

        def propagate_before(args, kwargs):
            bound = propagate_sig.bind(*args, **kwargs).arguments
            counts["dynamics.steps"] += int(round(bound["t_end"] / bound["dt"]))

        def energy_before(args, kwargs):
            if depth["dynamics.propagate"]:
                counts["dynamics.records"] += 1

        # Record work inside the split-step loop (energy, orbit distance and
        # the ComplexField validation of every record) carries the tag.
        hooks = {
            "gluing.glue": {"after": glue_after},
            "gluing.newton_correct": {"after": correct_after},
            "gluing.extended_gradient_norm": {"before": egn_before},
            "grid.resolvent_solve": {"before": resolvent_before},
            "dynamics.propagate": {"before": propagate_before},
            "dynamics.complex_energy": {"before": energy_before, "tags": ("record",)},
            "dynamics.orbit_distance": {"tags": ("record",)},
        }

        for fn in _FFT_FUNCS:
            self.patch(numpy.fft, fn, f"fft.{fn}", "fft", before=fft_before)
        for fn in _DENSE_FUNCS:
            self.patch(numpy.linalg, fn, f"dense.{fn}", "dense", before=dense_before)
        for module in (grid, model, stationary, gluing, spectra, semiclassical, dynamics):
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in _public_functions(module):
                name = f"{layer}.{attr}"
                group = "model_other" if layer == "model" and attr not in _MODEL_GROUP_FUNCS else layer
                self.patch(module, attr, name, group, **hooks.get(name, {}))
        for command in CLI_COMMANDS:
            self.patch(cli, f"cmd_{command}", f"cli.{command}", "cli")
        self.patch(cli, "main", "cli.main", "cli")
        self.patch(dynamics.ComplexField, "__post_init__", "dynamics.ComplexField.validate",
                   "dynamics", tags=("record",))
        # Krylov entry points, bound by name into the modules that call them.
        self._patch_minres(gluing, "gluing.minres")
        self._patch_minres(semiclassical, "semiclassical.minres")
        self.patch(grid, "eigsh", "grid.eigsh", "krylov")

    def _patch_minres(self, module, name):
        counts, depth, original = self.counts, self.depth, module.minres

        @functools.wraps(original)
        def counted(A, b, *args, callback=None, **kwargs):
            def tick(xk):
                counts[name + ".iters"] += 1
                if callback is not None:
                    callback(xk)

            if depth["gluing._newton_step"]:
                counts["gluing.minres_in_newton"] += 1
            return original(A, b, *args, callback=tick, **kwargs)

        self._patches.append((module, "minres", original))
        module.minres = self.wrap(counted, name, "krylov")

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics this pass measured (the run adds the rest)."""
        c, s, n = self.calls, self.seconds, self.counts
        newton = c["gluing._newton_step"]
        steps = n["dynamics.steps"]
        bottom_calls = c["grid.operator_bottom_eigenvalue"]
        propagate_s = s["dynamics.propagate"]
        record_s = self.tag_s["record"]
        m = {}
        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = s[f"cli.{command}"]
        m["cli.self_s"] = self.self_s["cli"]
        m.update({
            "grid.resolvent_solve.calls": c["grid.resolvent_solve"],
            "grid.resolvent_solve.s": s["grid.resolvent_solve"],
            "grid.resolvent_solve.ffts": n["grid.resolvent_solve.ffts"],
            "grid.bottom.calls": bottom_calls,
            "grid.bottom.eigsh_calls": c["grid.eigsh"],
            "grid.bottom.hit_ratio": _ratio(bottom_calls - c["grid.eigsh"], bottom_calls),
            "stationary.normalized_flow.s": s["stationary.normalized_flow"],
            "stationary.normalized_flow.resolvent_calls":
                n["stationary.normalized_flow.resolvent_calls"],
            "gluing.ground_state.s": s["gluing.ground_state"],
            "gluing.glue.s": s["gluing.glue"],
            "gluing.bordered_sigma_min.s": s["gluing.bordered_sigma_min"],
            "gluing.shadowing_certificate.s": s["gluing.shadowing_certificate"],
            "gluing.newton_iters": c["gluing._newton_step"],
            "gluing.linesearch_trials_per_step": _ratio(
                n["gluing.egn_in_newton"] - c["gluing.newton_correct"], newton),
            "gluing.minres.calls": c["gluing.minres"],
            "gluing.minres.iters": n["gluing.minres.iters"],
            "gluing.minres_per_newton_step": _ratio(n["gluing.minres_in_newton"], newton),
            "spectra.classify.s": s["spectra.classify"],
            "spectra.instability_eigenvalue.s": s["spectra.instability_eigenvalue"],
            "spectra.self_s": self.self_s["spectra"],
            "dense.calls": sum(c[f"dense.{fn}"] for fn in _DENSE_FUNCS),
            "dense.s": self.group_s["dense"],
            "dense.m3_computed": n["dense.m3_computed"],
            "semiclassical.continue_family.s": s["semiclassical.continue_family"],
            "semiclassical.minres.iters": n["semiclassical.minres.iters"],
            "semiclassical.morse_check.s": s["semiclassical.morse_check"],
            "semiclassical.z_eps_check.s": s["semiclassical.z_eps_check"],
            "semiclassical.criterion_value.s": s["semiclassical.criterion_value"],
            "dynamics.propagate.s": propagate_s,
            "dynamics.steps": steps,
            "dynamics.us_per_step": _ratio(1e6 * (propagate_s - record_s), steps),
            "dynamics.ffts_per_step": _ratio(n["dynamics.step_ffts"], steps),
            "dynamics.records": n["dynamics.records"],
            "dynamics.record.s": record_s,
            "model.s": self.group_s["model"],
            "fft.calls": sum(c[f"fft.{fn}"] for fn in _FFT_FUNCS),
            "fft.points": n["fft.points"],
            "fft.s": self.group_s["fft"],
        })
        return m

    def raw(self) -> dict:
        """Every span and counter, for the notes and the self-tests."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "group_s": dict(self.group_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _public_functions(module):
    """Functions a module exports, plus the gluing entry points whose call
    counts are work counts."""
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr
    yield from _EXTRA_ENTRY_POINTS.get(module.__name__, ())


def _ratio(num, den) -> float:
    """num / den, or 0.0 where the layer was not reached (den == 0)."""
    return float(num) / den if den else 0.0

