"""Self-tests of the benchmark's traced pass.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Makes two traced passes per
workload, each in a fresh process, and checks:

1. ``gluing.newton_iters`` (one per ``_newton_step`` call) equals the Newton
   iteration counts the program returned: ``GlueResult.iterations`` of every
   ``glue`` call plus the counts of ``newton_correct`` calls made outside
   ``glue``;
2. ``dynamics.ffts_per_step == 4`` on ``evolve_soliton``: the Strang step of
   the program at the time the benchmark was defined does two forward and
   two inverse FFTs.  A change that fuses the kinetic half-steps changes
   this number on purpose and updates the check with it;
3. the exact work counts (``*.calls``, ``*.iters``, ``dynamics.steps``,
   ``fft.calls``) repeat exactly across the two passes.

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys

import run

EXACT_SUFFIXES = (".calls", ".iters")
EXACT_NAMES = ("dynamics.steps", "fft.calls", "gluing.newton_iters", "grid.resolvent_solve.ffts")
FFTS_PER_STRANG_STEP = 4
SEED = 0


def _exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}


def check_workload(runner: run.Runner) -> list:
    """(name, ok, detail) rows for one workload."""
    first, second = runner.run(trace=True), runner.run(trace=True)
    rows = []
    layers, counts = first["layers"], first["raw"]["counts"]
    returned = counts.get("gluing.newton_iters_returned", 0)
    rows.append(("newton_iters equals returned iterations",
                 layers["gluing.newton_iters"] == returned,
                 f"traced {layers['gluing.newton_iters']}, returned {returned}"))
    if runner.workload == "evolve_soliton":
        rows.append(("ffts_per_step", layers["dynamics.ffts_per_step"] == FFTS_PER_STRANG_STEP,
                     f"{layers['dynamics.ffts_per_step']} (expected {FFTS_PER_STRANG_STEP})"))
    a, b = _exact_counts(first["layers"]), _exact_counts(second["layers"])
    differing = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    rows.append(("exact counts repeat", not differing,
                 f"{len(a)} counts" if not differing else f"differ: {differing}"))
    return rows


def main() -> int:
    if not (run.ROOT / "src" / "multibump" / "__init__.py").is_file():
        print("selftest: run from the root of a multibump checkout", file=sys.stderr)
        return 2

    scratch = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    failures = 0
    try:
        for workload in run.WORKLOADS:
            runner = run.Runner(workload, SEED, scratch / workload)
            for name, ok, detail in check_workload(runner):
                failures += not ok
                print(f"{'PASS' if ok else 'FAIL'} {workload}: {name} ({detail})")
    except run.BenchmarkError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
