"""The multibump benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass runs in a fresh process
(``perfbench/worker.py``), so the program's module caches start cold as
they do for each CLI invocation; runs keep the default ``--jobs 1`` and
leave thread variables as found.

``--trace 0`` repeats untraced passes for about S seconds and reports the
end-to-end metrics as medians over the passes; ``setup_s`` also takes
set-up-only processes.  ``--trace 1`` runs one untraced pass, one traced
pass, and, where the traced pass reached dense linear algebra, one traced
pass with ``OPENBLAS_NUM_THREADS=1`` in that child's environment only; it
reports the per-layer metrics.  The second-last line of standard output is
a JSON detail record (samples, operations, environment); the last line is
the result.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analysis", "glue_bigbox", "evolve_soliton")
SETUP_ONLY_SAMPLES = 5
RUN_DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (not a failure of the program's outputs)."""


class Runner:
    """Starts worker processes for one run and keeps them inside the deadline."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.started = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, trace: bool = False, setup_only: bool = False, env: dict | None = None) -> dict:
        self.count += 1
        work = self.scratch / f"pass-{self.count:03d}"
        work.mkdir(parents=True)
        result_file = self.scratch / f"result-{self.count:03d}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(work), "--result", str(result_file)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        timeout = RUN_DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchmarkError("run deadline reached before the pass could start")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            # subprocess.run kills the child and waits for it before raising
            raise BenchmarkError(f"pass exceeded the run deadline: {exc}") from exc
        if proc.returncode != 0 or not result_file.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchmarkError(f"worker exited {proc.returncode}:\n{tail}")
        with open(result_file) as fh:
            result = json.load(fh)
        shutil.rmtree(work, ignore_errors=True)
        return result


def _median(values) -> float:
    return float(statistics.median(values))


def _ops_summary(passes) -> tuple:
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    correct = all(op["known_defect"] for op in failed)
    return len(ops), len(failed), correct, failed


def timed_run(runner: Runner, seconds: int) -> tuple:
    # start another pass only while the median pass so far still fits
    passes, durations = [], []
    while True:
        t0 = runner.elapsed()
        passes.append(runner.run())
        durations.append(runner.elapsed() - t0)
        if runner.elapsed() + _median(durations) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    setups += [runner.run(setup_only=True)["setup_s"] for _ in range(SETUP_ONLY_SAMPLES)]
    attempted, failed, correct, failures = _ops_summary(passes)
    metrics = {
        "wall_s": (_median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (_median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (_median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "setup_s": (_median(setups), "s"),
    }
    detail = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "wall_s_samples": [p["wall_s"] for p in passes],
        "failures": _unique_failures(failures),
    }
    return metrics, attempted, failed, correct, detail


def traced_run(runner: Runner) -> tuple:
    plain = runner.run()
    traced = runner.run(trace=True)
    layers = dict(traced["layers"])
    passes = [plain, traced]
    layers["dense.thread_speedup"] = 0.0
    if layers["dense.calls"]:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        single = runner.run(trace=True, env=env)
        passes.append(single)
        layers["dense.thread_speedup"] = single["layers"]["dense.s"] / layers["dense.s"]
    layers["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    attempted, failed, correct, failures = _ops_summary(passes)
    units = _per_layer_units()
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "raw": traced["raw"],
        "failures": _unique_failures(failures),
    }
    return metrics, attempted, failed, correct, detail


def _unique_failures(failures) -> list:
    counted = Counter((op["op"], op["reason"], op["known_defect"]) for op in failures)
    return [{"op": op, "reason": reason, "known_defect": known, "count": n}
            for (op, reason, known), n in counted.items()]


def _per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment() -> dict:
    """Versions, BLAS, processor and thread variables as read (never set)."""
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_entry(deps.get("blas", {})),
        "lapack": _blas_entry(deps.get("lapack", {})),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
    env.update(_cpu_info())
    return env


def _blas_entry(entry: dict) -> dict:
    return {k: entry.get(k) for k in ("name", "version", "openblas configuration") if k in entry}


def _cpu_info() -> dict:
    info = {"cpu_model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multibump benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multibump" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'multibump'}; "
              "run from the root of a multibump checkout", file=sys.stderr)
        return 2

    # a terminated run still stops and reaps its worker (subprocess.run kills
    # the child on any exception), then removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, scratch)
    try:
        if args.trace:
            metrics, attempted, failed, correct, detail = traced_run(runner)
        else:
            metrics, attempted, failed, correct, detail = timed_run(runner, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  run_s=runner.elapsed(), environment=environment())
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
