"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR --result FILE
                                [--trace] [--setup-only]

Set-up (imports plus input generation) is timed from the first line of this
file.  The pass then runs the workload's operations in order, timing wall
and CPU time of this process, and checks every output afterwards.  With
``--trace`` the tracer's wrappers are installed for the operations only.
The result is written as JSON to FILE.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def run_pass(args) -> dict:
    work = Path(args.work)
    ops = workloads.build(args.workload, work, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    outcomes = []
    for op in ops:
        try:
            outcomes.append((op, op.run(), None))
        except Exception as exc:  # an op that raises counts as failed, the pass goes on
            outcomes.append((op, None, f"{type(exc).__name__}: {exc}"))
    wall_s, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    records = []
    for op, value, error in outcomes:
        if error is None:
            try:
                error = op.check(value)
            except Exception as exc:  # a missing or malformed artifact fails the op
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        known = (
            error is not None
            and op.known_defect is not None
            and isinstance(value, tuple)
            and value[0] == op.known_defect[0]
            and any(line.startswith(op.known_defect[1]) for line in value[1].splitlines())
        )
        records.append({"op": op.name, "ok": error is None, "reason": error, "known_defect": known})

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.bytes_written"] = _bytes_under(work / "out")
        result["layers"] = layers
        result["raw"] = tracer.raw()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
