"""One workload in a fresh process: set up, then measure, then write a result file.

Started by ``run.py``; not meant to be run by hand. With ``--phase setup`` it
stops after set-up, which is how ``run.py`` samples set-up time more than
once per run. Set-up time is measured from the parent's spawn timestamp
(``time.monotonic`` is system-wide), so it includes interpreter start and
imports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--phase", choices=("run", "setup"), required=True)
    p.add_argument("--work", required=True, help="private scratch directory")
    p.add_argument("--result", required=True, help="where to write the JSON result")
    p.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(workload, tracer):
    """One timed pass over the workload's operations, then its checks."""
    from workloads import Failure

    scope = tracer.operation if tracer else (lambda _op: contextlib.nullcontext())
    if tracer:
        tracer.reset()
        tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raws = workload.run(scope)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer:
            tracer.uninstall()
    ops = [
        {"error": raw.error} if isinstance(raw, Failure) else {"problems": workload.check(raw)}
        for raw in raws
    ]
    return {"traced": bool(tracer), "wall_s": wall, "cpu_s": cpu, "ops": ops}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    import microlaser

    if Path(microlaser.__file__).resolve().parent != root / "src" / "microlaser":
        print(f"bench: imported microlaser from {microlaser.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](root, work, args.seed, args.tiny)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.phase == "run":
        tracer = Tracer() if args.trace else None
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            passes.append(run_pass(workload, tracer if traced else None))
            if len(passes) == 1:
                first = passes[0]["ops"][0]
                first["problems"] = first.get("problems", []) + workload.run_problems()
            if traced:
                passes[-1]["layers"] = tracer.layer_metrics()
                trace_dump = tracer.dump()
            elapsed = time.perf_counter() - start
            if len(passes) >= 2 and elapsed + passes[-1]["wall_s"] > args.seconds:
                break
        result["passes"] = passes
        result["environment"] = environment()
        if tracer:
            result["trace"] = trace_dump
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
