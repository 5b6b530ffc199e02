"""Benchmark of the microlaser toolkit: theory, simulation and correlation.

Run from the root of a checkout:

    python3 bench/run.py --workload theory-published --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 1

Workloads (see ``workloads.py`` for why each was chosen): theory-published,
sweep-scaled, pipeline-scaled, correlate-file, or ``all`` for each in turn.

Each workload runs in a fresh child process (``child.py``) that imports the
package from ``src/`` of this checkout, sets up, then repeats one pass over
the workload's operations while the next pass still fits in ``--seconds``
(at least two passes, so a traced run has one of each kind). Inputs are made from ``--seed`` only. BLAS and OpenMP
threads of the children are capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import, config load, velocity quadrature, input generation and
  warm-up, the median over three fresh processes;
* ``wall_s``: median wall time of one pass (failed operations included);
* ``peak_rss_mb``: peak resident memory of the measuring child process;
* ``ok_frac``: share of operations that neither raised, exited non-zero nor
  failed their correctness check (``failed_frac`` = 1 - ``ok_frac`` is in
  the record line).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.PER_LAYER_METRICS`` (medians over traced
passes), the CPU time of an untraced pass, and the tracing overhead. The
spans of the last traced pass are written to ``.bench_out/``.

Output: one ``{"record": ...}`` line per workload with the environment,
sample counts and failures, then the result line
``{"correct", "attempted", "failed", "metrics"}``. Exit status is non-zero
if a workload could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORKLOAD_NAMES = ("theory-published", "sweep-scaled", "pipeline-scaled", "correlate-file")
END_TO_END_METRICS = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "1"))
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def spawn(argv, env, deadline):
    """Run one child to completion; return its resource usage."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *argv], env=env, stdout=subprocess.DEVNULL
    )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise BenchError(f"child exceeded the {TIME_LIMIT_S:g} s limit")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv[:2])} exited with {proc.returncode}")
    return usage


def measure(name: str, args, env) -> dict:
    """Run one workload: the measuring child, then extra set-up samples."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{name}-seed{args.seed}-{os.getpid()}"

    def child(phase, index):
        result = work / f"{phase}{index}.json"
        argv = [
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--phase", phase, "--work", str(work / f"{phase}{index}"),
            "--result", str(result), "--spawned-at", repr(time.monotonic()),
        ] + (["--tiny"] if args.tiny else [])
        usage = spawn(argv, env, deadline)
        shutil.rmtree(work / f"{phase}{index}", ignore_errors=True)
        return json.loads(result.read_text()), usage

    work.mkdir(parents=True, exist_ok=True)
    try:
        res, usage = child("run", 0)
        setup = [res["setup_s"]]
        if not args.trace:
            setup += [child("setup", i)[0]["setup_s"] for i in range(1, SETUP_SAMPLES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    res["setup_samples_s"] = setup
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return res


def summarize(name: str, args, res: dict, nproc: int, env: dict):
    """(record, result) lines for one workload."""
    passes = res["passes"]
    ops = [op for p in passes for op in p["ops"]]
    errors = Counter(op["error"] for op in ops if "error" in op)
    problems = [msg for op in ops for msg in op.get("problems", [])]
    failed = sum(1 for op in ops if "error" in op or op.get("problems"))
    attempted = len(ops)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)

    if args.trace:
        from tracer import PER_LAYER_METRICS

        values = {}
        for metric, unit in PER_LAYER_METRICS:
            if metric in traced[0]["layers"]:
                value = statistics.median(p["layers"][metric] for p in traced)
                values[metric] = round(value) if unit in ("count", "B") else value
        values["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        values["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / wall - 1.0
        units = dict(PER_LAYER_METRICS)
        trace_path = ROOT / ".bench_out" / f"trace-{name}-seed{args.seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps(res["trace"]))
    else:
        values = {
            "setup_s": statistics.median(res["setup_samples_s"]),
            "wall_s": wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END_METRICS)
        trace_path = None

    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": nproc,
        "threads": {var: env[var] for var in THREAD_VARS},
        **res["environment"],
        "samples": {"wall_s": len(plain), "traced_passes": len(traced),
                    "setup_s": len(res["setup_samples_s"])},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": res["setup_samples_s"],
        "failed_frac": failed / attempted,
        "errors": dict(errors),
        "problems": sorted(set(problems))[:20],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    return record, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description="Benchmark the microlaser toolkit.",
        epilog="See the module docstring of bench/run.py for the metrics.",
    )
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for testing the harness; figures are not comparable")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "microlaser" / "__init__.py").is_file():
        print(f"bench: no microlaser sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            res = measure(name, args, env)
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        record, result = summarize(name, args, res, nproc, env)
        print(json.dumps({"record": record}), flush=True)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
