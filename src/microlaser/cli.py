"""Command-line front end: config files in, CSV and report artifacts out.

Subcommands wire the theory, simulation, and analysis modules together:

    sweep          pump sweep (rate-equation branches + number-basis theory)
    predict-g2     theoretical g2(tau) curve with its spectral C0, tau_c, Q
    simulate       stochastic run producing two binary timestamp streams
    correlate-fit  multi-start multi-stop g2 and its fit; vs theory with --config
    pipeline       theory -> simulate -> correlate-fit on the streams it wrote

Both analysis commands take one route, ``_correlate_fit``: two streams in, the
g2 estimate, its fit and the report lines out, with the Q estimates and the
theory comparison when a config is given; the same files get the same verdict.

This module alone writes artifacts: it owns the CSV and report formats and
the run record (``RunManifest``) written beside each output. ``main`` is the
one front door: it loads the config and velocity quadrature, names the files
the command line writes and its record's path (``_outputs``), builds the
record from the parsed options with ``RunManifest.of``, and times the command,
from its config load to its last artifact, and writes the record. Each
``cmd_*`` takes ``(args, cfg, dist, manifest)`` and does only its own work.
A command that fails after writing an output still gets its record, with the
status, exit code, error and the files it wrote.

Exit codes: 0 success, 2 configuration error, 3 numerical/truncation error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, correlator, quantum, semiclassical, trajectory
from .core import DEFAULT_QUADRATURE_NODES, VelocityDistribution, config_fingerprint, load_config
from .errors import ConfigError, MicrolaserError
from .streams import read_stream, write_mlts1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Most points a sweep's --n-range may hold, counted before np.arange allocates
# them (0:1e10:1 asked it for 75 GiB): 1,250 times the 80 of the largest
# reference sweep. Each point is a steady-state solve and a CSV row.
MAX_SWEEP_POINTS = 100_000
# Path CSV rows are formatted and written this many at a time.
PATH_CSV_BLOCK = 65536
# A stream file at least this large is read on a pool thread. What a thread
# allocates below 32 MB, the most glibc's dynamic mmap threshold reaches, can
# stay resident in its malloc arena; concurrent reads of 2.3 MB pipeline
# streams raised the peak memory of repeated runs by about 6 MB.
_POOL_READ_BYTES = 32 << 20


@dataclass
class RunManifest:
    """Provenance record of one command line.

    It holds the command, the config snapshot, every parsed option (input and
    output paths, seed and settings alike), the files the command wrote and
    the version: everything that determines the outputs. The hash covers all
    of these and deliberately excludes the wall clock, so a rerun of the same
    command line reproduces the same hash and a changed option changes it.
    """

    command: str
    config_snapshot: dict
    options: dict
    outputs: list[str]
    version: str = __version__
    wall_clock_s: float | None = None

    @classmethod
    def of(cls, args, cfg, outputs) -> RunManifest:
        """The record of the parsed ``args`` run on ``cfg`` (None for no
        config) that write the files ``outputs``."""
        options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        snapshot = cfg.to_dict() if cfg is not None else {}
        return cls(args.command, snapshot, options, [str(name) for name in outputs])

    def hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.command.encode())
        for key, value in sorted(self.config_snapshot.items()):
            h.update(f"{key}={value!r};".encode())
        for key, value in sorted(self.options.items()):
            h.update(f"option.{key}={value!r};".encode())
        for name in self.outputs:
            h.update(f"out:{name};".encode())
        h.update(f"version={self.version}".encode())
        return h.hexdigest()

    def entries(self) -> list[tuple[str, object]]:
        """(key, value) pairs that head every artifact of the run."""
        entries = [("manifest_hash", self.hash()), ("command", self.command),
                   ("version", self.version)]
        if "seed" in self.options:
            entries.append(("seed", self.options["seed"]))
        return entries + [(f"config.{k}", v) for k, v in self.config_snapshot.items()]

    def write(self, path, failure=()) -> None:
        """The record, closed by the unhashed ``failure`` lines of a failed run."""
        entries = self.entries() + [(f"option.{k}", v) for k, v in self.options.items()]
        entries += [("output", name) for name in self.outputs]
        _write_report(path, (), entries + [("wall_clock_s", self.wall_clock_s), *failure])


def _render(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)  # also None


def _write_table(path, header, columns, rows) -> None:
    """``# key = value`` lines for ``header``, the ``columns`` line, then
    ``rows``: strings that each end in a newline, one row or a block apiece."""
    with open(path, "w") as fh:
        fh.writelines(f"# {key} = {_render(value)}\n" for key, value in header)
        fh.write(columns + "\n")
        fh.writelines(rows)


def _write_report(path, header, entries) -> None:
    """``# key = value`` lines for ``header``, then ``key = value`` lines."""
    with open(path, "w") as fh:
        fh.writelines(f"# {key} = {_render(value)}\n" for key, value in header)
        fh.writelines(f"{key} = {_render(value)}\n" for key, value in entries)


def _write_estimate(path, header, est: correlator.G2Estimate) -> None:
    header = header + [
        ("bin_width_s", est.bin_width), ("window_s", est.window), ("t_acq_s", est.t_acq),
        ("rate1_hz", est.rate1), ("rate2_hz", est.rate2), ("normalization", est.normalization),
    ]
    rows = (f"{t:.17g},{g:.17g},{s:.17g}\n" for t, g, s in zip(est.tau, est.g2, est.sigma))
    _write_table(path, header, "tau_s,g2,sigma", rows)


def _fit_entries(fit, q) -> list[tuple[str, object]]:
    """Report entries of a fit and, if given, of the Q read off it."""
    entries = [("c0", fit.c0), ("tau_c_s", fit.tau_c), ("chi2_reduced", fit.chi2_reduced),
               ("n_bins_used", fit.n_points)]
    if fit.cov is not None:
        entries += [("cov_c0_c0", fit.cov[0, 0]), ("cov_c0_tau", fit.cov[0, 1]),
                    ("cov_tau_tau", fit.cov[1, 1])]
    if q is not None:
        entries += [("q_from_c0", q.q_from_c0), ("q_from_tau", q.q_from_tau),
                    ("q_discrepancy", q.discrepancy)]
    return entries


def _theory(cfg, dist):
    """(steady state, g2 curve, g2 summary), or None for an empty field."""
    p = quantum.steady_state(cfg, dist)
    if p.mean <= 0.0:
        return None
    curve = quantum.g2_regression(cfg, dist, steady=p)
    return p, curve, quantum.q_and_tau_from_g2(curve, p.mean)


def _basis_entries(cfg, p, curve) -> list[tuple[str, object]]:
    """The photon basis the theory asked for and the one its steady state
    used, larger after a tail check doubled it; the states the g2 solve kept
    and the error bound of its outflux check."""
    return [("n_basis_requested", quantum.effective_n_max(cfg)), ("n_basis_used", p.n_max),
            ("g2_kept_states", curve.kept_states), ("g2_outflux_bound", curve.outflux_bound)]


def _correlate_fit(a, b, bin_width, window, cfg=None, theory=None, symmetric=False,
                   exclude_bins=1):
    """The g2 estimate of streams a and b, its exponential fit, and the report
    entries: the fit, the measurement and, given ``theory`` (``_theory`` of
    ``cfg``), the Q estimates and the comparison with that theory."""
    # the streams' duration is known: refuse a window the normalization would
    # refuse before counting its pairs
    reason = correlator.window_refusal(bin_width, window, duration=a.duration)
    if reason is not None:
        raise correlator.NormalizationError(f"undefined normalization: {reason}")
    if symmetric:
        est = correlator.g2_symmetric(a, b, bin_width, window)
    else:
        hist = correlator.correlate(a, b, bin_width, window)
        est = correlator.normalize(hist)
    fit = correlator.fit_exponential(est, exclude_bins)
    # the per-bin rms of g2 at tau = 0 for uncorrelated streams, on this estimate's baseline
    measured = [("rate1_hz", est.rate1), ("rate2_hz", est.rate2), ("t_acq_s", est.t_acq),
                ("bin_width_s", bin_width), ("window_s", window),
                ("shot_noise_rms", 1.0 / math.sqrt(est.normalization))]
    if theory is None:
        return est, fit, _fit_entries(fit, None) + measured
    p, curve, summary = theory
    z_tau = None
    if fit.tau_c is not None and fit.tau_c_sigma and summary.tau_c is not None:
        z_tau = (fit.tau_c - summary.tau_c) / fit.tau_c_sigma
    z_c0 = (fit.c0 - summary.c0) / fit.c0_sigma if fit.c0_sigma else None
    compared = [
        ("n_mean_theory", p.mean), ("q_theory_moments", p.mandel_q), ("q_theory_fit", summary.q),
        ("tau_c_theory_s", summary.tau_c), ("c0_theory", summary.c0), ("z_tau_c", z_tau),
        ("z_c0", z_c0), ("sign_match_c0", fit.c0 * summary.c0 > 0.0),
    ]
    q = correlator.estimate_q(fit, p.mean, cfg.gamma_c)
    return est, fit, _fit_entries(fit, q) + measured + compared + _basis_entries(cfg, p, curve)


def _parse_n_range(text: str) -> list[float]:
    """'a:b:step' inclusive range of at most ``MAX_SWEEP_POINTS`` values, or a
    single value. The points are counted before any is made."""
    try:
        values = [float(part) for part in text.split(":")]
    except ValueError:
        values = []
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise ConfigError(f"bad n-range {text!r}: expected 'a:b:step' or a single number")
    a, b, step = values
    if not (step > 0.0 and b >= a):
        raise ConfigError(f"bad n-range {text!r}: need a <= b and step > 0")
    # np.arange makes ceil((stop - start) / step) points
    if not (b + 0.5 * step - a) / step <= MAX_SWEEP_POINTS:
        raise ConfigError(f"bad n-range {text!r}: more than {MAX_SWEEP_POINTS} points")
    return np.arange(a, b + 0.5 * step, step).tolist()


def _read_pair(path1, path2):
    """Both streams. A second stream of at least _POOL_READ_BYTES is read on a
    pool thread while this one reads the first. The first stream's error
    wins, as in a serial read."""
    try:
        large = os.stat(path2).st_size >= _POOL_READ_BYTES
    except OSError:
        large = False  # the serial read reports it, after the first stream's
    if not large:
        return read_stream(path1), read_stream(path2)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(read_stream, path2)
        first = read_stream(path1)
        return first, second.result()


def _stat(path):
    """What changes when ``path`` is created or rewritten; None if it is missing."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _fmt(value, precision=".10g") -> str:
    if value is None:
        return "nan"
    return format(value, precision)


def cmd_sweep(args, cfg, dist, manifest):
    n_list = _parse_n_range(args.n_range)
    if args.direction == "down":
        n_list = list(reversed(n_list))
    result = semiclassical.sweep(cfg, dist, n_list, args.direction)
    rows = []
    for pt in result.points:
        n_q, q_q, tau_q = 0.0, None, None
        theory = _theory(cfg.with_n_atoms(pt.n_atoms_mean), dist)
        if theory is not None:
            p, _, summary = theory
            n_q, q_q, tau_q = p.mean, p.mandel_q, summary.tau_c
        tau_sc = pt.selected.tau_c if pt.selected is not None else None
        n0 = pt.selected.n0 if pt.selected is not None else None
        rows.append(
            f"{pt.n_atoms_mean:.10g},{_fmt(n0)},{_fmt(n_q)},{_fmt(q_q)},"
            f"{_fmt(tau_q)},{_fmt(tau_sc)}\n"
        )

    _write_table(
        args.out,
        manifest.entries() + [("direction", result.direction)],
        "N_mean,n0_selected,n_mean_quantum,Q_quantum,tau_c_quantum_s,tau_c_semiclassical_s",
        rows,
    )


def cmd_predict_g2(args, cfg, dist, manifest):
    theory = _theory(cfg, dist)
    if theory is None:
        raise ConfigError("predict-g2 needs a nonempty steady state (n_atoms_mean > 0)")
    p, curve, summary = theory
    header = manifest.entries() + [
        ("n_mean", p.mean), ("mandel_q_moments", p.mandel_q), ("c0", summary.c0),
        ("tau_c_s", summary.tau_c), ("q_from_fit", summary.q), ("plateau", summary.plateau),
        ("weight_ratio", summary.weight_ratio), ("config_hash", config_fingerprint(cfg, dist)),
    ] + _basis_entries(cfg, p, curve)
    rows = (f"{t:.17g},{v:.17g}\n" for t, v in zip(curve.tau, curve.values))
    _write_table(args.out, header, "tau_seconds,g2", rows)


def cmd_simulate(args, cfg, dist, manifest):
    out1, out2, *path_csv = manifest.outputs
    rec = trajectory.simulate(cfg, dist, duration=args.duration_s, seed=args.seed,
                              initial_n=args.cold_start, record_path=args.path_csv)

    write_mlts1(rec.stream1, out1)
    write_mlts1(rec.stream2, out2)
    if args.path_csv:
        blocks = (
            "".join(map("{:.12g},{}\n".format, rec.path_times[i : i + PATH_CSV_BLOCK].tolist(),
                        rec.path_values[i : i + PATH_CSV_BLOCK].tolist()))
            for i in range(0, rec.path_times.size, PATH_CSV_BLOCK)
        )
        _write_table(path_csv[0], manifest.entries(), "time_s,n", blocks)
    print(
        f"simulate: duration {rec.duration:g} s, atoms {rec.atoms_injected}, "
        f"emissions {rec.emissions}, decays {rec.decays}, detections {rec.detections} "
        f"(ch1 {rec.stream1.count}, ch2 {rec.stream2.count})"
    )


def cmd_correlate_fit(args, cfg, dist, manifest):
    a, b = _read_pair(args.stream1, args.stream2)
    theory = _theory(cfg, dist) if cfg is not None else None
    est, _, entries = _correlate_fit(
        a, b, args.bin_ns * 1e-9, args.window_us * 1e-6, cfg, theory, symmetric=args.symmetric,
        exclude_bins=args.exclude_bins,
    )
    _write_report(args.out, manifest.entries(), entries)
    if args.g2_csv:
        _write_estimate(args.g2_csv, manifest.entries(), est)


def cmd_pipeline(args, cfg, dist, manifest):
    window = (quantum.DEFAULT_TAU_SPAN_LIFETIMES / cfg.gamma_c if args.window_us is None
              else args.window_us * 1e-6)
    reason = correlator.window_refusal(args.bin_ns * 1e-9, window, 1, args.duration_s)
    if reason is not None:
        raise ConfigError(reason)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    out1, out2, g2_csv_path, report_path = manifest.outputs

    stage = "theory"
    try:
        theory = _theory(cfg, dist)
        if theory is None:
            raise ConfigError("pipeline needs a nonempty steady state")

        stage = "simulate"
        rec = trajectory.simulate(
            cfg, dist, duration=args.duration_s, seed=args.seed, record_path=False
        )
        write_mlts1(rec.stream1, out1)
        write_mlts1(rec.stream2, out2)

        stage = "correlate-fit"
        # analyse the picosecond times as written, so that correlate-fit on the
        # same files writes the same g2 rows and report lines
        a, b = _read_pair(out1, out2)
        est, fit, entries = _correlate_fit(a, b, args.bin_ns * 1e-9, window, cfg, theory)
    except Exception as exc:
        # keep the exception type (it drives the exit code), add the stage label
        label = f"pipeline stage '{stage}': {exc}"
        if isinstance(exc, OSError):  # one with an errno prints errno, strerror, filename
            raise type(exc)(label) from exc
        exc.args = (label,)
        raise

    entries += [("detections_ch1", rec.stream1.count), ("detections_ch2", rec.stream2.count),
                ("duration_s", args.duration_s)]
    _write_report(report_path, manifest.entries(), entries)
    _write_estimate(g2_csv_path, manifest.entries(), est)
    summary, report = theory[2], dict(entries)
    theory_tau = (f"theory tau_c {summary.tau_c:.4g} s" if summary.tau_c is not None
                  else f"theory tau_c undefined (g2 weight ratio {summary.weight_ratio:.3g})")
    fitted_tau = (f"fitted {fit.tau_c:.4g} s" if fit.tau_c is not None
                  else "fitted curve is flat (no resolvable decay)")
    z_text = "n/a" if report["z_tau_c"] is None else f"{report['z_tau_c']:+.2f}"
    print(
        f"pipeline: {theory_tau} vs {fitted_tau} (z={z_text}), theory Q {summary.q:+.4g} vs "
        f"Q_from_C0 {report['q_from_c0']:+.4g}"
    )


def _outputs(args):
    """The files the command line ``args`` writes, in its record's order, and
    the path of that record."""
    if args.command == "pipeline":
        out_dir = Path(args.out_dir)
        names = ("ch1.mlts1", "ch2.mlts1", "g2.csv", "report.txt")
        return [out_dir / name for name in names], out_dir / "manifest.txt"
    if args.command == "simulate":
        names = ("ch1.mlts1", "ch2.mlts1") + (("path.csv",) if args.path_csv else ())
        return [f"{args.out_prefix}.{name}" for name in names], f"{args.out_prefix}.manifest.txt"
    outputs = [args.out] + ([args.g2_csv] if getattr(args, "g2_csv", None) else [])
    return outputs, f"{args.out}.manifest.txt"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microlaser",
        description="Cavity-QED microlaser photon statistics toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, required=True, config_help="flat key = value configuration file"):
        p.add_argument("--config", required=required, help=config_help)
        p.add_argument(
            "--quadrature-nodes", type=int, default=DEFAULT_QUADRATURE_NODES,
            help=f"velocity quadrature node count (default {DEFAULT_QUADRATURE_NODES})",
        )

    p = sub.add_parser("sweep", help="pump sweep: fixed points and quantum moments per N")
    add_common(p)
    p.add_argument("--n-range", required=True, help="'a:b:step' (inclusive) or single value")
    p.add_argument("--direction", choices=("up", "down"), default="up")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict-g2", help="theoretical g2(tau) with spectral C0, tau_c, Q")
    add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict_g2)

    p = sub.add_parser("simulate", help="stochastic run writing two MLTS1 streams")
    add_common(p)
    p.add_argument("--duration-s", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--path-csv", action="store_true", help="also write the photon-number path")
    p.add_argument(
        "--cold-start", type=int, default=None, metavar="N",
        help="start from photon number N instead of a steady-state sample",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate-fit", help="histogram two streams, normalize, fit g2")
    p.add_argument("stream1")
    p.add_argument("stream2")
    p.add_argument("--bin-ns", type=float, default=20.0)
    p.add_argument("--window-us", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--g2-csv", default=None, help="also write the normalized g2 estimate")
    add_common(p, required=False, config_help="optional config for Q extraction")
    p.add_argument("--symmetric", action="store_true", help="average (a,b) and (b,a) histograms")
    p.add_argument(
        "--exclude-bins", type=int, default=1,
        help="number of leading bins excluded from the fit (default 1)",
    )
    p.set_defaults(func=cmd_correlate_fit)

    p = sub.add_parser("pipeline", help="simulate -> correlate -> fit -> compare to theory")
    add_common(p)
    p.add_argument("--duration-s", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bin-ns", type=float, default=20.0)
    p.add_argument("--window-us", type=float, default=None, help="default 5 / Gamma_c")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors, which matches our config-error code
        return int(exc.code) if exc.code else EXIT_OK
    manifest = None
    try:
        # values that no config makes valid are refused before any input is read
        if args.quadrature_nodes < 1:
            raise ConfigError(f"--quadrature-nodes must be >= 1, got {args.quadrature_nodes}")
        if getattr(args, "exclude_bins", 0) < 0:
            raise ConfigError(f"--exclude-bins must be >= 0, got {args.exclude_bins}")
        for flag in ("bin_ns", "window_us"):
            value = getattr(args, flag, None)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(
                    f"--{flag.replace('_', '-')} must be positive and finite, got {value}"
                )
        if args.command == "correlate-fit":
            reason = correlator.window_refusal(
                args.bin_ns * 1e-9, args.window_us * 1e-6, args.exclude_bins
            )
            if reason is not None:
                raise ConfigError(reason)
        outputs, record_path = _outputs(args)
        before = [_stat(path) for path in outputs]
        # one clock per command line, from its config load to its last artifact
        t0 = time.perf_counter()
        cfg = dist = None
        if args.config is not None:
            cfg = load_config(args.config)
            dist = VelocityDistribution.from_config(cfg, n_nodes=args.quadrature_nodes)
        manifest = RunManifest.of(args, cfg, outputs)
        args.func(args, cfg, dist, manifest)
        manifest.wall_clock_s = time.perf_counter() - t0
        manifest.write(record_path)
        return EXIT_OK
    except (OSError, MicrolaserError, ValueError, ArithmeticError) as exc:
        code, kind = (
            (EXIT_CONFIG, "configuration error: ") if isinstance(exc, ConfigError)
            else (EXIT_IO, "I/O error: ") if isinstance(exc, OSError)
            else (EXIT_NUMERICAL, "")
        )
        message = f"microlaser {args.command}: {kind}{exc}"
        print(message, file=sys.stderr)
        # files the run wrote before it failed keep the record of their command line
        written = [] if manifest is None else [
            path for path, stat in zip(outputs, before) if _stat(path) != stat
        ]
        if written:
            manifest.wall_clock_s = time.perf_counter() - t0
            failure = [("status", "failed"), ("exit_code", code), ("error", message)]
            try:
                manifest.write(record_path, failure + [("written", path) for path in written])
            except OSError as record_exc:
                print(f"microlaser {args.command}: I/O error: {record_exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
