"""The benchmark's four workloads: seeded inputs, operations and output checks.

Each workload has ``setup`` (config load, velocity quadrature, input files,
warm-up), ``run`` (one pass over its operations, returning one raw result per
operation, or a ``Failure``) and ``check`` (the correctness gate of one
successful result, returning the list of problems found). Checks run
outside the timed region. The pure gate functions at module level are what
the tests feed wrong inputs to.

Why these four:

* ``theory-published``: one large number-basis g2 solve on the published
  operating point (6,922 states), almost all ``quantum.g2_regression``.
* ``sweep-scaled``: the ``sweep`` command's row loop driven through the
  library, 80 small solves that cross the multistable region and the bimodal
  second threshold. Known defect, kept visible: the theory fit raises
  ``FitConvergenceError`` at N = 31.5 ... 34.5, so 7 of 80 operations fail.
* ``pipeline-scaled``: simulate -> write MLTS1 -> correlate -> fit -> compare,
  dominated by ``trajectory.simulate``, with dense in-memory pairs.
* ``correlate-file``: ``correlate-fit`` on two MLTS1 files of an Erlang-2
  renewal stream, the file read path and sparse pairs over many starts, with
  the analytic reference g2(tau) = 1 - exp(-4 R tau).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from microlaser import cli, correlator, quantum, semiclassical, streams
from microlaser.core import VelocityDistribution, load_config
from microlaser.errors import MicrolaserError

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

IDENTITY_RTOL = 1e-8        # g2(0) = 1 + Q/<n>, as in ACCEPTANCE 02
CURVE_ATOL = 1e-9           # theory curve against the stored reference
Z_TAU_BAND = 5.0            # |z_tau_c| of the pipeline report (z is ~N(0, 1) over seeds)
FIT_SIGMAS = 5.0            # fitted c0, tau_c against the analytic renewal curve
ORACLE_STARTS = 20_000      # random starts brute-forced against the correlator

RENEWAL_RATE_HZ = 2e6
BIN_PS = 20_000
WINDOW_PS = 1_000_000
PS_PER_SECOND = 10**12


@dataclass
class Failure:
    """An operation that raised or exited non-zero."""

    error: str


def guarded(fn):
    """Run one operation; an exception makes it a failed operation, not a crash."""
    try:
        return fn()
    except Exception as exc:
        if not isinstance(exc, MicrolaserError):
            traceback.print_exc(file=sys.stderr)
        return Failure(type(exc).__name__)


def run_cli(argv) -> int | Failure:
    code = cli.main([str(a) for a in argv])
    return code if code == 0 else Failure(f"exit {code}")


def read_header(path) -> dict:
    """'key = value' lines of a CLI output, with or without a '# ' prefix."""
    out = {}
    for line in Path(path).read_text().splitlines():
        body = line[2:] if line.startswith("# ") else line
        key, sep, value = body.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


# -- gates -----------------------------------------------------------------

def identity_problem(g2_zero: float, n_mean: float, mandel_q: float) -> str | None:
    expected = 1.0 + mandel_q / n_mean
    dev = abs(g2_zero - expected) / abs(expected)
    if not dev <= IDENTITY_RTOL:
        return f"g2(0) = 1 + Q/<n> violated: relative deviation {dev:.3e}"
    return None


def theory_problems(header: dict, tau, g2, reference: dict, gamma_c: float) -> list[str]:
    """predict-g2 output against the identity, the expected values and the stored curve."""
    n_mean = float(header["n_mean"])
    mandel_q = float(header["mandel_q_moments"])
    tau_c = float(header["tau_c_s"])
    problems = []
    ident = identity_problem(g2[0], n_mean, mandel_q)
    if ident:
        problems.append(ident)
    observed = {"n_mean": n_mean, "mandel_q": mandel_q, "tau_c_gamma_c": tau_c * gamma_c}
    for key, (target, tol) in reference["expect"].items():
        if not abs(observed[key] - target) <= tol:
            problems.append(f"{key} = {observed[key]:.6g}, expected {target} +- {tol}")
    ref_tau = np.asarray(reference["tau"])
    ref_g2 = np.asarray(reference["g2"])
    if tau.shape != ref_tau.shape or not np.allclose(tau, ref_tau, rtol=1e-12, atol=0.0):
        problems.append("tau grid differs from the reference curve")
    else:
        dev = float(np.max(np.abs(g2 - ref_g2)))
        if not dev <= CURVE_ATOL:
            problems.append(f"g2 curve differs from the reference by {dev:.3e}")
    return problems


def pipeline_problems(report: dict) -> list[str]:
    problems = []
    if report.get("sign_match_c0") != "True":
        problems.append(f"sign_match_c0 = {report.get('sign_match_c0')}")
    try:
        z = float(report["z_tau_c"])
    except (KeyError, ValueError):
        z = math.nan
    if not abs(z) <= Z_TAU_BAND:
        problems.append(f"z_tau_c = {z:.3g} outside +-{Z_TAU_BAND}")
    return problems


def renewal_reference(rate_hz: float, bin_s: float) -> tuple[float, float]:
    """(c0, tau_c) of the bin-averaged cross g2 of a split Erlang-2 renewal stream.

    g2(tau) = 1 - exp(-tau / tau_c) with tau_c = 1 / (4 R); averaging over a
    bin of width w and quoting it at the bin center scales c0 by sinh(x)/x,
    x = w / (2 tau_c), so the fit targets c0 = -sinh(x)/x exactly.
    """
    tau_c = 1.0 / (4.0 * rate_hz)
    x = bin_s / (2.0 * tau_c)
    return -math.sinh(x) / x, tau_c


def renewal_fit_problems(report: dict, rate_hz: float, bin_s: float) -> list[str]:
    c0_ref, tau_ref = renewal_reference(rate_hz, bin_s)
    problems = []
    try:
        c0 = float(report["c0"])
        tau_c = float(report["tau_c_s"])
        c0_sigma = math.sqrt(float(report["cov_c0_c0"]))
        tau_sigma = math.sqrt(float(report["cov_tau_tau"]))
    except (KeyError, ValueError):
        return [f"fit report lacks c0, tau_c or their covariance: {report}"]
    if not abs(c0 - c0_ref) <= FIT_SIGMAS * c0_sigma:
        problems.append(f"c0 = {c0:.6g} +- {c0_sigma:.2g}, analytic {c0_ref:.6g}")
    if not abs(tau_c - tau_ref) <= FIT_SIGMAS * tau_sigma:
        problems.append(f"tau_c = {tau_c:.6g} +- {tau_sigma:.2g} s, analytic {tau_ref:.6g} s")
    return problems


def to_ps(times) -> np.ndarray:
    """Float seconds back to the integer picoseconds they were read from."""
    return np.round(np.asarray(times) * PS_PER_SECOND).astype(np.int64)


def brute_force_counts(starts_ps, stops_ps, bin_ps: int, n_bins: int) -> np.ndarray:
    """Per-bin pair counts by enumerating every stop near each start, in integers."""
    reach = n_bins * bin_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    lo = np.searchsorted(stops_ps, starts_ps - reach)
    hi = np.searchsorted(stops_ps, starts_ps + 2 * reach)
    for s, a, b in zip(starts_ps, lo, hi):
        bins = (stops_ps[a:b] - s) // bin_ps
        counts += np.bincount(bins[(bins >= 0) & (bins < n_bins)], minlength=n_bins)
    return counts


def oracle_problems(counts, starts_ps, stops_ps, bin_ps: int, n_bins: int) -> list[str]:
    brute = brute_force_counts(starts_ps, stops_ps, bin_ps, n_bins)
    if np.array_equal(np.asarray(counts), brute):
        return []
    bad = np.flatnonzero(np.asarray(counts) != brute)
    return [f"correlator differs from the brute-force oracle in {bad.size} bins (first {bad[0]})"]


# -- input generation ---------------------------------------------------------

def write_renewal_streams(directory: Path, seed: int, events_per_channel: int,
                          rate_hz: float = RENEWAL_RATE_HZ, chunk: int = 1 << 20):
    """Erlang-2 renewal stream at total rate R, split at random over two MLTS1 files.

    Generated in chunks so the set-up never holds the whole stream. Start
    (channel 1) times are even and stop (channel 2) times odd picoseconds, so
    no delay falls on a bin edge and float and integer binning agree.
    Returns the paths of the channel 1 and channel 2 files.
    """
    rng = np.random.default_rng(seed)
    duration_ps = int(round(2.0 * events_per_channel / rate_hz * PS_PER_SECOND)) // 2 * 2
    horizon = duration_ps / PS_PER_SECOND
    raws = [directory / "ch1.raw", directory / "ch2.raw"]
    counts = [0, 0]
    last = 0.0
    with open(raws[0], "wb") as f1, open(raws[1], "wb") as f2:
        while last < horizon:
            times = last + np.cumsum(rng.standard_gamma(2.0, chunk) / (2.0 * rate_hz))
            last = float(times[-1])
            ps = np.round(times[times < horizon] * PS_PER_SECOND).astype(np.int64)
            to_first = rng.random(ps.size) < 0.5
            first = ps[to_first] & ~1
            second = ps[~to_first] | 1
            f1.write(first.astype("<u8").tobytes())
            f2.write(second.astype("<u8").tobytes())
            counts[0] += first.size
            counts[1] += second.size
    paths = []
    for channel, (raw, count) in enumerate(zip(raws, counts), start=1):
        path = directory / f"ch{channel}.mlts1"
        with open(path, "wb") as out, open(raw, "rb") as src:
            out.write(f"MLTS1 {channel} {duration_ps} {count}\n".encode("ascii"))
            shutil.copyfileobj(src, out, 1 << 22)
        raw.unlink()
        paths.append(path)
    return paths[0], paths[1]


# -- workloads -------------------------------------------------------------

class Workload:
    """Shared context: checkout root, private work directory, seed, size."""

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.config_path = root / "configs" / "scaled.cfg"

    def setup(self):
        self.cfg = load_config(self.config_path)
        self.dist = VelocityDistribution.from_config(self.cfg)

    def run_problems(self) -> list[str]:
        """Checks made once per run, after the first pass."""
        return []


class TheoryPublished(Workload):
    name = "theory-published"

    def __init__(self, *args):
        super().__init__(*args)
        stem = "scaled" if self.tiny else "published"
        self.config_path = self.root / "configs" / f"{stem}.cfg"
        self.reference = json.loads((REFERENCE_DIR / f"predict-g2-{stem}.json").read_text())
        self.out = self.work / "g2.csv"

    def setup(self):
        super().setup()
        run_cli(["predict-g2", "--config", self.root / "configs" / "scaled.cfg",
                 "--out", self.work / "warm.csv"])

    def run(self, scope):
        with scope(0):
            return [guarded(lambda: run_cli(
                ["predict-g2", "--config", self.config_path, "--out", self.out]))]

    def check(self, raw):
        header = read_header(self.out)
        rows = [
            line.split(",") for line in self.out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("tau")
        ]
        data = np.array(rows, dtype=float)
        return theory_problems(header, data[:, 0], data[:, 1], self.reference, self.cfg.gamma_c)


class SweepScaled(Workload):
    name = "sweep-scaled"

    def setup(self):
        super().setup()
        a, b, step = (31.0, 32.0, 0.5) if self.tiny else (0.5, 40.0, 0.5)
        self.n_list = [float(v) for v in np.arange(a, b + 0.5 * step, step)]
        self._point(self.cfg.n_atoms_mean)

    def _point(self, n_atoms):
        point_cfg = self.cfg.with_n_atoms(n_atoms)
        p = quantum.steady_state(point_cfg, self.dist)
        if p.mean <= 0.0:
            return None
        curve = quantum.g2_regression(point_cfg, self.dist)
        quantum.q_and_tau_from_g2(curve, p.mean)
        return float(curve.values[0]), p.mean, p.mandel_q

    def run(self, scope):
        with scope("sweep"):
            result = guarded(lambda: semiclassical.sweep(self.cfg, self.dist, self.n_list, "up"))
        if isinstance(result, Failure):
            return [result] * len(self.n_list)
        raws = []
        for i, pt in enumerate(result.points):
            with scope(i):
                raws.append(guarded(lambda: self._point(pt.n_atoms_mean)))
        return raws

    def check(self, raw):
        if raw is None:
            return []
        problem = identity_problem(*raw)
        return [problem] if problem else []


class PipelineScaled(Workload):
    name = "pipeline-scaled"

    def setup(self):
        super().setup()
        self.duration = "0.002" if self.tiny else "0.02"
        self.out = self.work / "pipeline"
        run_cli(["pipeline", "--config", self.config_path, "--duration-s", "0.002",
                 "--seed", self.seed, "--out-dir", self.work / "warm"])

    def run(self, scope):
        with scope(0):
            return [guarded(lambda: run_cli(
                ["pipeline", "--config", self.config_path, "--duration-s", self.duration,
                 "--seed", self.seed, "--out-dir", self.out]))]

    def check(self, raw):
        return pipeline_problems(read_header(self.out / "report.txt"))


class CorrelateFile(Workload):
    name = "correlate-file"

    def setup(self):
        super().setup()
        events = 100_000 if self.tiny else 10_000_000
        self.ch1, self.ch2 = write_renewal_streams(self.work, self.seed, events)
        warm = self.work / "warm"
        warm.mkdir(exist_ok=True)
        w1, w2 = write_renewal_streams(warm, self.seed, 10_000)
        self.out = self.work / "fit.txt"
        run_cli(self._argv(w1, w2, warm / "fit.txt"))

    def _argv(self, ch1, ch2, out):
        return ["correlate-fit", ch1, ch2, "--bin-ns", BIN_PS / 1000,
                "--window-us", WINDOW_PS / 10**6, "--out", out]

    def run(self, scope):
        with scope(0):
            return [guarded(lambda: run_cli(self._argv(self.ch1, self.ch2, self.out)))]

    def check(self, raw):
        return renewal_fit_problems(
            read_header(self.out), RENEWAL_RATE_HZ, BIN_PS / PS_PER_SECOND)

    def run_problems(self):
        """Correlator on a random subset of starts against the brute-force oracle."""
        a = streams.read_stream(self.ch1)
        b = streams.read_stream(self.ch2)
        rng = np.random.default_rng(self.seed)
        pick = np.sort(rng.choice(a.count, size=min(ORACLE_STARTS, a.count), replace=False))
        subset = streams.TimestampStream(a.times[pick], 1, a.duration)
        hist = correlator.correlate(subset, b, BIN_PS / PS_PER_SECOND, WINDOW_PS / PS_PER_SECOND)
        return oracle_problems(hist.counts, to_ps(subset.times), to_ps(b.times),
                               BIN_PS, WINDOW_PS // BIN_PS)


WORKLOADS = {w.name: w for w in (TheoryPublished, SweepScaled, PipelineScaled, CorrelateFile)}
