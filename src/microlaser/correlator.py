"""Multi-start multi-stop correlation of timestamp streams and g2 extraction.

Every event in the start stream opens a window; every event of the stop
stream inside it is histogrammed by delay, with no dead time between stops
(the time-tagged scheme of Laurence, Fore & Huser, Opt. Lett. 31, 829
(2006)). The cost is O(|a| + |b| + pairs) and the result is independent of
how the start stream is partitioned.

Each step works on data that fits in cache. Starts are taken in chunks of
``DEFAULT_CHUNK``. Two scalar searches bound the only stops that can pair
with a chunk, those in [s[0], s[-1] + reach], and each start's first and
last stop are searched in that slice, which is about one chunk long, instead
of in the whole stream; the same comparisons give the same bounds. Pairs are
materialized at most ``PAIR_BATCH`` at a time (a start with more stops than
that is taken whole): one stop index and one delay per pair, about 1 MB per
array at 2**17 pairs.

No validity mask is needed. The lower bound is a left search, so every stop
is at or after its start, every delay is >= 0 and truncation toward zero is
the floor. The upper bound is a right search at s + reach, with reach one
ulp above the binned window: it keeps every stop whose float delay can
round into the last bin, as the brute-force floor((t - s) / bin_width)
keeps it, and what it keeps past the last bin is cut off after the bincount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MicrolaserError
from .fitting import ExpFit, fit_exp_decay
from .streams import TimestampStream

# starts per chunk and pairs per batch, chosen by timing the pipeline-scaled
# (21 M pairs) and correlate-file (10 M x 10 M events) streams; neither size
# changes the counts
DEFAULT_CHUNK = 1 << 13
PAIR_BATCH = 1 << 17


class NormalizationError(MicrolaserError, ValueError):
    """Raised when a g2 estimate cannot be normalized (zero rate or time)."""


@dataclass(frozen=True)
class CorrelationHistogram:
    """Raw pair counts per delay bin with the metadata needed to normalize.

    Bin i covers delays [i * bin_width, (i+1) * bin_width); the number of
    bins is ceil(window / bin_width), so the covered delay range is the
    window rounded up to a whole bin.
    """

    bin_width: float
    window: float
    counts: np.ndarray
    rate1: float
    rate2: float
    t_acq: float

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or np.any(c < 0):
            raise ValueError("counts must be a 1-d array of nonnegative integers")
        if c.size != math.ceil(self.window / self.bin_width - 1e-9):
            raise ValueError("counts length must equal ceil(window / bin_width)")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def tau_centers(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_width


@dataclass(frozen=True)
class G2Estimate:
    """Normalized per-bin g2 values with Poisson uncertainties."""

    tau: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray
    normalization: float
    counts: np.ndarray
    bin_width: float
    window: float
    t_acq: float
    rate1: float
    rate2: float


@dataclass(frozen=True)
class QEstimate:
    """Mandel Q recovered from a fit by the two available routes.

    ``q_from_c0`` uses g2(0) = 1 + Q/<n>; ``q_from_tau`` uses
    Q = Gamma_c tau_c - 1. Their discrepancy is a diagnostic: the two
    estimators are model-identical only when the decay is a clean single
    exponential at the semiclassical operating point.
    """

    q_from_c0: float
    q_from_tau: float | None
    discrepancy: float | None


def correlate(
    a: TimestampStream,
    b: TimestampStream,
    bin_width: float,
    window: float,
    chunk_size: int = DEFAULT_CHUNK,
) -> CorrelationHistogram:
    """Histogram all (start, stop) delays in [0, window) from streams a, b.

    Starts are processed in chunks; each chunk's partial histogram is summed
    into the result, which is bit-identical to processing event by event.
    """
    if bin_width <= 0.0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if window < bin_width:
        raise ValueError(f"window ({window}) must be >= bin_width ({bin_width})")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if a.duration != b.duration:
        raise ValueError(
            f"streams must share an acquisition duration, got {a.duration} and {b.duration}"
        )

    n_bins = math.ceil(window / bin_width - 1e-9)
    reach = np.nextafter(n_bins * bin_width, np.inf)
    counts = np.zeros(n_bins, dtype=np.int64)
    starts = a.times
    stops = b.times
    for begin in range(0, starts.size, chunk_size):
        s = starts[begin : begin + chunk_size]
        # only stops in [s[0], s[-1] + reach] can pair with this chunk
        j0 = np.searchsorted(stops, s[0], side="left")
        j1 = np.searchsorted(stops, s[-1] + reach, side="right")
        if j0 == j1:
            continue
        near = stops[j0:j1]
        lo = np.searchsorted(near, s, side="left")
        per = np.searchsorted(near, s + reach, side="right") - lo
        ends = np.cumsum(per)
        # pair p of start i has stop index key[i] + p, counting p over the chunk
        key = lo - (ends - per)
        first = done = 0
        while done < ends[-1]:
            # take as many starts as fit the pair budget (at least one)
            last = max(int(np.searchsorted(ends, done + PAIR_BATCH, side="right")), first + 1)
            sl = slice(first, last)
            idx = np.repeat(key[sl], per[sl])
            idx += np.arange(done, ends[last - 1])
            tau = near[idx]
            tau -= np.repeat(s[sl], per[sl])
            tau /= bin_width
            # lo makes tau >= 0, so truncation is the floor; delays at or just past
            # the reach land in bin n_bins or above and are cut off here
            counts += np.bincount(tau.astype(np.int64), minlength=n_bins)[:n_bins]
            first, done = last, ends[last - 1]
    t_acq = a.duration
    if t_acq <= 0.0:
        raise ValueError("streams must have positive duration")
    return CorrelationHistogram(
        bin_width=bin_width,
        window=window,
        counts=counts,
        rate1=a.count / t_acq,
        rate2=b.count / t_acq,
        t_acq=t_acq,
    )


def merge_histograms(parts) -> CorrelationHistogram:
    """Sum partial histograms of one start stream, partitioned, against one stop stream."""
    parts = list(parts)
    if not parts:
        raise ValueError("no histograms to merge")
    first = parts[0]
    total = np.zeros(first.n_bins, dtype=np.int64)
    for h in parts:
        if (
            h.bin_width != first.bin_width
            or h.window != first.window
            or h.t_acq != first.t_acq
        ):
            raise ValueError("histograms must share binning and acquisition time")
        if h.rate2 != first.rate2:
            raise ValueError(
                f"histograms must share one stop stream, got stop rates {first.rate2!r} "
                f"and {h.rate2!r}"
            )
        total += h.counts
    rate1 = sum(h.rate1 for h in parts)
    return CorrelationHistogram(
        bin_width=first.bin_width,
        window=first.window,
        counts=total,
        rate1=rate1,
        rate2=first.rate2,
        t_acq=first.t_acq,
    )


def normalize(
    h: CorrelationHistogram,
    mode: str = "rates",
    tail_fraction: float = 0.25,
) -> G2Estimate:
    """Convert pair counts to g2 with per-bin Poisson sigmas.

    ``rates`` divides by the analytic uncorrelated baseline
    rate1 * rate2 * bin_width * t_acq (exact for synthetic streams whose
    rates are known); ``tail`` divides by the mean count of the trailing
    bins, which tolerates rate drift in real data.
    """
    if h.t_acq <= 0.0:
        raise NormalizationError(f"t_acq must be positive, got {h.t_acq}")
    if mode == "rates":
        if h.rate1 <= 0.0 or h.rate2 <= 0.0:
            raise NormalizationError(
                f"undefined normalization: rates ({h.rate1:g}, {h.rate2:g}) must be positive"
            )
        baseline = h.rate1 * h.rate2 * h.bin_width * h.t_acq
    elif mode == "tail":
        n_tail = max(1, int(tail_fraction * h.n_bins))
        baseline = float(h.counts[-n_tail:].mean())
        if baseline <= 0.0:
            raise NormalizationError("undefined normalization: empty tail bins")
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    counts = h.counts.astype(float)
    return G2Estimate(
        tau=h.tau_centers,
        g2=counts / baseline,
        sigma=np.sqrt(counts) / baseline,
        normalization=baseline,
        counts=h.counts,
        bin_width=h.bin_width,
        window=h.window,
        t_acq=h.t_acq,
        rate1=h.rate1,
        rate2=h.rate2,
    )


def g2_symmetric(
    a: TimestampStream,
    b: TimestampStream,
    bin_width: float,
    window: float,
) -> G2Estimate:
    """Average the (a, b) and (b, a) estimates; stationarity makes g2 even in tau."""
    h_ab = correlate(a, b, bin_width, window)
    h_ba = correlate(b, a, bin_width, window)
    counts = h_ab.counts + h_ba.counts
    baseline = 2.0 * h_ab.rate1 * h_ab.rate2 * bin_width * h_ab.t_acq
    if baseline <= 0.0:
        raise NormalizationError("undefined normalization: zero rate")
    return G2Estimate(
        tau=h_ab.tau_centers,
        g2=counts / baseline,
        sigma=np.sqrt(counts.astype(float)) / baseline,
        normalization=baseline,
        counts=counts,
        bin_width=bin_width,
        window=window,
        t_acq=h_ab.t_acq,
        rate1=h_ab.rate1,
        rate2=h_ab.rate2,
    )


def shot_noise_rms(rate1: float, rate2: float, bin_width: float, t_acq: float) -> float:
    """Per-bin rms of g2 for uncorrelated streams: 1/sqrt(R1 R2 dtau T)."""
    if min(rate1, rate2, bin_width, t_acq) <= 0.0:
        raise ValueError("rates, bin width, and acquisition time must be positive")
    return 1.0 / math.sqrt(rate1 * rate2 * bin_width * t_acq)


def fit_exponential(est: G2Estimate, exclude_below: float | None = None) -> ExpFit:
    """Weighted fit of 1 + C0 exp(-tau/tau_c) to a g2 estimate.

    The first bin is excluded by default (detector artifacts in real data,
    pair-counting edge effects in synthetic data), as are empty bins, whose
    Poisson sigma would be zero.
    """
    if exclude_below is None:
        exclude_below = est.bin_width
    usable = (est.tau >= exclude_below) & (est.counts > 0)
    if usable.sum() < 10:
        raise ValueError(
            f"need at least 10 usable bins with counts, have {int(usable.sum())}"
        )
    return fit_exp_decay(est.tau[usable], est.g2[usable], est.sigma[usable])


def estimate_q(fit: ExpFit, n_mean: float, gamma_c: float) -> QEstimate:
    """Mandel Q from the fitted amplitude and from the fitted decay time."""
    if n_mean <= 0.0:
        raise ValueError(f"n_mean must be positive, got {n_mean}")
    q_c0 = fit.c0 * n_mean
    if fit.tau_c is None:
        return QEstimate(q_from_c0=q_c0, q_from_tau=None, discrepancy=None)
    q_tau = gamma_c * fit.tau_c - 1.0
    return QEstimate(q_from_c0=q_c0, q_from_tau=q_tau, discrepancy=q_c0 - q_tau)


def g2_estimate_csv(est: G2Estimate, header_lines=()) -> str:
    lines = [f"# {line}" for line in header_lines]
    lines.append(f"# bin_width_s = {est.bin_width!r}")
    lines.append(f"# window_s = {est.window!r}")
    lines.append(f"# t_acq_s = {est.t_acq!r}")
    lines.append(f"# rate1_hz = {est.rate1!r}")
    lines.append(f"# rate2_hz = {est.rate2!r}")
    lines.append(f"# normalization = {est.normalization!r}")
    lines.append("tau_s,g2,sigma")
    lines.extend(
        f"{t:.17g},{g:.17g},{s:.17g}"
        for t, g, s in zip(est.tau, est.g2, est.sigma)
    )
    return "\n".join(lines) + "\n"


def _render(value) -> str:
    if value is None:
        return "None"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def fit_report(fit: ExpFit, q: QEstimate | None = None, extra=None, header_lines=()) -> str:
    """Flat key = value report of a fit (and optional Q extraction)."""
    lines = [f"# {line}" for line in header_lines]
    entries: list[tuple[str, object]] = [
        ("c0", fit.c0),
        ("tau_c_s", fit.tau_c),
        ("chi2_reduced", fit.chi2_reduced),
        ("n_bins_used", fit.n_points),
    ]
    if fit.cov is not None:
        entries += [
            ("cov_c0_c0", fit.cov[0, 0]),
            ("cov_c0_tau", fit.cov[0, 1]),
            ("cov_tau_tau", fit.cov[1, 1]),
        ]
    if q is not None:
        entries += [
            ("q_from_c0", q.q_from_c0),
            ("q_from_tau", q.q_from_tau),
            ("q_discrepancy", q.discrepancy),
        ]
    entries += list((extra or {}).items())
    lines.extend(f"{key} = {_render(value)}" for key, value in entries)
    return "\n".join(lines) + "\n"
