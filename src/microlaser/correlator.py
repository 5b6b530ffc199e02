"""Multi-start multi-stop correlation of timestamp streams and g2 extraction.

Every event in the start stream opens a window; every event of the stop
stream inside it is histogrammed by delay, with no dead time between stops
(the time-tagged scheme of Laurence, Fore & Huser, Opt. Lett. 31, 829
(2006)). The cost is O(|a| + |b| + pairs) and the result is independent of
how the start stream is partitioned.

Each step works on data that fits in cache. Starts are taken in chunks of
``DEFAULT_CHUNK``. Two scalar searches bound the only stops that can pair
with a chunk, those in [s[0], s[-1] + reach]; the starts past the slice's
last stop have none and are cut off. A chunk whose m stops give at most
``WALK_STEPS`` per window on average, m * reach / (s[-1] - s[0] + reach),
finds each start's first stop through a bucket index of its slice, then
walks: each step bins the next stop of every start still inside its window,
and a start drops out once a stop lands past the last bin or the slice ends.
At sparse densities most windows hold 0-2 stops, and a step costs a few ns
per start where a search costs about 20. The starts still inside their
window after the walk, and every start of a denser chunk, which searches for
its first stops, search where their window ends. Their pairs are counted
``_PAIR_STARTS`` starts at a time and materialized at most ``PAIR_BATCH`` at
a time (a start with more stops than that is taken whole): one stop index
and one delay per pair, 256 kB per array at 2**15 pairs. The slice stays a
view of the stop stream, so a chunk of sparse starts against a long stop
stream copies nothing.

The bucket index puts a time x in cell int((x - s[0]) * m / span), with
span = near[-1] - s[0] over the slice ``near``. Float subtraction of a
constant, multiplication by a positive constant and truncation are
monotone, so the cell does not decrease with x, and every stop in a lower
cell than a start lies below it. A ``bincount`` and a ``cumsum`` over the
stop cells give the first stop of each cell, at or below the first stop of
every start in it. The starts step forward past stops below them at most
``_BUCKET_STEPS`` times, and those still behind are searched, so the index
gives the left search exactly. On the correlate-file streams 68.1 % of the
starts take no step, 25.7 % one, 5.5 % two and 0.79 % are searched. Without
the bound, a chunk with 30,000 stops inside 1 us and one more 1 s later puts
the burst in one cell, and its starts would step through it stop by stop.
The index costs O(m), so it is built only where the slice holds at most
``_BUCKET_LOAD`` stops per start and m / span is finite and positive: the
benchmark's oracle, 20,000 random starts against 10 M stops, searches. A
dense chunk spends its time on pairs, not on its first stops.

The chunks are shared out over one worker per usable CPU (the process's
scheduler affinity, or ``os.cpu_count()`` where that is not available,
capped at ceil(quota / period) of a cgroup v2 CPU quota), at most one per
chunk. Worker w takes chunks w, w + k, w + 2k, ... of k, so
dense and sparse stretches of the stream fall to every worker alike. The
calling thread runs share 0 and a thread pool the others; with one worker no
pool is started. If one share raises, or is interrupted, the other workers
stop at their next chunk. Each share adds into its own int64 counts, and
integer sums do not depend on order, so the histogram is the same for any
number of workers. numpy releases the interpreter lock in its searches and
in some of its passes over arrays, which is where the second core pays, and
short calls lose it to the lock. On a 2-core VM, two threads did this many
times the work of one (8,192 / 32,768-element calls): ``searchsorted`` 1.85
/ 1.83, ``cumsum`` 1.67 / 1.83, ``bincount`` 0.74 / 1.38, ``take`` 0.97 /
1.18, ``astype`` 0.68 / 1.38, ``flatnonzero`` 0.58 / 1.58, a subtraction
0.91 / 1.57 and ``repeat`` 0.85 / 0.81. Hence chunks of 2**15 starts: at
2**13 the index made two workers slower than one. A worker runs only private
code and numpy, so a tracer that wraps the public functions sees one
``correlate`` span.

Each worker thread allocates from its own malloc arena, which stays resident
after the call, up to the most the worker held at once, under the next
allocation peak of the process. So the pair budget is per worker and small:
at 2**17 pairs per worker it raised the peak memory of a pipeline run by
about 15 %, at 2**15 by 0-4 %. The pairs are counted 2**13 starts at a time
because a dense chunk's per-start arrays at 2**15 raised that peak by 1-2
MB. A walking chunk's arrays are written into a worker's ``_Scratch`` with
``out=``: made afresh for every chunk, 256 kB arrays went back to the
allocator and were faulted in again, about 0.2 s of system time per
correlate-file pass.

No validity mask is needed. The first stop is a left search, so every stop
is at or after its start, every delay is >= 0 and truncation toward zero is
the floor. For a fixed start the float delay fl(fl(t - s) / bin_width) does
not decrease with t, so a walk that stops a start at its first stop past the
last bin counts exactly the stops that the brute-force
floor((t - s) / bin_width) puts in [0, n_bins). The walk clips its delays at
n_bins, and one extra bin n_bins, cut off at the end, takes every stop past
the window. The search bound is a right search at s + reach, with reach one
ulp above the binned window: a stop whose float delay rounds into a bin
below n_bins has t - s <= reach, so the bound keeps it, as the brute force
keeps it, and keeps every stop the walk has binned. What the bound keeps
past the last bin lands in bin n_bins or above and is cut off.

One rule, ``window_refusal``, decides which windows every route accepts, and
``CorrelationHistogram.tau_centers`` where their bins lie; ``fit_exponential``
excludes bins by index. One constructor, ``_estimate``, builds every g2
estimate from pair counts and the one baseline, ``_uncorrelated_pairs``. The
module writes no files; ``cli`` formats its results.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import MicrolaserError
from .fitting import ExpFit, fit_exp_decay
from .streams import TimestampStream

# starts per chunk, pairs per batch and worker, and starts whose pairs are
# counted together, chosen by timing the pipeline-scaled (21 M pairs) and
# correlate-file (10 M x 10 M events) streams on one and two workers and by
# the peak memory of pipeline-scaled; no size changes the counts
DEFAULT_CHUNK = 1 << 15
PAIR_BATCH = 1 << 15
_PAIR_STARTS = 1 << 13
# stops binned per start by walking before the rest of its window is searched;
# longer walks timed alike on the correlate-file streams, 2 and 3 were slower
WALK_STEPS = 4
# the bucket index is built where the stop slice holds at most _BUCKET_LOAD
# stops per start; a start steps forward at most _BUCKET_STEPS times, then is
# searched
_BUCKET_LOAD = 4
_BUCKET_STEPS = 2
# fewest bins, past the excluded ones and with counts, that ``fit_exponential`` fits
MIN_FIT_BINS = 10
# most bins a window may hold: each worker counts into MAX_BINS + 1 int64, 8 MB
MAX_BINS = 1 << 20
# a cgroup v2 CPU quota: "<quota> <period>" in microseconds, or "max <period>"
CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


class NormalizationError(MicrolaserError, ValueError):
    """Raised when a g2 estimate cannot be normalized (zero rate or time, or a
    window that reaches the end of the run)."""


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
        if c.size != bin_count(self.bin_width, self.window):
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
) -> CorrelationHistogram:
    """Histogram all (start, stop) delays in [0, window) from streams a, b.

    Starts are processed in chunks, shared out over one worker per usable
    CPU; the partial histograms are summed into the result, which is
    bit-identical to processing event by event.
    """
    reason = window_refusal(bin_width, window)
    if reason is not None:
        raise ValueError(reason)
    if a.duration != b.duration:
        raise ValueError(
            f"streams must share an acquisition duration, got {a.duration} and {b.duration}"
        )
    t_acq = a.duration
    if t_acq <= 0.0:
        raise ValueError(f"streams must have positive duration, got {t_acq}")

    n_bins = bin_count(bin_width, window)
    reach = np.nextafter(n_bins * bin_width, np.inf)
    n_chunks = -(-a.count // DEFAULT_CHUNK)
    n_workers = max(1, min(_usable_cpus(), n_chunks))

    # set when a share fails or is interrupted, so that the other workers stop
    # after their current chunk instead of finishing their shares
    stop = threading.Event()

    def share(worker):
        try:
            return _correlate_share(
                a.times, b.times, bin_width, n_bins, reach, worker, n_workers, stop
            )
        except BaseException:
            stop.set()
            raise

    if n_workers == 1:
        counts = share(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(n_workers - 1) as pool:
            others = [pool.submit(share, w) for w in range(1, n_workers)]
            counts = share(0)
            for f in others:
                counts += f.result()
    return CorrelationHistogram(
        bin_width=bin_width,
        window=window,
        counts=counts,
        rate1=a.count / t_acq,
        rate2=b.count / t_acq,
        t_acq=t_acq,
    )


def bin_count(bin_width: float, window: float) -> int:
    """Bins of ``bin_width`` that cover ``window``: ceil(window / bin_width)."""
    return math.ceil(window / bin_width - 1e-9)


def window_refusal(bin_width: float, window: float, exclude_bins: int | None = None,
                   duration: float | None = None) -> str | None:
    """Why a window (s) of bins of ``bin_width`` (s) is refused, or None: it is
    not finite, ``bin_width`` is not positive and finite (one that underflowed
    to 0 leaves a positive window more than ``MAX_BINS`` bins), it holds no bin
    or more than ``MAX_BINS``, it leaves fewer than ``MIN_FIT_BINS`` past
    ``exclude_bins`` if given, or its last bin is centred at or past the end of
    a run of ``duration`` if given, where the normalization expects no pairs."""
    if not math.isfinite(window):
        return f"window must be finite, got {window}"
    if not (0.0 < bin_width < math.inf or bin_width == 0.0 < window):
        return f"bin_width must be positive and finite, got {bin_width}"
    if window < bin_width:
        return f"window {window:g} s is shorter than one bin of {bin_width:g} s"
    # a window past twice MAX_BINS bins is refused without a count, which could overflow
    n_bins = bin_count(bin_width, window) if window <= 2 * MAX_BINS * bin_width else math.inf
    if n_bins > MAX_BINS:
        return f"window {window:g} s holds more than {MAX_BINS} bins of {bin_width:g} s"
    if exclude_bins is not None and n_bins - exclude_bins < MIN_FIT_BINS:
        return (
            f"window {window:g} s leaves {n_bins - exclude_bins} bins of {bin_width:g} s past "
            f"the {exclude_bins} excluded, and the fit needs {MIN_FIT_BINS}"
        )
    if duration is not None and (n_bins - 0.5) * bin_width >= duration:
        return f"window {window:g} s reaches the end of the {duration:g} s run"
    return None


def _usable_cpus() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        with open(CGROUP_CPU_MAX) as fh:
            quota = _quota_cpus(fh.read())
    except (OSError, ValueError):  # absent, unreadable or not text
        quota = None
    return min(cpus, quota) if quota else cpus


def _quota_cpus(text: str) -> int | None:
    """CPUs a cgroup v2 ``cpu.max`` text ("<quota> <period>") allows, rounded
    up; None for no quota ("max ...") or text that is not two positive integers.
    """
    try:
        quota, period = (int(field) for field in text.split())
    except ValueError:
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


class _Scratch:
    """Named arrays one worker reuses from chunk to chunk, each grown to the
    most that a chunk asks of it; ``scratch(name, size, dtype)`` is the first
    ``size`` elements."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, size, dtype=np.float64):
        a = self._arrays.get(name)
        if a is None or a.size < size:
            a = self._arrays[name] = np.empty(size, dtype)
        return a[:size]


def _correlate_share(starts, stops, bin_width, n_bins, reach, worker, n_workers, stop):
    """Counts of chunks worker, worker + n_workers, ... of ``DEFAULT_CHUNK``
    starts each.

    Returns early, with partial counts, once ``stop`` is set.
    """
    # bin n_bins collects the delays past the last bin and is cut off at the end
    counts = np.zeros(n_bins + 1, dtype=np.int64)
    scratch = _Scratch()
    for begin in range(worker * DEFAULT_CHUNK, starts.size, n_workers * DEFAULT_CHUNK):
        if stop.is_set():
            break
        s = starts[begin : begin + DEFAULT_CHUNK]
        # only stops in [s[0], s[-1] + reach] can pair with this chunk
        j0 = np.searchsorted(stops, s[0], side="left")
        j1 = np.searchsorted(stops, s[-1] + reach, side="right")
        if j0 == j1:
            continue
        near = stops[j0:j1]
        walk = near.size * reach <= WALK_STEPS * (s[-1] - s[0] + reach)
        # the starts past the last stop have none in the slice; they are a suffix
        s = s[: np.searchsorted(s, near[-1], side="right")]
        if walk:
            lo = _first_stops(near, s, scratch)
            s, lo = _walk(counts, near, s, lo, bin_width, n_bins, scratch)
        for k in range(0, s.size, _PAIR_STARTS):
            block = s[k : k + _PAIR_STARTS]
            block_lo = lo[k : k + _PAIR_STARTS] if walk else np.searchsorted(near, block)
            _pairs(counts, near, block, block_lo, bin_width, n_bins, reach)
    return counts[:n_bins]


def _pairs(counts, near, s, lo, bin_width, n_bins, reach):
    """Bin the stops of each start from its first, ``lo``, to its right
    search at s + reach, materialized at most ``PAIR_BATCH`` at a time."""
    per = np.searchsorted(near, s + reach, side="right") - lo
    ends = np.cumsum(per)
    # pair p of start i has stop index key[i] + p, counting p over the block
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
        # the reach land in bin n_bins or above, and those above are cut off here
        counts += np.bincount(tau.astype(np.int64), minlength=n_bins + 1)[: n_bins + 1]
        first, done = last, ends[last - 1]


def _first_stops(near, s, scratch):
    """``np.searchsorted(near, s, side="left")`` for starts s <= near[-1] and
    stops near >= s[0], through the bucket index of the module docstring
    where ``near`` holds at most ``_BUCKET_LOAD`` stops per start.

    Every index is in range, so the gathers into ``out=`` arrays take mode
    "clip", with which numpy writes into them directly; the default gathers
    into a copy.
    """
    m, n = near.size, s.size
    span = float(near[-1] - s[0])
    scale = m / span if span > 0.0 else math.inf
    if m > _BUCKET_LOAD * n or not 0.0 < scale < math.inf:
        return np.searchsorted(near, s, side="left")
    x, cells = scratch("x", m), scratch("cells", m, np.intp)
    np.subtract(near, s[0], out=x)
    x *= scale
    np.copyto(cells, x, casting="unsafe")
    # first[c] counts the stops in the cells below c; the last stop's cell is at most m
    first = scratch("first", m + 1, np.intp)
    first[0] = 0
    np.cumsum(np.bincount(cells, minlength=m)[:m], out=first[1:])
    x, cells, lo = scratch("x", n), scratch("cells", n, np.intp), scratch("lo0", n, np.intp)
    np.subtract(s, s[0], out=x)
    x *= scale
    np.copyto(cells, x, casting="unsafe")
    first.take(cells, out=lo, mode="clip")
    behind = scratch("mask0", n, bool)
    for _ in range(_BUCKET_STEPS):
        np.less(near.take(lo, out=x, mode="clip"), s, out=behind)
        lo += behind
    np.less(near.take(lo, out=x, mode="clip"), s, out=behind)
    behind = np.flatnonzero(behind)
    if behind.size:
        lo[behind] = np.searchsorted(near, s.take(behind), side="left")
    return lo


def _walk(counts, near, s, lo, bin_width, n_bins, scratch):
    """Bin the next stop of every start at once, at most ``WALK_STEPS`` times.

    For a fixed start the float delay does not decrease with the stop index,
    so a start is done once a stop lands in bin n_bins or the slice ends.
    Returns the starts still inside their window and their next stop index.
    """
    for step in range(WALK_STEPS):
        n = s.size
        if not n:
            break
        tau, bins = scratch("x", n), scratch("cells", n, np.intp)
        near.take(lo, out=tau, mode="clip")
        tau -= s
        tau /= bin_width
        np.minimum(tau, n_bins, out=tau)
        np.copyto(bins, tau, casting="unsafe")
        counts += np.bincount(bins, minlength=n_bins + 1)
        lo += 1
        inside = np.less(bins, n_bins, out=scratch("mask0", n, bool))
        inside &= np.less(lo, near.size, out=scratch("mask1", n, bool))
        # an index and two gathers: a boolean mask on each array is slower
        inside = np.flatnonzero(inside)
        # gather into the other of two pairs of arrays; lo0 may hold the first lo
        k, other = inside.size, (step + 1) % 2
        s = s.take(inside, out=scratch(f"s{other}", k), mode="clip")
        lo = lo.take(inside, out=scratch(f"lo{other}", k, np.intp), mode="clip")
    return s, lo


def merge_histograms(parts) -> CorrelationHistogram:
    """Sum partial histograms of one start stream, partitioned, against one stop stream."""
    parts = list(parts)
    if not parts:
        raise ValueError("no histograms to merge")
    first = parts[0]
    total = np.zeros(first.n_bins, dtype=np.int64)
    for h in parts:
        if (h.bin_width, h.window, h.t_acq) != (first.bin_width, first.window, first.t_acq):
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


def normalize(h: CorrelationHistogram) -> G2Estimate:
    """Convert pair counts to g2 over each bin's baseline, with Poisson sigmas."""
    return _estimate(h, h.counts, 1)


def g2_symmetric(
    a: TimestampStream,
    b: TimestampStream,
    bin_width: float,
    window: float,
) -> G2Estimate:
    """Average the (a, b) and (b, a) estimates; stationarity makes g2 even in tau."""
    h_ab = correlate(a, b, bin_width, window)
    h_ba = correlate(b, a, bin_width, window)
    return _estimate(h_ab, h_ab.counts + h_ba.counts, 2)


def _uncorrelated_pairs(rate1, rate2, bin_width, t_acq, tau=0.0):
    """Pairs that uncorrelated streams give in a bin at delay ``tau`` (a
    number or an array), rate1 * rate2 * bin_width * (t_acq - tau). A start
    within tau of the end of the run has no stop at delay tau, a loss linear
    in tau, so this is exact (Wahl et al., Opt. Express 11, 3583 (2003)).
    Refuses a rate, bin width or time <= 0.
    """
    if min(rate1, rate2, bin_width, t_acq) <= 0.0:
        raise NormalizationError(
            f"undefined normalization: zero rate, bin width or time (rates {rate1:g} and "
            f"{rate2:g} Hz, bin width {bin_width:g} s, run {t_acq:g} s)"
        )
    return rate1 * rate2 * bin_width * (t_acq - tau)


def _estimate(h: CorrelationHistogram, counts: np.ndarray, copies: int) -> G2Estimate:
    """g2 of ``counts``, summed over ``copies`` histograms like ``h``, over
    ``copies`` baselines, with Poisson sigmas; the normalization is at tau = 0."""
    run = h.rate1, h.rate2, h.bin_width, h.t_acq
    # a zero rate is refused before the end of the run
    normalization = copies * _uncorrelated_pairs(*run)
    reason = window_refusal(h.bin_width, h.window, duration=h.t_acq)
    if reason is not None:
        raise NormalizationError(f"undefined normalization: {reason}")
    tau = h.tau_centers
    baseline = copies * _uncorrelated_pairs(*run, tau)
    c = counts.astype(float)
    return G2Estimate(
        tau=tau, g2=c / baseline, sigma=np.sqrt(c) / baseline,
        normalization=normalization, counts=counts,
        bin_width=h.bin_width, window=h.window, t_acq=h.t_acq, rate1=h.rate1, rate2=h.rate2,
    )


def shot_noise_rms(rate1: float, rate2: float, bin_width: float, t_acq: float) -> float:
    """Per-bin rms of g2 for uncorrelated streams at tau = 0: 1/sqrt(R1 R2 dtau T)."""
    return 1.0 / math.sqrt(_uncorrelated_pairs(rate1, rate2, bin_width, t_acq))


def fit_exponential(est: G2Estimate, exclude_bins: int = 1) -> ExpFit:
    """Weighted fit of 1 + C0 exp(-tau/tau_c) to a g2 estimate.

    The first ``exclude_bins`` bins are excluded, one by default (detector
    artifacts in real data, pair-counting edge effects in synthetic data), as
    are empty bins, whose Poisson sigma would be zero.
    """
    usable = (np.arange(est.counts.size) >= exclude_bins) & (est.counts > 0)
    if usable.sum() < MIN_FIT_BINS:
        raise ValueError(
            f"need at least {MIN_FIT_BINS} usable bins with counts, have {int(usable.sum())}"
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

