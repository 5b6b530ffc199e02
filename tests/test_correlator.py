import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from microlaser import correlator as correlator_module
from microlaser.correlator import (
    CorrelationHistogram,
    NormalizationError,
    correlate,
    estimate_q,
    fit_exponential,
    g2_symmetric,
    merge_histograms,
    normalize,
    shot_noise_rms,
)
from microlaser.streams import TimestampStream


def brute_force_counts(a, b, bin_width, window, chunk=512):
    """Exact pair oracle: bin every pair of a chunk of starts by floor((t-s)/bin_width).

    Each chunk of starts s_first..s_last meets only the stops in
    [s_first, s_last + (n_bins + 1) * bin_width]. The float difference t - s
    is negative exactly when t < s, and a stop past the slice's end lies more
    than a whole bin beyond the window for every start of the chunk, so no
    pair outside the slice lands in [0, n_bins).
    """
    n_bins = math.ceil(window / bin_width - 1e-9)
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, a.size, chunk):
        starts = a[start : start + chunk]
        lo = np.searchsorted(b, starts[0], side="left")
        hi = np.searchsorted(b, starts[-1] + (n_bins + 1) * bin_width, side="right")
        tau = b[None, lo:hi] - starts[:, None]
        bins = np.floor(tau / bin_width).astype(np.int64).ravel()
        good = bins[(bins >= 0) & (bins < n_bins)]
        counts += np.bincount(good, minlength=n_bins)
    return counts


def poisson_stream(rng, rate, duration, channel):
    n = rng.poisson(rate * duration)
    return TimestampStream(np.sort(rng.uniform(0.0, duration, n)), channel, duration)


def test_single_pair_lands_in_bin_five():
    a = TimestampStream(np.array([0.0]), 1, 1.0)
    b = TimestampStream(np.array([5e-9]), 2, 1.0)
    h = correlate(a, b, 1e-9, 10e-9)
    assert h.counts.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]


def test_empty_streams():
    a = TimestampStream(np.array([]), 1, 1.0)
    b = TimestampStream(np.array([]), 2, 1.0)
    h = correlate(a, b, 1e-9, 10e-9)
    assert h.counts.sum() == 0
    assert h.n_bins == 10


def test_window_and_zero_lag_edges():
    a = TimestampStream(np.array([1.0e-6]), 1, 1.0)
    # stops: one at zero lag, one inside, one exactly at the window edge
    b = TimestampStream(np.array([1.0e-6, 1.5e-6, 2.0e-6]), 2, 1.0)
    h = correlate(a, b, 0.25e-6, 1.0e-6)
    assert h.counts.tolist() == [1, 0, 1, 0]


def test_brute_force_parity_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(20):
        na, nb = rng.integers(0, 2000, 2)
        duration = 1.0
        a = TimestampStream(np.sort(rng.uniform(0, duration, na)), 1, duration)
        b = TimestampStream(np.sort(rng.uniform(0, duration, nb)), 2, duration)
        bin_width = rng.uniform(1e-4, 5e-3)
        window = bin_width * rng.integers(2, 200)
        h = correlate(a, b, bin_width, window)
        assert np.array_equal(h.counts, brute_force_counts(a.times, b.times, bin_width, window))


def test_partition_merge_bit_identical():
    rng = np.random.default_rng(17)
    duration = 2.0
    a = TimestampStream(np.sort(rng.uniform(0, duration, 5000)), 1, duration)
    b = TimestampStream(np.sort(rng.uniform(0, duration, 5000)), 2, duration)
    whole = correlate(a, b, 1e-4, 2e-2)
    cuts = [0, 1200, 1201, 4999, 5000]
    parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = TimestampStream(a.times[lo:hi], 1, duration)
        parts.append(correlate(part, b, 1e-4, 2e-2))
    merged = merge_histograms(parts)
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.rate1 == pytest.approx(whole.rate1, rel=1e-12)
    # an interleaved (odd/even) partition of the starts also merges exactly
    odd = TimestampStream(a.times[1::2], 1, duration)
    even = TimestampStream(a.times[0::2], 1, duration)
    interleaved = merge_histograms(
        [correlate(odd, b, 1e-4, 2e-2), correlate(even, b, 1e-4, 2e-2)]
    )
    assert np.array_equal(interleaved.counts, whole.counts)


def test_merge_rejects_parts_from_different_stop_streams():
    rng = np.random.default_rng(19)
    duration = 1.0
    a = TimestampStream(np.sort(rng.uniform(0, duration, 500)), 1, duration)
    b = TimestampStream(np.sort(rng.uniform(0, duration, 500)), 2, duration)
    other = TimestampStream(np.sort(rng.uniform(0, duration, 700)), 2, duration)
    first = TimestampStream(a.times[:250], 1, duration)
    second = TimestampStream(a.times[250:], 1, duration)
    with pytest.raises(ValueError, match="stop stream"):
        merge_histograms([correlate(first, b, 1e-3, 1e-2), correlate(second, other, 1e-3, 1e-2)])
    merged = merge_histograms([correlate(first, b, 1e-3, 1e-2), correlate(second, b, 1e-3, 1e-2)])
    assert merged.rate2 == b.count / duration


def test_internal_chunking_invariance():
    rng = np.random.default_rng(23)
    duration = 1.0
    a = TimestampStream(np.sort(rng.uniform(0, duration, 3000)), 1, duration)
    b = TimestampStream(np.sort(rng.uniform(0, duration, 3000)), 2, duration)
    with mock.patch.object(correlator_module, "DEFAULT_CHUNK", 64):
        h1 = correlate(a, b, 1e-4, 1e-2)
    with mock.patch.object(correlator_module, "DEFAULT_CHUNK", 1 << 20):
        h2 = correlate(a, b, 1e-4, 1e-2)
    assert np.array_equal(h1.counts, h2.counts)


def test_pair_budget_batching_invariance(monkeypatch):
    # dense workloads are processed in pair-budget batches, and the chunks are
    # shared over one worker per usable CPU; the histogram must depend on
    # neither, and no worker thread may outlive the call
    import microlaser.correlator as mod

    rng = np.random.default_rng(31)
    duration = 1.0
    a = TimestampStream(np.sort(rng.uniform(0, duration, 4000)), 1, duration)
    b = TimestampStream(np.sort(rng.uniform(0, duration, 4000)), 2, duration)
    whole = correlate(a, b, 1e-4, 5e-2)
    assert np.array_equal(whole.counts, brute_force_counts(a.times, b.times, 1e-4, 5e-2))
    monkeypatch.setattr(mod, "PAIR_BATCH", 37)
    tiny = correlate(a, b, 1e-4, 5e-2)
    assert np.array_equal(whole.counts, tiny.counts)
    assert whole.counts.sum() > 500_000  # the workload actually is dense

    shares = []
    share = mod._correlate_share

    def recorded(*args):
        shares.append(args[-3:-1])
        return share(*args)

    monkeypatch.setattr(mod, "_correlate_share", recorded)
    monkeypatch.setattr(mod, "DEFAULT_CHUNK", 64)
    threads = threading.active_count()
    for cpus in (1, 3):
        monkeypatch.setattr(mod, "_usable_cpus", lambda: cpus)
        shares.clear()
        split = correlate(a, b, 1e-4, 5e-2)
        assert sorted(shares) == [(w, cpus) for w in range(cpus)]
        assert threading.active_count() == threads
        assert np.array_equal(whole.counts, split.counts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    unit=st.sampled_from([1e-9, 0.25, 1.0 / 3.0, 7e-7, 0.1]),
    bin_units=st.integers(1, 4),
    n_bins=st.integers(1, 12),
    half_bin=st.booleans(),
    start_ticks=st.lists(st.integers(0, 200), max_size=30),
    stop_ticks=st.lists(st.integers(50, 150), max_size=30),
    edge_stops=st.booleans(),
    chunk_size=st.sampled_from([1, 2, 3, 1 << 13]),
    pair_batch=st.sampled_from([1, 2, 5, 1 << 17]),
    # 0 searches every window, a large value walks every window to its end
    walk_steps=st.sampled_from([0, 1, 2, 1 << 20]),
)
@example(unit=1e-9, bin_units=1, n_bins=3, half_bin=False, start_ticks=[], stop_ticks=[],
         edge_stops=False, chunk_size=1, pair_batch=1, walk_steps=4)
@example(unit=1e-9, bin_units=1, n_bins=3, half_bin=False, start_ticks=[5, 9], stop_ticks=[],
         edge_stops=False, chunk_size=1, pair_batch=1, walk_steps=4)
@example(unit=1e-9, bin_units=1, n_bins=3, half_bin=False, start_ticks=[], stop_ticks=[60],
         edge_stops=False, chunk_size=1, pair_batch=1, walk_steps=4)
@example(unit=1.0 / 3.0, bin_units=3, n_bins=5, half_bin=False,
         start_ticks=[0, 10, 60, 60, 120, 149, 150, 151, 200], stop_ticks=[60, 75, 150],
         edge_stops=True, chunk_size=1, pair_batch=1, walk_steps=4)
# a delay of exactly the reach whose float difference rounds into the last bin,
# found by the right search and by the walk
@example(unit=7e-7, bin_units=1, n_bins=3, half_bin=False, start_ticks=[62], stop_ticks=[],
         edge_stops=True, chunk_size=1, pair_batch=1, walk_steps=0)
@example(unit=7e-7, bin_units=1, n_bins=3, half_bin=False, start_ticks=[62], stop_ticks=[],
         edge_stops=True, chunk_size=1, pair_batch=1, walk_steps=1 << 20)
# one chunk at 15/43 stops per window walks two steps: start 0 has exactly two
# stops in its window, start 20 one more, which the search after the walk finds
@example(unit=1e-9, bin_units=1, n_bins=3, half_bin=False, start_ticks=[0, 20, 40],
         stop_ticks=[0, 2, 20, 21, 22], edge_stops=False, chunk_size=1 << 13, pair_batch=1,
         walk_steps=2)
# both starts are still inside their windows when the chunk's stop slice ends
@example(unit=1e-9, bin_units=1, n_bins=3, half_bin=False, start_ticks=[10, 11],
         stop_ticks=[11, 12], edge_stops=False, chunk_size=1 << 13, pair_batch=1,
         walk_steps=1 << 20)
# chunk [0, 1] meets 2.25 stops per window and skips the walk, chunk [100, 200] walks
@example(unit=1e-9, bin_units=1, n_bins=3, half_bin=False, start_ticks=[0, 1, 100, 200],
         stop_ticks=[0, 1, 2, 101], edge_stops=False, chunk_size=2, pair_batch=1, walk_steps=1)
def test_brute_force_parity_on_a_grid(
    unit, bin_units, n_bins, half_bin, start_ticks, stop_ticks, edge_stops,
    chunk_size, pair_batch, walk_steps,
):
    # Times on a grid of `unit` and bins a whole number of units wide put
    # delays exactly on bin edges; stops copied from starts give zero delay,
    # and edge stops sit at every edge from 0 to one bin past the reach.
    # Starts reach past both ends of the stops, and chunk and pair batch go
    # down to one.
    starts = sorted(start_ticks)
    stops = list(stop_ticks)
    if edge_stops:
        stops += starts
        stops += [s + k * bin_units for s in starts[:5] for k in range(n_bins + 2)]
    duration = 300 * unit
    a = TimestampStream(np.array(starts, dtype=float) * unit, 1, duration)
    b = TimestampStream(np.sort(np.array(stops, dtype=float)) * unit, 2, duration)
    bin_width = bin_units * unit
    window = (n_bins + 0.5 * half_bin) * bin_width
    with mock.patch.multiple(correlator_module, DEFAULT_CHUNK=chunk_size, PAIR_BATCH=pair_batch,
                             WALK_STEPS=walk_steps):
        h = correlate(a, b, bin_width, window)
    assert np.array_equal(h.counts, brute_force_counts(a.times, b.times, bin_width, window))


@pytest.mark.parametrize("cpus", [1, 2])
def test_brute_force_parity_at_one_stop_per_start(monkeypatch, cpus):
    # About one stop per window: every chunk walks, and the few starts with
    # more stops than the walk's steps go on to the search.
    rng = np.random.default_rng(808)
    a = poisson_stream(rng, 20e3, 1.0, 1)
    b = poisson_stream(rng, 20e3, 1.0, 2)
    bin_width, window = 1e-6, 50e-6
    monkeypatch.setattr(correlator_module, "_usable_cpus", lambda: cpus)
    walk = correlator_module._walk
    left = []  # starts still inside their window after each chunk's walk

    def counted(*args):
        s, lo = walk(*args)
        left.append(s.size)
        return s, lo

    monkeypatch.setattr(correlator_module, "_walk", counted)
    h = correlate(a, b, bin_width, window)
    assert np.array_equal(h.counts, brute_force_counts(a.times, b.times, bin_width, window))
    assert len(left) == -(-a.count // correlator_module.DEFAULT_CHUNK)
    assert 0 < sum(left) < a.count // 20


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    origin=st.sampled_from([0.0, 1.0, 1e300]),
    # subnormal, ordinary and very large spans; 1e-9 on 1e300 makes every time equal
    unit=st.sampled_from([5e-324, 1e-310, 1e-9, 0.1, 1e300]),
    stop_ticks=st.lists(st.integers(0, 60), min_size=1, max_size=90),
    start_ticks=st.lists(st.integers(0, 60), min_size=1, max_size=30),
    # one stop far past the rest crowds them into the first cell
    far_stop=st.booleans(),
)
# a burst of stops below start 1 in the first cell: it exhausts the steps forward
@example(origin=0.0, unit=1.0, stop_ticks=[0] * 30, start_ticks=[0, 1], far_stop=True)
# 90 stops for 2 starts: denser than the index takes
@example(origin=0.0, unit=1.0, stop_ticks=list(range(90)), start_ticks=[0, 45],
         far_stop=False)
# all times equal: span 0
@example(origin=1.0, unit=5e-324, stop_ticks=[0, 1, 2], start_ticks=[0, 1],
         far_stop=False)
def test_bucket_search_is_a_left_search(origin, unit, stop_ticks, start_ticks, far_stop):
    ticks = sorted(stop_ticks) + [10**6] * far_stop
    near = origin + np.array(ticks, dtype=float) * unit
    s = np.sort(origin + np.array(start_ticks, dtype=float) * unit)
    # as in a chunk: the stop slice begins at the first start, and the starts
    # past its last stop are cut off
    near = near[near >= s[0]]
    assume(near.size)
    s = s[s <= near[-1]]
    lo = correlator_module._first_stops(near, s, correlator_module._Scratch())
    assert np.array_equal(lo, np.searchsorted(near, s, side="left"))


def test_bucket_search_searches_only_the_starts_it_cannot_step_to(monkeypatch):
    searched = []
    search = np.searchsorted

    def spy(a, v, side="left"):
        searched.append(np.size(v))
        return search(a, v, side=side)

    monkeypatch.setattr(correlator_module.np, "searchsorted", spy)
    rng = np.random.default_rng(61)
    near = np.sort(rng.uniform(0.0, 1.0, 5000))
    s = np.sort(rng.uniform(0.0, near[-1], 4000))
    s[0] = 0.0
    lo = correlator_module._first_stops(near, s, correlator_module._Scratch())
    assert np.array_equal(lo, search(near, s, side="left"))
    assert sum(searched) < s.size // 20  # at about one stop per cell, few need 3 steps
    # 3,000 stops inside 1e-6 and one 1 s later fill one cell: every start past
    # the third stop of the burst is searched
    near = np.append(np.sort(rng.uniform(0.0, 1e-6, 3000)), 1.0)
    s = np.sort(rng.uniform(0.0, 1e-6, 3000))
    s[0] = 0.0
    searched.clear()
    lo = correlator_module._first_stops(near, s, correlator_module._Scratch())
    assert np.array_equal(lo, search(near, s, side="left"))
    assert sum(searched) == np.count_nonzero(lo > 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_brute_force_parity_on_bursts(monkeypatch, cpus):
    # Each of two chunks holds a burst of starts and 30,000 stops inside 1 us,
    # then one start and one stop 1 s later. The index puts a burst in one
    # cell, so its starts run out of steps forward and are searched.
    rng = np.random.default_rng(97)
    n = correlator_module.DEFAULT_CHUNK - 1
    starts, stops = [], []
    for t in (0.5, 3.0):
        starts += [np.sort(rng.uniform(t, t + 1e-6, n)), [t + 1.0]]
        stops += [np.sort(rng.uniform(t, t + 1e-6, 30_000)), [t + 1.0]]
    a = TimestampStream(np.concatenate(starts), 1, 5.0)
    b = TimestampStream(np.concatenate(stops), 2, 5.0)
    monkeypatch.setattr(correlator_module, "_usable_cpus", lambda: cpus)
    h = correlate(a, b, 1e-12, 1e-10)
    assert np.array_equal(h.counts, brute_force_counts(a.times, b.times, 1e-12, 1e-10))
    assert h.counts.sum() > 100_000


def test_correlate_refuses_more_than_max_bins():
    a = TimestampStream(np.array([0.0, 1e-6]), 1, 1.0)
    b = TimestampStream(np.array([0.0]), 2, 1.0)
    max_bins = correlator_module.MAX_BINS
    assert correlate(a, b, 1e-9, max_bins * 1e-9).n_bins == max_bins
    # one bin more, a ratio past any count, and a subnormal bin width
    for bin_width, window in ((1e-9, (max_bins + 1) * 1e-9), (1e-300, 1.0), (5e-324, 1e-6)):
        with pytest.raises(ValueError, match=f"more than {max_bins} bins"):
            correlate(a, b, bin_width, window)


def test_correlate_validation():
    a = TimestampStream(np.array([0.0, 1e-6]), 1, 1.0)
    b = TimestampStream(np.array([0.0]), 2, 2.0)
    with pytest.raises(ValueError):
        correlate(a, b, 1e-9, 1e-6)  # mismatched durations
    b = TimestampStream(np.array([0.0]), 2, 1.0)
    with pytest.raises(ValueError):
        correlate(a, b, 0.0, 1e-6)
    with pytest.raises(ValueError):
        correlate(a, b, 1e-6, 1e-9)
    # non-finite sizes are named, not left to fail in the bin count
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="bin_width"):
            correlate(a, b, bad, 1e-6)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="window"):
            correlate(a, b, 1e-9, bad)
    # a zero duration is rejected before any start is correlated
    a = TimestampStream(np.array([0.0, 0.0]), 1, 0.0)
    b = TimestampStream(np.array([0.0]), 2, 0.0)
    with mock.patch.object(correlator_module, "_correlate_share", side_effect=AssertionError):
        with pytest.raises(ValueError, match="positive duration"):
            correlate(a, b, 1e-9, 1e-6)


@pytest.mark.parametrize(
    "text, cpus",
    [("max 100000", None), ("150000 100000\n", 2), ("50000 100000", 1), ("200000 100000", 2),
     ("", None), ("max", None), ("0 100000", None), ("100000 0", None), ("1 2 3", None),
     ("x 100000", None), ("\x00\xff", None)],
)
def test_quota_cpus(text, cpus):
    assert correlator_module._quota_cpus(text) == cpus


def test_usable_cpus_respects_the_cpu_quota(monkeypatch, tmp_path):
    monkeypatch.setattr(correlator_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(correlator_module, "CGROUP_CPU_MAX", str(cpu_max))
    assert correlator_module._usable_cpus() == 4  # no file
    for text, cpus in (("150000 100000\n", 2), ("800000 100000\n", 4),
                       ("max 100000\n", 4), ("garbage\n", 4)):
        cpu_max.write_text(text)
        assert correlator_module._usable_cpus() == cpus
    cpu_max.write_bytes(b"\xff\xfe 1\n")  # not text
    assert correlator_module._usable_cpus() == 4
    monkeypatch.setattr(correlator_module, "CGROUP_CPU_MAX", str(tmp_path))  # unreadable
    assert correlator_module._usable_cpus() == 4


@pytest.mark.parametrize("failing", [0, 1])
def test_failing_share_stops_the_other_workers(monkeypatch, failing):
    # when one share raises, the other stops at its next chunk and correlate
    # raises the error once every worker has returned
    rng = np.random.default_rng(43)
    a = TimestampStream(np.sort(rng.uniform(0, 1.0, 4000)), 1, 1.0)
    b = TimestampStream(np.sort(rng.uniform(0, 1.0, 4000)), 2, 1.0)
    monkeypatch.setattr(correlator_module, "_usable_cpus", lambda: 2)
    share = correlator_module._correlate_share
    others = []

    def fail_or_wait(*args):
        worker, stop = args[-3], args[-1]
        if worker == failing:
            raise RuntimeError(f"share {worker}")
        assert stop.wait(timeout=10)
        others.append(share(*args))
        return others[-1]

    monkeypatch.setattr(correlator_module, "_correlate_share", fail_or_wait)
    monkeypatch.setattr(correlator_module, "DEFAULT_CHUNK", 64)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"share {failing}"):
        correlate(a, b, 1e-4, 5e-2)
    assert len(others) == 1 and others[0].sum() == 0
    assert threading.active_count() == threads


def test_poisson_baseline_and_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(314)
    rate, duration = 100e3, 10.0
    a = poisson_stream(rng, rate, duration, 1)
    b = poisson_stream(rng, rate, duration, 2)
    bin_width, window = 1e-6, 100e-6
    h = correlate(a, b, bin_width, window)
    expected = h.rate1 * h.rate2 * bin_width * h.t_acq
    # uncorrelated streams: every bin consistent with the analytic baseline
    chi2 = float(((h.counts - expected) ** 2 / expected).sum())
    p_value = scipy_stats.chi2.sf(chi2, h.n_bins)
    assert p_value > 1e-4
    est = normalize(h)
    mean_g2 = est.g2.mean()
    sigma_mean = est.sigma.mean() / math.sqrt(est.g2.size)
    assert abs(mean_g2 - 1.0) < 3.0 * sigma_mean


def test_normalize_trivials():
    # binary bin width and rates: the baseline 2048 * 1024 * bin_width * (t_acq - tau)
    # of each bin is an exact integer, 2 * 1024 * t_acq - 2 i - 1
    bin_width = 2.0**-10
    tau = (np.arange(8) + 0.5) * bin_width
    for t_acq in (10.0, 20.0):
        baseline = 2048.0 * 1024.0 * bin_width * (t_acq - tau)
        counts = baseline.astype(np.int64)
        assert np.array_equal(counts, baseline)
        h = CorrelationHistogram(
            bin_width=bin_width, window=8 * bin_width, counts=counts,
            rate1=2048.0, rate2=1024.0, t_acq=t_acq,
        )
        est = normalize(h)
        # counts that follow the baseline give g2 = 1 at any acquisition time
        assert np.all(est.g2 == 1.0)
        assert np.all(est.sigma == pytest.approx(1.0 / np.sqrt(counts), rel=1e-12))
        assert est.tau.tolist() == [(i + 0.5) * bin_width for i in range(8)]
        assert est.normalization == 2048.0 * 1024.0 * bin_width * t_acq


def test_normalize_refuses_a_zero_rate():
    counts = np.array([30, 20, 10, 10, 10, 10, 10, 10], dtype=np.int64)
    h = CorrelationHistogram(
        bin_width=1e-3, window=8e-3, counts=counts,
        rate1=0.0, rate2=10.0, t_acq=10.0,
    )
    with pytest.raises(NormalizationError):
        normalize(h)


def _reference_estimate(h, counts, copies):
    """g2, sigma, counts and normalization of ``counts``, the sum of ``copies``
    histograms like ``h``: copies * rate1 * rate2 * bin_width * (t_acq - tau)
    per bin, multiplied left to right, and its value at tau = 0."""
    baseline = copies * h.rate1 * h.rate2 * h.bin_width * (h.t_acq - h.tau_centers)
    normalization = copies * h.rate1 * h.rate2 * h.bin_width * h.t_acq
    c = counts.astype(float)
    return c / baseline, np.sqrt(c) / baseline, counts, normalization


def _assert_estimate_is(est, reference):
    g2, sigma, counts, normalization = reference
    assert np.array_equal(est.g2, g2)
    assert np.array_equal(est.sigma, sigma)
    assert np.array_equal(est.counts, counts) and est.counts.dtype == np.int64
    assert est.normalization == normalization


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_estimates_match_reference_bits(seed):
    rng = np.random.default_rng(seed)
    duration = rng.uniform(0.5, 3.0)
    a = poisson_stream(rng, rng.uniform(1e3, 5e4), duration, 1)
    b = poisson_stream(rng, rng.uniform(1e3, 5e4), duration, 2)
    bin_width, window = rng.uniform(1e-6, 4e-6), rng.uniform(2e-4, 6e-4)
    h = correlate(a, b, bin_width, window)
    _assert_estimate_is(normalize(h), _reference_estimate(h, h.counts, 1.0))
    h_ba = correlate(b, a, bin_width, window)
    _assert_estimate_is(
        g2_symmetric(a, b, bin_width, window), _reference_estimate(h, h.counts + h_ba.counts, 2.0)
    )


def test_uncorrelated_estimate_has_no_tilt():
    # a window of half the run: with the baseline R1 R2 dtau T at every delay,
    # g2 of uncorrelated streams would fall as 1 - tau / T. Bins share starts
    # and stops, so the slope's error is taken from its spread over 20 seeds.
    duration, slopes = 1.0, []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = poisson_stream(rng, 1e3, duration, 1)
        b = poisson_stream(rng, 1e3, duration, 2)
        est = normalize(correlate(a, b, 5e-3, duration / 2))
        slopes.append(np.polyfit(est.tau, est.g2, 1)[0])
    mean, sem = np.mean(slopes), np.std(slopes, ddof=1) / math.sqrt(len(slopes))
    assert sem < 0.05 / duration
    assert abs(mean) <= 3.0 * sem


def test_window_reaching_the_end_of_the_run_is_refused():
    # the last bin's centre, (n_bins - 1/2) * bin_width, at or past t_acq
    for window, t_acq in ((8e-3, 7.5e-3), (8e-3, 7e-3), (1e-3, 0.5e-3)):
        h = CorrelationHistogram(
            bin_width=1e-3, window=window, counts=np.ones(round(window / 1e-3), dtype=np.int64),
            rate1=1e3, rate2=1e3, t_acq=t_acq,
        )
        with pytest.raises(NormalizationError, match="reaches the end of the"):
            normalize(h)
    h = CorrelationHistogram(
        bin_width=1e-3, window=8e-3, counts=np.ones(8, dtype=np.int64),
        rate1=1e3, rate2=1e3, t_acq=np.nextafter(7.5e-3, 1.0),
    )
    assert np.all(normalize(h).g2 > 0.0)
    a = TimestampStream(np.array([0.1, 0.2]), 1, 0.25)
    with pytest.raises(NormalizationError, match="reaches the end of the"):
        g2_symmetric(a, a, 1e-2, 0.3)


def test_symmetric_rejects_a_silent_channel():
    a = TimestampStream(np.array([0.1, 0.2]), 1, 1.0)
    b = TimestampStream(np.empty(0), 2, 1.0)
    with pytest.raises(NormalizationError, match="zero rate"):
        g2_symmetric(a, b, 1e-3, 1e-2)


def test_statistical_calibration_ks():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2718)
    rate, duration = 50e3, 40.0
    a = poisson_stream(rng, rate, duration, 1)
    b = poisson_stream(rng, rate, duration, 2)
    h = correlate(a, b, 2e-6, 600e-6)
    est = normalize(h)
    z = (est.g2 - 1.0) / est.sigma
    result = scipy_stats.kstest(z, "norm")
    assert result.pvalue > 1e-4


def test_shot_noise_formula():
    assert shot_noise_rms(1e5, 1e5, 1e-6, 10.0) == pytest.approx(
        1.0 / math.sqrt(1e5 * 1e5 * 1e-6 * 10.0), rel=1e-12
    )
    base = shot_noise_rms(3e6, 3e6, 20e-9, 300.0)
    assert shot_noise_rms(3e6, 3e6, 20e-9, 1200.0) == pytest.approx(base / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        shot_noise_rms(0.0, 1e6, 1e-9, 1.0)


def test_shot_noise_inversion_matches_published_floor():
    # 0.00013 rms at 3 MHz on both detectors over 300 s implies a bin width
    # in the low tens of nanoseconds (the instrument's scale is not quoted)
    rms, rate, t_acq = 0.00013, 3e6, 300.0
    bin_width = 1.0 / (rms**2 * rate * rate * t_acq)
    assert 15e-9 <= bin_width <= 30e-9
    assert shot_noise_rms(rate, rate, bin_width, t_acq) == pytest.approx(rms, rel=1e-12)


def test_fit_exponential_from_estimate():
    # counts drawn from the model around a healthy baseline
    rng = np.random.default_rng(42)
    n_bins, bin_width = 400, 20e-9
    tau = (np.arange(n_bins) + 0.5) * bin_width
    baseline = 20_000.0
    c0_true, tau_true = 0.05, 1.2e-6
    lam = baseline * (1.0 + c0_true * np.exp(-tau / tau_true))
    counts = rng.poisson(lam).astype(np.int64)
    h = CorrelationHistogram(
        bin_width=bin_width, window=n_bins * bin_width, counts=counts,
        rate1=1e6, rate2=1e6, t_acq=baseline / (1e6 * 1e6 * bin_width),
    )
    est = normalize(h)
    fit = fit_exponential(est)
    assert fit.c0 == pytest.approx(c0_true, abs=4.0 * fit.c0_sigma)
    assert fit.tau_c == pytest.approx(tau_true, abs=4.0 * fit.tau_c_sigma)
    assert 0.5 < fit.chi2_reduced < 1.5


def test_fit_excludes_first_bin_and_empty_bins():
    n_bins, bin_width = 50, 1e-6
    counts = np.full(n_bins, 1000, dtype=np.int64)
    counts[0] = 999_999  # detector artifact at zero lag
    counts[5] = 0
    h = CorrelationHistogram(
        bin_width=bin_width, window=n_bins * bin_width, counts=counts,
        rate1=1e3, rate2=1e3, t_acq=1000.0,
    )
    est = normalize(h)
    fit = fit_exponential(est)
    assert fit.flat  # artifact bin dropped, remainder is flat
    assert fit.n_points == n_bins - 2


def test_fit_needs_enough_usable_bins():
    counts = np.zeros(20, dtype=np.int64)
    counts[:5] = 100
    h = CorrelationHistogram(
        bin_width=1e-6, window=20e-6, counts=counts,
        rate1=1e3, rate2=1e3, t_acq=100.0,
    )
    with pytest.raises(ValueError):
        fit_exponential(normalize(h))


def test_symmetric_estimate_halves_variance():
    rng = np.random.default_rng(55)
    duration = 20.0
    a = poisson_stream(rng, 1e5, duration, 1)
    b = poisson_stream(rng, 1e5, duration, 2)
    sym = g2_symmetric(a, b, 1e-6, 100e-6)
    one = normalize(correlate(a, b, 1e-6, 100e-6))
    assert sym.sigma.mean() < one.sigma.mean() / 1.2  # ~ 1/sqrt(2)
    assert abs(sym.g2.mean() - 1.0) < 4.0 * sym.sigma.mean() / math.sqrt(sym.g2.size)


def test_fit_recovers_theory_bunching_curve(published_cfg, published_dist):
    # Histogram counts drawn around the near-threshold theory curve: the fit
    # must land on the curve's own exponential summary within its covariance.
    from microlaser.quantum import g2_regression, q_and_tau_from_g2, steady_state

    cfg = published_cfg.with_n_atoms(12.0)
    p = steady_state(cfg, published_dist)
    n_bins, bin_width = 300, 50e-9
    tau = (np.arange(n_bins) + 0.5) * bin_width
    curve = g2_regression(cfg, published_dist, tau_grid=tau)
    reference = q_and_tau_from_g2(
        g2_regression(cfg, published_dist, tau_grid=np.linspace(0, 5 / cfg.gamma_c, 200)),
        p.mean,
    )
    baseline = 3e5
    rng = np.random.default_rng(272)
    counts = rng.poisson(baseline * curve.values).astype(np.int64)
    h = CorrelationHistogram(
        bin_width=bin_width, window=n_bins * bin_width, counts=counts,
        rate1=1e6, rate2=1e6, t_acq=baseline / (1e6 * 1e6 * bin_width),
    )
    fit = fit_exponential(normalize(h))
    assert fit.c0 > 0.0  # bunching regime
    assert fit.c0 == pytest.approx(reference.c0, abs=4.0 * fit.c0_sigma)
    assert fit.tau_c == pytest.approx(reference.tau_c, abs=4.0 * fit.tau_c_sigma)


def test_estimate_q_published_point():
    from microlaser.fitting import ExpFit

    fit = ExpFit(c0=-0.00026, tau_c=None, cov=None, chi2_reduced=1.0,
                 n_points=100, iterations=3)
    q = estimate_q(fit, 500.0, gamma_c=2 * math.pi * 150e3)
    assert q.q_from_c0 == pytest.approx(-0.13, rel=1e-9)
    assert q.q_from_tau is None

    gamma_c = 2 * math.pi * 150e3
    fit = ExpFit(c0=0.0, tau_c=1.0 / gamma_c, cov=None, chi2_reduced=1.0,
                 n_points=100, iterations=3)
    q = estimate_q(fit, 500.0, gamma_c)
    assert q.q_from_c0 == 0.0
    assert q.q_from_tau == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_q(fit, 0.0, gamma_c)
