"""Stochastic jump-process simulation of the microlaser: the synthetic experiment.

The intracavity photon number is a birth-death jump chain. Excited atoms
arrive as a Poisson process at rate r = <N>/t_int(v0), and an atom meeting n
photons leaves one behind with the velocity-averaged probability
beta_bar_{n+1}; by Poisson thinning the emissions alone are a Poisson process
of rate r * beta_bar_{n+1}, so the chain steps up at that rate and down at
Gamma_c * n. Waiting times are sampled exactly (no tau-leaping), with the
random numbers drawn in fixed blocks. As in Gillespie's direct method
(J. Phys. Chem. 81, 2340 (1977)) the embedded jump chain decides the states
and the holding times are drawn separately, so the two are split. The
states are walked first, one step per uniform, and numpy then clocks those
steps as a running sum of exponential holding times and cuts them at the end
of the run (or raises if the chain reached the basis truncation before it).
A list comprehension walks the first block of uniforms, a few thousand at a
time. A later block is walked in lanes where the chain forgets its start
within a short warm-up, one numpy step per step index for all lanes at once.
This is the monotone coupling behind Propp and Wilson's coupling from the
past (Random Struct. Algorithms 9, 223 (1996)): two paths on the same
uniforms, started at either end of the band of states held in the block
before, meet, and then every start in between has met them. So a lane whose
two paths meet before it begins holds the chain's own states, once the
chain's state at the warm-up start, read off an earlier lane, lies in the
band. Every other lane, and every block where the chain mixes slowly (as at
the published point), keeps the list comprehension, and the states are those
of the one-step walk bit for bit. A chunk keeps only what the record reports:
the times of its decays, its jump count, and the time spent in each state,
added step by step to one occupancy vector. Every jump's time and state are
kept only when the photon-number path is asked for. Each decay is then a
detection with the configured efficiency and routed to one of two detector
channels.
The atoms that pass without emitting are the complementary thinning, a
Poisson count with mean equal to the integral of r * (1 - beta_bar_{n(t)+1})
over the run, so ``atoms_injected`` keeps the Poisson(r T) law of the arrivals.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .core import MicrolaserConfig, VelocityDistribution, injection_rate
from .errors import TruncationError
from .quantum import PhotonDistribution, build_generator, effective_n_max, steady_state
from .streams import TimestampStream

DEFAULT_BURN_IN_LIFETIMES = 20.0
# Exponential and uniform variates are drawn this many at a time.
RANDOM_BLOCK = 65536
# The chain is walked this many steps at a time, then clocked with numpy.
WALK_CHUNK = 8192
# A block walked in lanes takes LANE steps per lane, each lane warmed up from
# WARM steps before it (both even). Lanes are tried only where WARM times the
# drop of p_up across the state held longest in the block before reaches MIXING.
LANE = 128
WARM = 128
MIXING = 4.0


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated run: sample path, detector streams, and bookkeeping."""

    seed: int
    config: MicrolaserConfig
    duration: float
    n_basis: int
    initial_n: int
    final_n: int
    path_times: np.ndarray | None
    path_values: np.ndarray | None
    stream1: TimestampStream
    stream2: TimestampStream
    atoms_injected: int
    emissions: int
    decays: int
    detections: int


def simulate(
    cfg: MicrolaserConfig,
    dist: VelocityDistribution,
    duration: float,
    seed: int,
    initial_n: int | None = None,
    record_path: bool = True,
) -> TrajectoryRecord:
    """Exact continuous-time simulation over ``duration`` seconds.

    ``initial_n=None`` draws the starting photon number from the quantum
    steady state, which makes short runs burn-in free; passing an integer
    gives a cold start that is independent of the theory module. All
    randomness comes from one seeded 64-bit generator, so identical
    (seed, config, duration) reproduce identical output.

    Memory grows with the decays, not with the jumps: a run holds 8 bytes
    per decay while it walks, plus the states of one block of RANDOM_BLOCK
    steps (512 kB) where it walks in lanes. Its traced peak, both streams
    included, is about 11 bytes per jump (22 per decay) on the scaled config.
    ``record_path=True`` also keeps each jump's time (float64) and state
    (int64), for a peak of about 28 bytes per jump.
    """
    if not (np.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    rng = np.random.default_rng(seed)

    if initial_n is None:
        p0 = steady_state(cfg, dist)
        n_basis = p0.n_max
        cdf = np.cumsum(p0.probabilities)
        n = int(np.searchsorted(cdf, rng.random(), side="right"))
        n = min(n, n_basis)
    else:
        if initial_n < 0:
            raise ValueError(f"initial_n must be >= 0, got {initial_n}")
        n_basis = effective_n_max(cfg)
        if initial_n > n_basis:
            raise TruncationError(
                f"initial_n={initial_n} exceeds basis truncation n_max={n_basis}"
            )
        n = initial_n

    # The rates of the number-basis theory, birth[k] = r * beta_bar_{k+1}: k
    # runs to n_basis because a start at n_basis is allowed (it raises on its
    # first emission).
    gen = build_generator(cfg, dist, n_basis + 1)
    birth = gen.birth[:-1]
    total = -gen.diag[:-1]
    # A state with no way out (n = 0 without pump) waits forever: its mean
    # wait is inf, so the clock passes the end of the run.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_wait = 1.0 / total
        p_up = np.where(total > 0.0, birth / total, 0.0)
    # Two sentinel states keep every index of the walk in range, and neither
    # reaches the output. n_basis + 1 follows only a step that truncates and
    # always steps down; -1 (the last entry) follows only an unpumped n = 0,
    # after an infinite wait, and always steps up.
    p_up = [*p_up.tolist(), 0.0, 1.0]
    mean_wait = np.append(mean_wait, [0.0, 0.0])

    initial = n
    t = 0.0
    jumps = 0
    decay_times = array("d")
    occupancy = np.zeros(n_basis + 1)
    times = array("d", [0.0]) if record_path else None
    values = array("q", [n]) if record_path else None
    lo = RANDOM_BLOCK
    seen = None
    while True:
        if lo >= RANDOM_BLOCK:
            exps = rng.standard_exponential(RANDOM_BLOCK)
            unis = rng.random(RANDOM_BLOCK)
            lo = 0
            block = None
            if seen is not None:
                # The previous block's share of the occupancy: the lowest and
                # highest state it held bound the band, and the drop of p_up
                # across the state it held longest says how fast paths meet.
                held = occupancy - seen
                m = int(held.argmax())
                if held[m] > 0.0 and WARM * (p_up[m - 1] - p_up[m + 1]) >= MIXING:
                    visited = np.flatnonzero(held)
                    block = _walk_lanes(unis, n, p_up, int(visited[0]), int(visited[-1]))
            seen = occupancy.copy()
        hi = lo + WALK_CHUNK
        start = n
        after = block[lo:hi] if block is not None else _walk_steps(unis[lo:hi], n, p_up)
        n = int(after[-1])
        before = np.concatenate(([start], after[:-1]))
        # The clock: event times as one running sum from t.
        with np.errstate(invalid="ignore"):  # inf * 0 = nan ends the run too
            clock = exps[lo:hi] * mean_wait[before]
        clock[0] += t
        np.cumsum(clock, out=clock)
        past = np.flatnonzero(~(clock < duration))
        end = int(past[0]) if past.size else clock.size
        top = np.flatnonzero(after >= n_basis)
        if top.size and top[0] < end:
            raise TruncationError(
                f"photon number reached the basis truncation n_max={n_basis} "
                f"at t={clock[top[0]]:.3e} s; raise n_max"
            )
        # Time spent in each state, summed in the order of one bincount over
        # the whole path, so the atom count keeps its bits.
        held, event_t = before[:end], clock[:end]
        np.add.at(occupancy, held, np.diff(event_t, prepend=t))
        decay_times.frombytes(event_t[after[:end] < held].tobytes())
        jumps += end
        if record_path:
            times.frombytes(event_t.tobytes())
            values.frombytes(after[:end].tobytes())
        if end:
            t = event_t[-1]
        if end < clock.size:
            n = int(before[end])
            break
        lo = hi
    occupancy[n] += duration - t

    decay_t = np.frombuffer(decay_times)
    decays = decay_t.size
    emissions = jumps - decays
    # Thin and route in RANDOM_BLOCK pieces: the uniforms are the same as one
    # draw of each size. The kept decays move to the front of decay_t in place.
    detections = 0
    for begin in range(0, decays, RANDOM_BLOCK):
        part = decay_t[begin : begin + RANDOM_BLOCK]
        kept = part[rng.random(part.size) < cfg.detection_efficiency]
        decay_t[detections : detections + kept.size] = kept
        detections += kept.size
    detected = decay_t[:detections]
    to_ch1 = np.empty(detections, dtype=bool)
    for begin in range(0, detections, RANDOM_BLOCK):
        part = to_ch1[begin : begin + RANDOM_BLOCK]
        np.less(rng.random(part.size), cfg.splitter_ratio, out=part)
    stream1 = TimestampStream(detected[to_ch1], channel=1, duration=duration)
    stream2 = TimestampStream(detected[~to_ch1], channel=2, duration=duration)

    # Atoms that leave no photon: Poisson with mean int r (1 - beta_bar_{n+1}) dt.
    passed = rng.poisson(max(float((injection_rate(cfg) - birth) @ occupancy), 0.0))

    return TrajectoryRecord(
        seed=seed,
        config=cfg,
        duration=duration,
        n_basis=n_basis,
        initial_n=initial,
        final_n=n,
        path_times=np.frombuffer(times) if record_path else None,
        path_values=np.frombuffer(values, dtype=np.int64) if record_path else None,
        stream1=stream1,
        stream2=stream2,
        atoms_injected=emissions + int(passed),
        emissions=emissions,
        decays=decays,
        detections=detections,
    )


def _walk_steps(unis: np.ndarray, n: int, p_up: list) -> np.ndarray:
    """The embedded jump chain from ``n``, one step per uniform: the states after each step.

    The memoryview hands out the uniforms as floats without building a list.
    """
    return np.frombuffer(
        array("q", [n := n + 1 if u < p_up[n] else n - 1 for u in memoryview(unis)]),
        dtype=np.int64,
    )


def _walk_lanes(unis: np.ndarray, n: int, p_up: list, low: int, high: int) -> np.ndarray:
    """The states of ``_walk_steps(unis, n, p_up)``, walked as lanes of LANE steps.

    All paths share the uniforms, and two paths of one parity keep their order:
    for n < n' both even or both odd, f(n) <= n + 1 <= n' - 1 <= f(n'). Every
    lane that starts at least WARM steps into ``unis`` is also walked from
    WARM steps before it, twice: from the lowest and from the highest state in
    [low, high] of the chain's parity there. These lanes take one numpy step
    per step index. If the two paths have met when the lane begins, so has
    every path between them, and the lane holds the chain's own states
    provided the chain was in the band when the warm-up began; that state is
    read off an earlier lane. The other lanes are walked by ``_walk_steps``,
    in order. ``unis.size`` is a multiple of LANE.
    """
    lanes = unis.size // LANE
    first = min(-(-WARM // LANE), lanes)
    out = np.empty(unis.size, dtype=np.int64)
    grid = out.reshape(lanes, LANE)
    grid[:first] = _walk_steps(unis[: first * LANE], n, p_up).reshape(first, LANE)
    # The chain's parity at every warm-up start is that of n, as LANE and WARM
    # are even; the sentinels bound the states to [-1, n_basis + 1].
    low = max(low, -1)
    low += (low - n) & 1
    high = min(high, len(p_up) - 2)
    high -= (high - n) & 1
    met = np.zeros(lanes - first, dtype=bool)
    bad = np.arange(lanes) >= first
    if met.size and low <= high:
        # After k steps a path keeps c = (state + k + off) / 2, which grows by
        # one per step up. table[pad + 1 + s] is p_up[s], so p_up[state] is
        # table[d + 2 c] with d = pad + 1 - off - k: element c of a slice of
        # the half of the table of d's parity. No index leaves the table, so
        # mode="clip" only skips the bounds check.
        steps = WARM + LANE
        off = 2 - (n & 1)
        pad = steps + 1
        table = np.concatenate((np.zeros(pad), [p_up[-1]], p_up[:-1]))
        halves = (table[0::2].copy(), table[1::2].copy())
        rows = np.lib.stride_tricks.sliding_window_view(unis, steps)[first * LANE - WARM :: LANE]
        count = np.array([[(low + off) // 2], [(high + off) // 2]]).repeat(rows.shape[0], axis=1)
        p = np.empty(count.shape)
        up = np.empty(count.shape, dtype=bool)
        for k in range(WARM):
            d = pad + 1 - off - k
            halves[d & 1][d >> 1 :].take(count, out=p, mode="clip")
            np.less(rows[:, k], p, out=up)
            count += up
        met = count[0] == count[1]
        # The lower path goes on through the lane, its counters kept in place.
        lane = grid[first:]
        c, p, up = count[0], p[0], up[0]
        for i in range(LANE):
            d = pad + 1 - off - WARM - i
            halves[d & 1][d >> 1 :].take(c, out=p, mode="clip")
            np.less(rows[:, WARM + i], p, out=up)
            c = np.add(c, up, out=lane[:, i])
        lane *= 2
        lane -= np.arange(WARM + 1, steps + 1) + off
        entry = np.arange(first, lanes) * LANE - WARM - 1
        state = np.where(entry < 0, n, out[entry])
        bad[first:] = ~(met & (low <= state) & (state <= high))
    # Walk the lanes that are not certified, in order. Each one fixes the
    # entry state of the lane that warms up from it, which is checked again.
    lag = -(-(WARM + 1) // LANE)
    j = first
    while j < lanes:
        j += int(bad[j:].argmax())
        if not bad[j]:
            break
        grid[j] = _walk_steps(unis[j * LANE : (j + 1) * LANE], int(out[j * LANE - 1]), p_up)
        k = j + lag
        if k < lanes:
            state = out[k * LANE - WARM - 1]
            bad[k] = not (met[k - first] and low <= state <= high)
        j += 1
    return out


def photon_number_histogram(
    rec: TrajectoryRecord, burn_in: float | None = None
) -> PhotonDistribution:
    """Time-weighted occupancy of the photon-number path after burn-in.

    The default burn-in of 20 cavity lifetimes is generous for steady-state
    starts and adequate for cold starts at desk-scale parameters.
    """
    if rec.path_times is None:
        raise ValueError("record carries no photon-number path (record_path=False)")
    if burn_in is None:
        burn_in = DEFAULT_BURN_IN_LIFETIMES / rec.config.gamma_c
    if rec.duration <= burn_in:
        raise ValueError(
            f"duration {rec.duration:g} s does not exceed burn-in {burn_in:g} s"
        )
    edges = np.append(rec.path_times, rec.duration)
    lo = np.clip(edges[:-1], burn_in, rec.duration)
    hi = np.clip(edges[1:], burn_in, rec.duration)
    occupancy = np.bincount(rec.path_values, weights=hi - lo, minlength=rec.n_basis + 1)
    return PhotonDistribution.from_weights(occupancy)


def total_variation_distance(p: PhotonDistribution, q: PhotonDistribution) -> float:
    """TV distance between two photon distributions, padding the shorter."""
    size = max(p.probabilities.size, q.probabilities.size)
    a = np.zeros(size)
    b = np.zeros(size)
    a[: p.probabilities.size] = p.probabilities
    b[: q.probabilities.size] = q.probabilities
    return 0.5 * float(np.abs(a - b).sum())
