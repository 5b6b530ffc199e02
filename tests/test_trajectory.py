import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microlaser.core import (
    TWO_PI,
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta_table,
    injection_rate,
    interaction_time,
)
from microlaser.errors import TruncationError
from microlaser.quantum import effective_n_max, steady_state
from microlaser.semiclassical import find_fixed_points
from microlaser import trajectory
from microlaser.trajectory import (
    RANDOM_BLOCK,
    _walk_lanes,
    _walk_steps,
    photon_number_histogram,
    simulate,
    total_variation_distance,
)

from conftest import PUBLISHED_KWARGS, SCALED_KWARGS, random_config


def test_pure_death_process(scaled_cfg, scaled_dist):
    cfg = scaled_cfg.with_n_atoms(0.0)
    k = 40
    duration = 30.0 * k / cfg.gamma_c
    rec = simulate(cfg, scaled_dist, duration, seed=1, initial_n=k)
    assert rec.final_n == 0
    assert rec.decays == k
    assert rec.atoms_injected == 0
    assert rec.emissions == 0
    assert rec.detections <= rec.decays


def test_pure_death_detection_thinning(scaled_dist):
    scipy_stats = pytest.importorskip("scipy.stats")
    cfg = MicrolaserConfig(
        g0=TWO_PI * 650e3, gamma_c=TWO_PI * 150e3, mode_waist=41e-6,
        v0=750.0, n_atoms_mean=0.0, dv_fwhm_frac=0.0, n_max=256,
        detection_efficiency=0.7,
    )
    k = 50
    total_detections = 0
    trials = 100
    for seed in range(trials):
        rec = simulate(cfg, scaled_dist, duration=20.0 * k / cfg.gamma_c,
                       seed=seed, initial_n=k, record_path=False)
        assert rec.decays == k
        total_detections += rec.detections
    test = scipy_stats.binomtest(total_detections, trials * k, 0.7)
    assert test.pvalue > 1e-6


def test_splitter_routing_binomial(scaled_cfg, scaled_dist):
    scipy_stats = pytest.importorskip("scipy.stats")
    rec = simulate(scaled_cfg, scaled_dist, duration=2000.0 / scaled_cfg.gamma_c,
                   seed=7, record_path=False)
    assert rec.detections == rec.stream1.count + rec.stream2.count
    # efficiency 1, splitter 0.5: channel 1 is Binomial(decays, 1/2)
    assert rec.detections == rec.decays
    test = scipy_stats.binomtest(rec.stream1.count, rec.decays, 0.5)
    assert test.pvalue > 1e-6


def test_bookkeeping_identity(scaled_cfg, scaled_dist):
    for seed in (0, 1, 2, 3):
        rec = simulate(scaled_cfg, scaled_dist, duration=500.0 / scaled_cfg.gamma_c,
                       seed=seed)
        assert rec.emissions - rec.decays == rec.final_n - rec.initial_n
        assert rec.detections <= rec.decays
        # path covers every change point
        assert rec.path_values[0] == rec.initial_n
        assert rec.path_values[-1] == rec.final_n
        steps = np.diff(rec.path_values)
        assert set(np.unique(steps)).issubset({-1, 1})


def test_seed_determinism(scaled_cfg, scaled_dist):
    a = simulate(scaled_cfg, scaled_dist, duration=200.0 / scaled_cfg.gamma_c, seed=123)
    b = simulate(scaled_cfg, scaled_dist, duration=200.0 / scaled_cfg.gamma_c, seed=123)
    assert np.array_equal(a.stream1.times, b.stream1.times)
    assert np.array_equal(a.stream2.times, b.stream2.times)
    assert np.array_equal(a.path_times, b.path_times)
    assert a.atoms_injected == b.atoms_injected
    c = simulate(scaled_cfg, scaled_dist, duration=200.0 / scaled_cfg.gamma_c, seed=124)
    assert not np.array_equal(a.stream1.times, c.stream1.times)


def test_occupancy_matches_steady_state(scaled_cfg, scaled_dist):
    p_ss = steady_state(scaled_cfg, scaled_dist)
    rec = simulate(scaled_cfg, scaled_dist, duration=2000.0 / scaled_cfg.gamma_c, seed=11)
    occ = photon_number_histogram(rec)
    assert total_variation_distance(occ, p_ss) <= 0.05
    # time-averaged n within 3 sigma of theory, sigma from the fluctuation
    # variance and the semiclassical correlation time
    fp = [f for f in find_fixed_points(scaled_cfg, scaled_dist) if f.stable][-1]
    t_eff = rec.duration - 20.0 / scaled_cfg.gamma_c
    se = np.sqrt(p_ss.variance * 2.0 * fp.tau_c / t_eff)
    assert abs(occ.mean - p_ss.mean) <= 3.0 * se


def test_occupancy_published_config(published_cfg, published_dist):
    # full published configuration: several million events over 2000 cavity
    # lifetimes; the time-averaged photon number must sit on the theory value
    p_ss = steady_state(published_cfg, published_dist)
    rec = simulate(published_cfg, published_dist, duration=2000.0 / published_cfg.gamma_c, seed=31)
    occ = photon_number_histogram(rec)
    fp = [f for f in find_fixed_points(published_cfg, published_dist) if f.stable][0]
    t_eff = rec.duration - 20.0 / published_cfg.gamma_c
    se = np.sqrt(p_ss.variance * 2.0 * fp.tau_c / t_eff)
    assert abs(occ.mean - p_ss.mean) <= 3.0 * se
    assert total_variation_distance(occ, p_ss) <= 0.05


def test_velocity_spread_path(published_cfg, published_dist):
    # gaussian spread: emission rates come from the quadrature-averaged
    # beta-bar table; modest duration
    cfg = published_cfg.with_n_atoms(12.0)
    rec = simulate(cfg, published_dist, duration=50.0 / cfg.gamma_c, seed=3, record_path=False)
    assert rec.atoms_injected > 0
    assert rec.emissions > 0


def test_histogram_trivials(scaled_cfg, scaled_dist):
    cfg = scaled_cfg.with_n_atoms(0.0)
    rec = simulate(cfg, scaled_dist, duration=25.0 / cfg.gamma_c, seed=2, initial_n=0)
    occ = photon_number_histogram(rec)
    assert occ.probabilities[0] == 1.0
    with pytest.raises(ValueError):
        photon_number_histogram(rec, burn_in=rec.duration)
    no_path = simulate(cfg, scaled_dist, duration=25.0 / cfg.gamma_c, seed=2,
                       initial_n=0, record_path=False)
    with pytest.raises(ValueError):
        photon_number_histogram(no_path)


def test_histogram_weights_time_not_events(scaled_cfg, scaled_dist):
    rec = simulate(scaled_cfg, scaled_dist, duration=1000.0 / scaled_cfg.gamma_c, seed=5)
    occ = photon_number_histogram(rec)
    # direct recomputation from the change-point path
    burn_in = 20.0 / scaled_cfg.gamma_c
    edges = np.append(rec.path_times, rec.duration)
    lo = np.clip(edges[:-1], burn_in, None)
    hi = np.clip(edges[1:], burn_in, None)
    expected = np.zeros(rec.n_basis + 1)
    np.add.at(expected, rec.path_values, np.maximum(hi - lo, 0.0))
    expected /= expected.sum()
    assert np.allclose(occ.probabilities, expected, atol=1e-15)


def _climbing_config():
    t = interaction_time(750.0, 41e-6)
    cfg = MicrolaserConfig(
        g0=(np.pi / 2.0) / (np.sqrt(6.0) * t),  # near-unit emission at n=5
        gamma_c=TWO_PI * 1e3,  # slow decay: population climbs
        mode_waist=41e-6, v0=750.0, n_atoms_mean=50.0, n_max=6,
    )
    return cfg, VelocityDistribution.delta(750.0)


def test_truncation_hard_error():
    cfg, dist = _climbing_config()
    with pytest.raises(TruncationError):
        simulate(cfg, dist, duration=1e-3, seed=0, initial_n=3)


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()


def _golden_run(name):
    scaled = MicrolaserConfig(**SCALED_KWARGS)
    published = MicrolaserConfig(**PUBLISHED_KWARGS)
    cfg, duration, seed, initial_n = {
        "scaled-seed1": (scaled, 2e-3, 1, None),
        "scaled-seed402": (scaled, 2e-3, 402, None),
        "cold-start": (scaled, 2e-3, 7, 0),
        "start-250": (scaled, 2e-3, 11, 250),
        "published": (published, 50.0 / published.gamma_c, 31, None),
        "efficiency-0.7": (replace(scaled, detection_efficiency=0.7), 2e-3, 5, None),
        "zero-pump": (scaled.with_n_atoms(0.0), 1200.0 / scaled.gamma_c, 3, 40),
        "start-at-top": (scaled, 1e-4, 0, 256),
        "end-before-truncation": (replace(scaled, n_max=44), 1.5985e-3, 1, 30),
    }[name]
    dist = VelocityDistribution.from_config(cfg)
    return simulate(cfg, dist, duration, seed=seed, initial_n=initial_n)


# sha256 of (dtype, bytes) of path_times, path_values and both streams' times,
# then (initial_n, final_n, atoms_injected, emissions, decays, detections),
# recorded from the per-event loop this simulator replaced. The published
# record's times were recorded again on the 1.1 r / Gamma_c + 10 basis with the
# fixed-order beta-bar sum; its path values and counts are the loop's.
GOLDEN = {
    "scaled-seed1": (
        "58b015835bdb4638ad582f8be4263a98098d5480ee7231b7b4598132a5a0fdea",
        "e8e14e7f226f0714e796dd94c6178647edef3f85a61ad4365c965aa8b2a5d10b",
        "9aea098c5b1dcd11dcd8d535f64da0938324eaec46a11145c4925022160b77a3",
        "51d17c62287b9e18db3e2f37daa4baf2beb6a0663696306c0e1c0409e7871765",
        (30, 29, 87130, 56703, 56704, 56704),
    ),
    "scaled-seed402": (
        "284fca27aa542a45eee13177e70f3fdcaa570e87219d9089fd48267e9898e5fa",
        "0e66ded9c808ad99957589d339fab1720134e4127322d988a352dd342ff66b4b",
        "5aeb689baef9b513e9f72c29c41070595955229192dd70f4c0613db844936b54",
        "1e6774e0dc282f7a3b3805430c0ff429ce7f492363b05bba124798f749917983",
        (28, 35, 86939, 56511, 56504, 56504),
    ),
    "cold-start": (
        "10d7c2d32166044ca97ad0162e3319efcf504cfd1869058f1fd5637aa7dc1e04",
        "b3e59b473668487710f6c67396f7b1b1adc52998cb84e973978b1f646dc445d5",
        "f4727a3b458a925a9f6655bd649ab96155fde3362439fc79b82aff9afed7e2a8",
        "f4a2cee54b2b2490961724871b014f55979ad912bfa832bca2720b480bb3fa02",
        (0, 31, 86776, 56475, 56444, 56444),
    ),
    "start-250": (
        "db0f750373e6e350e6f9e03f45c6d1448c385f4714e1692fcfeeb234f0b033e1",
        "cbc2b53366cb36cf2f6709e74ddc63ea6b72a917095767cb7a49ac25b6924993",
        "30a3ef6067369b71f203fc228ecf243ac3d5322cd8c691f4d2e9edb9e9953172",
        "f30edb7d8c0333885d3924985c5edaac751e80d281bdab51fee37f2b2a852d21",
        (250, 34, 86899, 56459, 56675, 56675),
    ),
    "published": (
        "fc0705ab6c452f2e4fec62623f6437315c4599a9b52d8be95d82586d1b4a7171",
        "ec4540d54aa542f1469f8e6aba3eb078a7bd2f871a735a6cf65ef9898b9507db",
        "a925a4e9b3e45e515fed38ba7cfc1c8e92f8704e0f1057d6622600f0f49c98c7",
        "4bfe12a5e816b2a8e102eecafdf2d36a90d2e8fc24306f92d831700a6af4b4a3",
        (569, 556, 86692, 27471, 27484, 27484),
    ),
    "efficiency-0.7": (
        "030279489cc5a092f507b32e0d36ec00b1cfb995fe0c4ece99e0706c1e8276af",
        "942948a0276f7a2ac798bb4ca93f9b9a1293338d28da03a03b90f5385017c9d9",
        "a954eaf62f985d1f34a6beb3b53fba4808d876b5d4d75adb6e5a64e48641b658",
        "b5736f92caf9c349f3f4cccb93ad82c9ff6c78075aa8e269891c622011e83293",
        (33, 26, 86726, 56528, 56535, 39488),
    ),
    "zero-pump": (
        "5263cdd7ad898370983b377729c7c977623d9629509bee6b3539b9009dd6c339",
        "89ee622f0b02e7f059dfeddc1da0ca620e96f4f6876b15571229e0424b2707ea",
        "b0c38ed411a40c8084937a1b69704aa7ae226c7c2204a01d8be40f0e7af0b99f",
        "2373ececa32cced6852ef38f1064fa029b0f53df03fcc594464397ebf647c5f6",
        (40, 0, 0, 0, 40, 40),
    ),
    "start-at-top": (
        "a3d68dd7ce79c9be957a890ba79683fe949cd7e3fcd5fbbb6ad213cf61c8875b",
        "4a7d9ee8294bbadd7c7619fafbdfff729e37045a9fc39102b2275f77ba9c4760",
        "3975f2d0300254e311ead46d38f949e57bc0badb196a3dff965440d065723da7",
        "d7fb65ecd234a77223515ce27a846bccfde7f9b1ae297bb8e9aaac769be6ad16",
        (256, 27, 4324, 2794, 3023, 3023),
    ),
    "end-before-truncation": (
        "6703c73e88466df1a28e2fb446d8b5d5ac3f3902889e094fb57ddec139fac4aa",
        "60e7b0577f3e03156c5f81b1c0c026315f2a32a12abe7ef4c03cf2cca722ff9d",
        "113cb0f994a773f8131cf48e29ffe82063db21bb7052c9cd2f375bbcea766430",
        "33d4b87a7ed307d9a2a1d12c5a67bcee6eaa28d3d61a46851f3d5554db237eee",
        (30, 41, 69496, 45429, 45418, 45418),
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_records(name):
    rec = _golden_run(name)
    arrays = (rec.path_times, rec.path_values, rec.stream1.times, rec.stream2.times)
    *digests, counts = GOLDEN[name]
    assert [_digest(a) for a in arrays] == digests
    assert (rec.initial_n, rec.final_n, rec.atoms_injected, rec.emissions,
            rec.decays, rec.detections) == counts


def _per_event_loop(cfg, dist, duration, seed, initial_n):
    """Reference: the jump chain one event at a time, on the same random draws.

    Returns the path times and values, the two channels' times and the atom
    count, or raises TruncationError as ``simulate`` must.
    """
    rng = np.random.default_rng(seed)
    n_basis = effective_n_max(cfg)
    r = injection_rate(cfg)
    birth = r * averaged_beta_table(n_basis + 1, cfg, dist)
    total = birth + cfg.gamma_c * np.arange(n_basis + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_wait = (1.0 / total).tolist()
        p_up = np.where(total > 0.0, birth / total, 0.0).tolist()
    occupancy = [0.0] * (n_basis + 1)
    n, t, times, values = initial_n, 0.0, [0.0], [initial_n]
    while True:
        exps = rng.standard_exponential(RANDOM_BLOCK).tolist()
        unis = rng.random(RANDOM_BLOCK).tolist()
        for e, u in zip(exps, unis):
            t_left = t
            t += e * mean_wait[n]
            if not t < duration:
                occupancy[n] += duration - t_left
                steps = np.diff(values)
                decays = np.array(times[1:])[steps < 0]
                detected = decays[rng.random(decays.size) < cfg.detection_efficiency]
                to_ch1 = rng.random(detected.size) < cfg.splitter_ratio
                passed = rng.poisson(max(float((r - birth) @ np.array(occupancy)), 0.0))
                atoms = np.count_nonzero(steps > 0) + int(passed)
                return times, values, detected[to_ch1], detected[~to_ch1], atoms
            occupancy[n] += t - t_left
            n += 1 if u < p_up[n] else -1
            if n >= n_basis:
                raise TruncationError(
                    f"photon number reached the basis truncation n_max={n_basis} "
                    f"at t={t:.3e} s; raise n_max"
                )
            times.append(t)
            values.append(n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    config_seed=st.integers(0, 2**32 - 1),
    run_seed=st.integers(0, 2**32 - 1),
    lifetimes=st.floats(0.5, 1000.0),
    n_max=st.one_of(st.none(), st.integers(1, 80)),
    start=st.floats(0.0, 1.0),
    pumped=st.booleans(),
)
def test_matches_per_event_loop(config_seed, run_seed, lifetimes, n_max, start, pumped):
    cfg, dist = random_config(np.random.default_rng(config_seed))
    cfg = replace(cfg, n_max=n_max, n_atoms_mean=cfg.n_atoms_mean if pumped else 0.0)
    initial_n = round(start * effective_n_max(cfg))
    duration = lifetimes / cfg.gamma_c
    try:
        times, values, ch1, ch2, atoms = _per_event_loop(cfg, dist, duration, run_seed, initial_n)
    except TruncationError as exc:
        for record_path in (True, False):
            with pytest.raises(TruncationError, match=re.escape(str(exc))):
                simulate(cfg, dist, duration, seed=run_seed, initial_n=initial_n,
                         record_path=record_path)
        return
    rec = simulate(cfg, dist, duration, seed=run_seed, initial_n=initial_n)
    assert np.array_equal(rec.path_times, times)
    assert np.array_equal(rec.path_values, values)
    assert rec.final_n == values[-1]
    assert np.array_equal(rec.stream1.times, ch1)
    assert np.array_equal(rec.stream2.times, ch2)
    assert rec.atoms_injected == atoms
    # without the path: the same draws, streams and bookkeeping
    bare = simulate(cfg, dist, duration, seed=run_seed, initial_n=initial_n, record_path=False)
    assert bare.path_times is None and bare.path_values is None
    assert np.array_equal(bare.stream1.times, rec.stream1.times)
    assert np.array_equal(bare.stream2.times, rec.stream2.times)
    for field in ("final_n", "atoms_injected", "emissions", "decays", "detections"):
        assert getattr(bare, field) == getattr(rec, field)



@pytest.mark.parametrize("point", ["published", "scaled-33", "start-250"])
def test_many_blocks_match_per_event_loop(point, monkeypatch):
    # the gate keeps the one-step walk at the published point and at <N> = 33;
    # from 250 the first coupled block's band reaches up to 250, so many of
    # its lanes do not meet and are walked one step at a time
    scaled = MicrolaserConfig(**SCALED_KWARGS)
    cfg, duration, seed, initial_n, coupled = {
        "published": (MicrolaserConfig(**PUBLISHED_KWARGS), 1e-3, 3, 560, False),
        "scaled-33": (scaled.with_n_atoms(33.0), 5e-3, 4, 190, False),
        "start-250": (scaled, 5e-3, 5, 250, True),
    }[point]
    dist = VelocityDistribution.from_config(cfg)
    blocks = []
    monkeypatch.setattr(trajectory, "_walk_lanes",
                        lambda *args: blocks.append(args[1]) or _walk_lanes(*args))
    rec = simulate(cfg, dist, duration, seed=seed, initial_n=initial_n)
    assert rec.path_values.size > 4 * RANDOM_BLOCK
    assert bool(blocks) == coupled
    times, values, ch1, ch2, atoms = _per_event_loop(cfg, dist, duration, seed, initial_n)
    assert np.array_equal(rec.path_times, times)
    assert np.array_equal(rec.path_values, values)
    assert np.array_equal(rec.stream1.times, ch1)
    assert np.array_equal(rec.stream2.times, ch2)
    assert rec.atoms_injected == atoms


@st.composite
def _p_up_tables(draw):
    """A table of step-up probabilities with its two sentinels appended."""
    n_basis = draw(st.integers(1, 48))
    x = np.arange(n_basis + 1)
    shape = draw(st.sampled_from(("drawn", "falling", "two-lobed", "rising")))
    if shape == "drawn":  # non-monotone, with runs of 0 and 1
        cell = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
        table = draw(st.lists(cell, min_size=n_basis + 1, max_size=n_basis + 1))
    elif shape == "two-lobed":
        period = draw(st.floats(4.0, 40.0))
        table = np.clip(0.5 + draw(st.floats(0.2, 2.0)) * np.cos(TWO_PI * x / period), 0.0, 1.0)
    else:  # through 1/2 at a drawn state; "rising" pushes the paths apart
        slope = draw(st.floats(0.02, 2.0)) * (1.0 if shape == "rising" else -1.0)
        table = np.clip(0.5 + slope * (x - draw(st.floats(0.0, n_basis))), 0.0, 1.0)
    return [*np.asarray(table, dtype=float).tolist(), 0.0, 1.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p_up=_p_up_tables(),
    lane=st.sampled_from((2, 4, 6, 8)),
    warm=st.sampled_from((2, 4, 6, 10, 16)),
    lanes=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_lane_walk_matches_one_step_walk(p_up, lane, warm, lanes, seed, data):
    top = len(p_up) - 3  # n_basis
    n = data.draw(st.sampled_from((0, top)) | st.integers(0, top), label="n")
    # mostly around the entry; a negative reach misses it, or empties the band
    reach = st.integers(-2, top + 2)
    low, high = n - data.draw(reach, label="below"), n + data.draw(reach, label="above")
    unis = np.random.default_rng(seed).random(lane * lanes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "LANE", lane)
        mp.setattr(trajectory, "WARM", warm)
        states = _walk_lanes(unis, n, p_up, low, high)
    assert np.array_equal(states, _walk_steps(unis, n, p_up))


@pytest.mark.parametrize("slope, certified", [(-0.25, True), (0.25, False)])
def test_lanes_are_certified_only_where_paths_meet(slope, certified, monkeypatch):
    # falling through 1/2 the paths close in and meet within the warm-up;
    # rising they run apart to the sentinels and never meet, so every lane
    # takes the one-step walk
    p_up = [*np.clip(0.5 + slope * (np.arange(41) - 20.0), 0.0, 1.0).tolist(), 0.0, 1.0]
    unis = np.random.default_rng(3).random(8 * 200)
    exact = _walk_steps(unis, 20, p_up)
    walked = []
    monkeypatch.setattr(trajectory, "LANE", 8)
    monkeypatch.setattr(trajectory, "WARM", 8)
    monkeypatch.setattr(trajectory, "_walk_steps",
                        lambda u, n, p: walked.append(u.size) or _walk_steps(u, n, p))
    states = _walk_lanes(unis, 20, p_up, int(exact.min()), int(exact.max()))
    assert np.array_equal(states, exact)
    # lane 0 always takes the one-step walk
    assert (len(walked) < 20) if certified else (len(walked) == 200)

def test_memory_grows_with_decays_not_jumps(scaled_cfg, scaled_dist):
    # without a path, a run keeps the decay times (8 B each), the two streams
    # and per-chunk scratch, about 21 B per decay in all; keeping every jump
    # as a time and a step until the end of the run took about 75 B per decay
    tracemalloc.start()
    try:
        rec = simulate(scaled_cfg, scaled_dist, 20e-3, seed=1, record_path=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.decays > 500_000
    assert peak <= 40 * rec.decays + 2_000_000


def test_truncation_only_before_the_end(scaled_cfg, scaled_dist):
    # the chain reaches n_max = 44 at t = 1.599e-03 s (second random block),
    # so a run that ends just before completes and one just after raises
    cfg = replace(scaled_cfg, n_max=44)
    rec = simulate(cfg, scaled_dist, 1.5985e-3, seed=1, initial_n=30)
    assert rec.path_values.max() == 43
    with pytest.raises(TruncationError, match=re.escape("n_max=44 at t=1.599e-03 s")):
        simulate(cfg, scaled_dist, 1.5995e-3, seed=1, initial_n=30)
    # a few events into the run, inside the first walked chunk
    cfg, dist = _climbing_config()
    rec = simulate(cfg, dist, 3.4845e-9, seed=0, initial_n=3)
    assert rec.final_n == 5 and rec.path_values.size == 3
    with pytest.raises(TruncationError, match=re.escape("n_max=6 at t=3.485e-09 s")):
        simulate(cfg, dist, 3.4855e-9, seed=0, initial_n=3)


def test_start_at_basis_top():
    cfg, dist = _climbing_config()
    rec = simulate(cfg, dist, 1e-12, seed=0, initial_n=6)
    assert rec.initial_n == rec.final_n == 6
    assert rec.path_values.tolist() == [6] and rec.path_times.tolist() == [0.0]
    assert rec.emissions == rec.decays == rec.detections == 0
    with pytest.raises(TruncationError, match=re.escape("n_max=6 at t=1.339e-09 s")):
        simulate(cfg, dist, 1e-3, seed=0, initial_n=6)


def test_initial_condition_validation(scaled_cfg, scaled_dist):
    with pytest.raises(ValueError):
        simulate(scaled_cfg, scaled_dist, duration=0.0, seed=0)
    with pytest.raises(ValueError):
        simulate(scaled_cfg, scaled_dist, duration=1e-3, seed=0, initial_n=-1)
    with pytest.raises(TruncationError):
        simulate(scaled_cfg, scaled_dist, duration=1e-3, seed=0, initial_n=1000)


@pytest.mark.parametrize("duration", [np.inf, -np.inf, np.nan, 0.0])
def test_bad_duration_rejected_before_seeding(scaled_cfg, scaled_dist, monkeypatch, duration):
    # an infinite run never ends: reaching the generator would hang, not fail
    def no_generator(seed):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        simulate(scaled_cfg, scaled_dist, duration=duration, seed=1)


def test_steady_start_unbiased_mean(scaled_cfg, scaled_dist):
    # short runs from the steady-state draw should scatter around <n>
    p_ss = steady_state(scaled_cfg, scaled_dist)
    means = []
    for seed in range(30):
        rec = simulate(scaled_cfg, scaled_dist, duration=60.0 / scaled_cfg.gamma_c,
                       seed=900 + seed)
        occ = photon_number_histogram(rec, burn_in=0.0)
        means.append(occ.mean)
    grand = float(np.mean(means))
    se = float(np.std(means, ddof=1)) / np.sqrt(len(means))
    assert abs(grand - p_ss.mean) <= 4.0 * se


def test_atom_count_is_poisson(scaled_cfg, scaled_dist):
    # every arrival counts, emitting or not: atoms_injected ~ Poisson(r T)
    duration = 20.0 / scaled_cfg.gamma_c
    runs = 400
    counts = np.array([
        simulate(scaled_cfg, scaled_dist, duration, seed=5000 + seed,
                 record_path=False).atoms_injected
        for seed in range(runs)
    ], dtype=float)
    expected = injection_rate(scaled_cfg) * duration
    assert abs(counts.mean() - expected) <= 4.0 * np.sqrt(expected / runs)
    # dispersion index: (runs - 1) var / mean ~ chi2(runs - 1) for Poisson;
    # normal approximation, 4 sigma either side (var / mean within 1 +- 0.28)
    dof = runs - 1
    dispersion = dof * counts.var(ddof=1) / counts.mean()
    assert abs(dispersion - dof) <= 4.0 * np.sqrt(2.0 * dof)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    config_seed=st.integers(0, 2**32 - 1),
    run_seed=st.integers(0, 2**32 - 1),
    lifetimes=st.floats(0.5, 50.0),
    efficiency=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
)
def test_simulate_record_invariants(config_seed, run_seed, lifetimes, efficiency):
    cfg, dist = random_config(np.random.default_rng(config_seed))
    cfg = replace(cfg, detection_efficiency=efficiency)
    duration = lifetimes / cfg.gamma_c
    rec = simulate(cfg, dist, duration, seed=run_seed)

    steps = np.diff(rec.path_values)
    assert np.all(np.abs(steps) == 1)
    assert rec.path_values[0] == rec.initial_n
    assert rec.path_values[-1] == rec.final_n
    assert np.all(np.diff(rec.path_times) >= 0.0)
    assert rec.emissions - rec.decays == rec.final_n - rec.initial_n
    assert rec.emissions == np.count_nonzero(steps > 0)
    assert rec.stream1.count + rec.stream2.count == rec.detections <= rec.decays
    assert rec.atoms_injected >= rec.emissions
    # plain ints, so that the counts serialize to JSON
    for field in ("initial_n", "final_n", "atoms_injected", "emissions", "decays", "detections"):
        assert type(getattr(rec, field)) is int
    for stream in (rec.stream1, rec.stream2):
        t = stream.times
        assert np.all(np.diff(t) >= 0.0)
        assert t.size == 0 or (t[0] >= 0.0 and t[-1] < duration)
        # every detection is a decay on the path
        assert np.all(np.isin(t, rec.path_times[1:][steps < 0]))

    again = simulate(cfg, dist, duration, seed=run_seed)
    for field in ("initial_n", "final_n", "n_basis", "atoms_injected", "emissions",
                  "decays", "detections", "path_times", "path_values"):
        assert np.array_equal(getattr(rec, field), getattr(again, field))
    assert np.array_equal(rec.stream1.times, again.stream1.times)
    assert np.array_equal(rec.stream2.times, again.stream2.times)
