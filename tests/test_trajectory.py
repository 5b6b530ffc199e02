from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microlaser.core import (
    TWO_PI,
    MicrolaserConfig,
    VelocityDistribution,
    injection_rate,
    interaction_time,
)
from microlaser.errors import TruncationError
from microlaser.quantum import steady_state
from microlaser.semiclassical import find_fixed_points
from microlaser.trajectory import (
    photon_number_histogram,
    simulate,
    total_variation_distance,
)

from conftest import random_config


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


def test_truncation_hard_error():
    t = interaction_time(750.0, 41e-6)
    cfg = MicrolaserConfig(
        g0=(np.pi / 2.0) / (np.sqrt(6.0) * t),  # near-unit emission at n=5
        gamma_c=TWO_PI * 1e3,  # slow decay: population climbs
        mode_waist=41e-6, v0=750.0, n_atoms_mean=50.0, n_max=6,
    )
    dist = VelocityDistribution.delta(750.0)
    with pytest.raises(TruncationError):
        simulate(cfg, dist, duration=1e-3, seed=0, initial_n=3)


def test_initial_condition_validation(scaled_cfg, scaled_dist):
    with pytest.raises(ValueError):
        simulate(scaled_cfg, scaled_dist, duration=0.0, seed=0)
    with pytest.raises(ValueError):
        simulate(scaled_cfg, scaled_dist, duration=1e-3, seed=0, initial_n=-1)
    with pytest.raises(TruncationError):
        simulate(scaled_cfg, scaled_dist, duration=1e-3, seed=0, initial_n=1000)


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
