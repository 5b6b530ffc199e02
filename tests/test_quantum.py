import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microlaser.core import (
    TWO_PI,
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta_table,
    injection_rate,
)
from microlaser.errors import TruncationError
from microlaser import quantum
from microlaser.quantum import (
    G2Curve,
    PhotonDistribution,
    build_generator,
    default_n_max,
    g2_regression,
    q_and_tau_from_g2,
    steady_state,
)
from conftest import random_config

# Frozen regression constants for the published configuration. Moments were
# cross-checked against a 40-digit mpmath evaluation of the product-form
# steady state; the g2 summaries are read off the spectrum of the regression,
# and their tau_c agrees with the flux-balance oracle below to 1e-13.
PUBLISHED_N_MEAN = 549.37682540909871
PUBLISHED_MANDEL_Q = -0.60668516047507952
PUBLISHED_G2_C0 = -0.0011043151665947612
PUBLISHED_G2_TAU = 4.1704130121810827e-07
PUBLISHED_G2_Q = -0.6066851604749506
BUNCHED_G2_C0 = 0.004171069958993023
BUNCHED_G2_TAU = 1.5846299531645143e-06
BUNCHED_G2_Q = 0.46595626301480186


def poisson_distribution(mean, size):
    n = np.arange(size, dtype=float)
    log_p = n * math.log(mean) - mean - np.array([math.lgamma(x + 1.0) for x in n])
    return PhotonDistribution.from_weights(np.exp(log_p))


def test_empty_pump_gives_vacuum(published_cfg, published_dist):
    p = steady_state(published_cfg.with_n_atoms(0.0), published_dist)
    assert p.probabilities[0] == 1.0
    assert p.mean == 0.0
    assert p.mandel_q is None


def test_steady_state_published_moments(published_cfg, published_dist):
    p = steady_state(published_cfg, published_dist)
    assert 300.0 < p.mean < 800.0  # several hundred photons
    assert p.mean == pytest.approx(PUBLISHED_N_MEAN, rel=1e-12)
    assert p.mandel_q == pytest.approx(PUBLISHED_MANDEL_Q, rel=1e-10)


def test_steady_state_against_high_precision_product(published_cfg, published_dist):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    p = steady_state(published_cfg, published_dist)
    bb = averaged_beta_table(p.n_max, published_cfg, published_dist)
    r = injection_rate(published_cfg)
    term = mp.mpf(1)
    probs = [term]
    for k in range(1, p.n_max + 1):
        term = term * mp.mpf(r * bb[k - 1]) / (mp.mpf(published_cfg.gamma_c) * k)
        probs.append(term)
    total = mp.fsum(probs)
    mean = float(mp.fsum(k * pk for k, pk in enumerate(probs)) / total)
    second = float(mp.fsum(k * k * pk for k, pk in enumerate(probs)) / total)
    q = (second - mean * mean) / mean - 1.0
    assert p.mean == pytest.approx(mean, rel=1e-12)
    assert p.mandel_q == pytest.approx(q, rel=1e-10)


def test_steady_state_detailed_balance(published_cfg, published_dist):
    p = steady_state(published_cfg, published_dist)
    bb = averaged_beta_table(p.n_max, published_cfg, published_dist)
    r = injection_rate(published_cfg)
    pn = p.probabilities
    for n in range(1, p.n_max + 1):
        if pn[n] <= 1e-300 or pn[n - 1] <= 1e-300:
            continue
        down = pn[n] * published_cfg.gamma_c * n
        up = pn[n - 1] * r * bb[n - 1]
        assert down == pytest.approx(up, rel=1e-10)


def test_steady_state_delta_equals_single_node_gaussian(published_delta_cfg):
    delta = VelocityDistribution.delta(750.0)
    one_node = VelocityDistribution.gaussian(750.0, 0.45 * 750.0, n_nodes=1)
    p1 = steady_state(published_delta_cfg, delta)
    p2 = steady_state(published_delta_cfg, one_node)
    assert np.array_equal(p1.probabilities, p2.probabilities)


def test_steady_state_truncation_error_mentions_n_max(scaled_cfg, scaled_dist):
    with pytest.raises(TruncationError, match="n_max"):
        steady_state(replace(scaled_cfg, n_max=8), scaled_dist)


def test_steady_state_auto_doubles_once(scaled_cfg, scaled_dist):
    # 24 is too small but one doubling (48) is enough at <n> ~ 30... it is
    # not, so pick a size where doubling rescues the computation.
    p = steady_state(replace(scaled_cfg, n_max=40), scaled_dist)
    assert p.n_max == 80
    reference = steady_state(scaled_cfg, scaled_dist)
    assert p.mean == pytest.approx(reference.mean, rel=1e-9)


def test_steady_state_doubles_a_top_inside_the_g2_window(scaled_cfg, scaled_dist):
    # the tail check passes at 56, but the top state sits at 2e-17 of max P,
    # inside the g2 window: one doubling. At 58 it sits at 5e-21.
    for n_max, used in ((56, 112), (58, 58)):
        p = steady_state(replace(scaled_cfg, n_max=n_max), scaled_dist)
        assert p.n_max == used


def _reference_steady_state(cfg, dist):
    """The log-space product of steady_state as it was when it formed the
    rates from its own beta_bar table: the vector (None where it raised
    TruncationError) and the top birth and death rates of each tail check."""
    size = quantum.effective_n_max(cfg)
    r = injection_rate(cfg)
    checks = []
    for attempt in range(2):
        beta_bar = averaged_beta_table(size, cfg, dist)
        k = np.arange(1, size + 1, dtype=float)
        with np.errstate(divide="ignore"):
            log_ratio = np.log(r * beta_bar) - np.log(cfg.gamma_c * k)
        log_p = np.concatenate(([0.0], np.cumsum(log_ratio)))
        log_p -= log_p.max()
        with np.errstate(divide="ignore"):
            p = np.exp(log_p)
        p /= p.sum()
        checks.append((r * beta_bar[-1], cfg.gamma_c * size))
        top_in_window = p[-1] > quantum.SPECTRAL_FLOOR * p.max()
        if quantum._truncation_report(p, *checks[-1])[0] and not (top_in_window and attempt == 0):
            return p, checks
        if attempt == 0:
            size *= 2
    return None, checks


def _assert_steady_state_unchanged(cfg, dist):
    reference, checks = _reference_steady_state(cfg, dist)
    with mock.patch.object(
        quantum, "_truncation_report", wraps=quantum._truncation_report
    ) as report:
        if reference is None:
            with pytest.raises(TruncationError):
                steady_state(cfg, dist)
        else:
            assert np.array_equal(steady_state(cfg, dist).probabilities, reference)
    assert [c.args[1:] for c in report.call_args_list] == checks


def test_steady_state_matches_reference_bits(
    scaled_cfg, scaled_dist, published_cfg, published_dist
):
    _assert_steady_state_unchanged(scaled_cfg, scaled_dist)
    _assert_steady_state_unchanged(published_cfg, published_dist)
    _assert_steady_state_unchanged(scaled_cfg.with_n_atoms(0.0), scaled_dist)
    # n_max = 40 is too small for scaled and one doubling rescues it
    _assert_steady_state_unchanged(replace(scaled_cfg, n_max=40), scaled_dist)
    _assert_steady_state_unchanged(replace(scaled_cfg, n_max=8), scaled_dist)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config_seed=st.integers(0, 2**32 - 1))
def test_steady_state_matches_reference_bits_random_configs(config_seed):
    _assert_steady_state_unchanged(*random_config(np.random.default_rng(config_seed)))


def test_default_n_max_policy(published_cfg, published_dist):
    n = default_n_max(published_cfg)
    r = injection_rate(published_cfg)
    assert n == min(8192, max(32, math.ceil(1.1 * r / published_cfg.gamma_c + 10.0))) == 1914
    assert steady_state(published_cfg, published_dist).n_max == n
    assert default_n_max(published_cfg.with_n_atoms(0.0)) == 32
    assert default_n_max(published_cfg.with_n_atoms(1e6)) == 8192
    # at <N> = 20 the tail at 1.1 r / Gamma_c + 10 is too heavy: one doubling
    near_threshold = published_cfg.with_n_atoms(20.0)
    assert default_n_max(near_threshold) == 251
    assert steady_state(near_threshold, published_dist).n_max == 502


def _old_n_max(cfg):
    """The basis of the earlier policy, 4 r / Gamma_c clamped to [32, 8192]."""
    r = injection_rate(cfg)
    return min(quantum.N_MAX_CAP, max(quantum.N_MAX_FLOOR, math.ceil(4.0 * r / cfg.gamma_c)))


def _solve(cfg, dist):
    """(steady state, g2 summary, kept states); the summary is None for an
    empty field and a TruncationError where the g2 solve refuses its window."""
    p = steady_state(cfg, dist)
    if p.mean <= 0.0:
        return p, None, None
    try:
        curve = g2_regression(cfg, dist, steady=p)
    except TruncationError as exc:
        return p, exc, None
    return p, q_and_tau_from_g2(curve, p.mean), curve.kept_states


def _assert_matches_old_basis(cfg, dist):
    try:
        old_p, old_g2, old_kept = _solve(replace(cfg, n_max=_old_n_max(cfg)), dist)
    except TruncationError:
        return
    new_p, new_g2, new_kept = _solve(cfg, dist)  # raises nowhere the old basis solves
    if old_p.mean <= 0.0:
        assert new_p.mean == 0.0
        return
    assert new_p.mean == pytest.approx(old_p.mean, rel=1e-12, abs=0.0)
    # Q = <n^2> / <n> - <n> - 1 cancels down from <n^2> / <n>: a relative
    # error of 1e-12 in the moments moves Q by 1e-12 <n^2> / <n>
    second = old_p.mean * (old_p.mandel_q + 1.0) + old_p.mean**2
    assert abs(new_p.mandel_q - old_p.mandel_q) <= 1e-12 * second / old_p.mean
    if isinstance(old_g2, TruncationError):
        return
    assert not isinstance(new_g2, TruncationError), new_g2
    # up to N_MAX_CAP the trim's weight is N_MAX_CAP, not n_max: one window
    # on both bases
    assert new_kept == old_kept
    assert new_g2.c0 == pytest.approx(old_g2.c0, rel=1e-10, abs=0.0)
    assert (new_g2.tau_c is None) == (old_g2.tau_c is None)
    if old_g2.tau_c is not None:
        assert new_g2.tau_c == pytest.approx(old_g2.tau_c, rel=1e-10, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config_seed=st.integers(0, 2**32 - 1))
def test_default_basis_matches_old_basis_random_configs(config_seed):
    _assert_matches_old_basis(*random_config(np.random.default_rng(config_seed)))


@pytest.mark.parametrize("n_atoms", np.arange(5.0, 301.0, 5.0).tolist())
def test_default_basis_matches_old_basis_published_sweep(n_atoms, published_cfg, published_dist):
    _assert_matches_old_basis(published_cfg.with_n_atoms(n_atoms), published_dist)


def test_distribution_invariants_enforced():
    with pytest.raises(ValueError):
        PhotonDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        PhotonDistribution(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        PhotonDistribution.from_weights(np.zeros(4))


def test_moments_poisson_fock_thermal():
    p = poisson_distribution(50.0, 400)
    assert p.mean == pytest.approx(50.0, rel=1e-12)
    assert p.mandel_q == pytest.approx(0.0, abs=1e-10)

    fock = np.zeros(201)
    fock[100] = 1.0
    fock = PhotonDistribution(fock)
    assert fock.mean == 100.0
    assert fock.variance == 0.0
    assert fock.mandel_q == -1.0

    nbar = 10.0
    n = np.arange(1200, dtype=float)
    thermal = PhotonDistribution.from_weights((nbar / (nbar + 1.0)) ** n)
    assert thermal.mean == pytest.approx(nbar, rel=1e-9)
    assert thermal.mandel_q == pytest.approx(nbar, rel=1e-8)


def test_generator_columns_sum_to_zero(published_cfg, published_dist):
    gen = build_generator(published_cfg, published_dist, n_max=300)
    sums = gen.birth + gen.death + gen.diag
    assert np.max(np.abs(sums)) <= 1e-12
    assert np.all(gen.birth >= 0.0)
    assert np.all(gen.death >= 0.0)
    assert gen.birth[-1] == 0.0  # reflecting truncation


def test_generator_pure_decay(published_cfg, published_dist):
    gen = build_generator(published_cfg.with_n_atoms(0.0), published_dist, n_max=10)
    p = np.zeros(11)
    p[1] = 1.0
    dp = gen.matvec(p)
    assert dp[1] == pytest.approx(-published_cfg.gamma_c, rel=1e-15)
    assert dp[0] == pytest.approx(published_cfg.gamma_c, rel=1e-15)


def test_steady_state_is_generator_null_vector(published_cfg, published_dist):
    p = steady_state(published_cfg, published_dist)
    gen = build_generator(published_cfg, published_dist, n_max=p.n_max)
    residual = np.max(np.abs(gen.matvec(p.probabilities))) / published_cfg.gamma_c
    assert residual < 1e-10


def test_config_fingerprint_distinguishes_configs(scaled_cfg, scaled_dist):
    from microlaser.core import config_fingerprint

    base = config_fingerprint(scaled_cfg, scaled_dist)
    assert base == config_fingerprint(scaled_cfg, scaled_dist)
    other = config_fingerprint(scaled_cfg.with_n_atoms(5.0), scaled_dist)
    assert other != base
    assert config_fingerprint(scaled_cfg) != base  # quadrature included


def test_g2_zero_matches_moment_identity(scaled_cfg, scaled_dist, published_cfg, published_dist):
    for cfg, dist in ((scaled_cfg, scaled_dist), (published_cfg.with_n_atoms(12.0), published_dist)):
        p = steady_state(cfg, dist)
        curve = g2_regression(cfg, dist, tau_grid=np.array([0.0]))
        expected = 1.0 + p.mandel_q / p.mean
        assert curve.values[0] == pytest.approx(expected, rel=1e-8)


def test_g2_decorrelates(scaled_cfg, scaled_dist):
    grid = np.linspace(0.0, 30.0 / scaled_cfg.gamma_c, 40)
    curve = g2_regression(scaled_cfg, scaled_dist, tau_grid=grid)
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(curve.values > 0.0)


def test_g2_envelope_monotone_late(scaled_cfg, scaled_dist):
    curve = g2_regression(scaled_cfg, scaled_dist)
    dev = np.abs(curve.values - 1.0)
    last_decade = dev[curve.tau >= 0.9 * curve.tau[-1]]
    assert np.all(np.diff(last_decade) <= 1e-12)


def test_g2_coherent_surrogate_is_flat(monkeypatch):
    # Constant gain equal to loss at nbar (linear dynamics, Poisson steady
    # state): g2(tau) = 1 identically.
    gamma_c = TWO_PI * 150e3
    nbar = 20.0
    cfg = MicrolaserConfig(
        g0=TWO_PI * 650e3, gamma_c=gamma_c, mode_waist=41e-6, v0=750.0,
        n_atoms_mean=4.2, n_max=120,
    )
    monkeypatch.setattr(
        quantum, "averaged_beta_table",
        lambda n_max, cfg, dist: np.full(n_max, cfg.gamma_c * nbar / injection_rate(cfg)),
    )
    taus = np.linspace(0.0, 3.0 / gamma_c, 30)
    curve = g2_regression(cfg, VelocityDistribution.delta(750.0), tau_grid=taus)
    assert np.max(np.abs(curve.values - 1.0)) < 1e-8


def ode_w(cfg, dist, taus):
    """(steady state, W(tau) with one column per tau): the stiff ODE
    regression of W(0) = (m+1) P_{m+1} on the full basis.

    scipy's implicit Radau integrator on the sparse tridiagonal generator,
    independent of the spectral solution. The tolerances keep its own error
    near 1e-12 in g2, also at <n> < 1.
    """
    integrate = pytest.importorskip("scipy.integrate")
    sparse = pytest.importorskip("scipy.sparse")
    p = steady_state(cfg, dist)
    gen = build_generator(cfg, dist, n_max=p.n_max)
    a = sparse.diags([gen.birth[:-1], gen.diag, gen.death[1:]], [-1, 0, 1], format="csc")
    w0 = np.zeros(gen.size)
    w0[:-1] = np.arange(1, gen.size) * p.probabilities[1:]
    sol = integrate.solve_ivp(
        lambda t, w: a @ w, (0.0, float(taus[-1])), w0, method="Radau", t_eval=taus,
        jac=a, rtol=1e-12, atol=1e-14 * w0.max(),
    )
    assert sol.success, sol.message
    return p, sol.y


def ode_g2(cfg, dist, taus):
    """Reference g2 from ``ode_w``."""
    p, w = ode_w(cfg, dist, taus)
    return np.arange(p.probabilities.size, dtype=float) @ w / p.mean**2


def test_g2_matches_ode_reference_random_configs():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(16):
        cfg, dist = random_config(rng)
        if steady_state(cfg, dist).mean <= 0.0:
            continue
        taus = np.linspace(0.0, 3.0 / cfg.gamma_c, 9)
        curve = g2_regression(cfg, dist, tau_grid=taus)
        assert np.max(np.abs(curve.values - ode_g2(cfg, dist, taus))) <= 1e-10
        checked += 1
    assert checked >= 12


def test_ode_reference_obeys_the_trim_bound():
    # the bound that g2_regression trims its window by: W / P evolves by a
    # stochastic semigroup from W_m(0) / P_m = r beta_bar_{m+1} / Gamma_c, so
    # |W_m(tau)| <= (r / Gamma_c) P_m at every tau
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(16):
        cfg, dist = random_config(rng)
        if steady_state(cfg, dist).mean <= 0.0:
            continue
        p, w = ode_w(cfg, dist, np.array([0.0, 0.1, 0.5, 1.0, 3.0]) / cfg.gamma_c)
        bound = injection_rate(cfg) / cfg.gamma_c * p.probabilities
        # the integrator's own error is near its atol of 1e-14 max W(0)
        assert np.all(np.abs(w) <= bound[:, None] + 1e-13 * w[:, 0].max())
        checked += 1
    assert checked >= 12


def test_g2_separate_blocks_match_ode_reference(scaled_cfg, scaled_dist):
    # Monovelocity trapping gap: two populated photon-number bands that the
    # spectral solution treats as separate blocks.
    cfg = scaled_cfg.with_n_atoms(33.0)
    probs = steady_state(cfg, scaled_dist).probabilities
    assert len(quantum._runs(probs > quantum.SPECTRAL_FLOOR * probs.max())) == 2
    taus = np.linspace(0.0, 5.0 / cfg.gamma_c, 11)
    curve = g2_regression(cfg, scaled_dist, tau_grid=taus)
    assert np.max(np.abs(curve.values - ode_g2(cfg, scaled_dist, taus))) <= 1e-10


def test_g2_truncation_guard_trips_on_coarse_floor(scaled_cfg, scaled_dist, monkeypatch):
    monkeypatch.setattr(quantum, "SPECTRAL_FLOOR", 1e-3)
    with pytest.raises(TruncationError, match="spectral window"):
        g2_regression(scaled_cfg, scaled_dist)


def test_g2_truncation_guard_counts_the_flux_past_the_top(scaled_cfg, scaled_dist):
    # n_max = 26 doubles to 52, whose top state still sits at 8e-12 of max P:
    # the flux that the full chain sends past it may move g2 by more than
    # OUTFLUX_LIMIT, which the reflecting top alone would hide
    cfg = replace(scaled_cfg, n_max=26)
    assert steady_state(cfg, scaled_dist).n_max == 52
    with pytest.raises(TruncationError, match="past the basis top"):
        g2_regression(cfg, scaled_dist)


def test_g2_window_of_the_published_point(published_cfg, published_dist):
    # the outflux budget trims the 292 states above SPECTRAL_FLOOR to 244,
    # with the check well inside its limit
    probs = steady_state(published_cfg, published_dist).probabilities
    (lo, hi), = quantum._runs(probs > quantum.SPECTRAL_FLOOR * probs.max())
    assert hi - lo == 292
    curve = g2_regression(published_cfg, published_dist)
    assert curve.kept_states == 244
    assert 0.0 < curve.outflux_bound <= quantum.OUTFLUX_LIMIT


def test_g2_window_on_a_basis_past_the_cap(published_cfg, published_dist):
    # n_max may exceed N_MAX_CAP by hand (and steady_state doubles a capped
    # basis). The check weighs its error by n_max, so the trim's weight
    # follows it there: weighted by N_MAX_CAP alone, the trim of the
    # published point spends more than the limit from n_max = 69,000 on
    cfg = replace(published_cfg, n_max=100_000)
    p = steady_state(cfg, published_dist)
    assert p.n_max == 100_000
    curve = g2_regression(cfg, published_dist, steady=p)
    assert curve.outflux_bound <= quantum.OUTFLUX_LIMIT
    default = g2_regression(published_cfg, published_dist)
    assert 244 == default.kept_states < curve.kept_states
    assert np.max(np.abs(curve.values - default.values)) <= quantum.OUTFLUX_LIMIT


def test_g2_rejects_bad_tau_grid(scaled_cfg, scaled_dist):
    for grid in (np.array([]), np.array([0.0, -1e-7]), np.array([2e-7, 1e-7])):
        with pytest.raises(ValueError):
            g2_regression(scaled_cfg, scaled_dist, tau_grid=grid)


def test_g2_undefined_for_empty_field(published_cfg, published_dist):
    with pytest.raises(ValueError):
        g2_regression(published_cfg.with_n_atoms(0.0), published_dist)


def test_g2_with_given_steady_state_is_bit_identical(
    scaled_cfg, scaled_dist, published_cfg, published_dist
):
    cases = [(scaled_cfg, scaled_dist), (published_cfg, published_dist)]
    rng = np.random.default_rng(47)
    while len(cases) < 12:
        cfg, dist = random_config(rng)
        if steady_state(cfg, dist).mean > 0.0:
            cases.append((cfg, dist))
    for cfg, dist in cases:
        default = g2_regression(cfg, dist)
        shared = g2_regression(cfg, dist, steady=steady_state(cfg, dist))
        for name in ("tau", "values", "rates", "weights"):
            assert np.array_equal(getattr(shared, name), getattr(default, name)), name
        assert shared.plateau == default.plateau
    empty = published_cfg.with_n_atoms(0.0)
    with pytest.raises(ValueError):
        g2_regression(empty, published_dist, steady=steady_state(empty, published_dist))


def test_g2_fit_exact_exponential_input():
    tau = np.linspace(0.0, 10e-6, 200)
    c0, tau_c = 0.002, 1e-6
    curve = G2Curve(
        tau=tau, values=1.0 + c0 * np.exp(-tau / tau_c),
        rates=np.array([-1.0 / tau_c]), weights=np.array([c0]), plateau=0.0,
    )
    res = q_and_tau_from_g2(curve, n_mean=100.0)
    assert res.c0 == pytest.approx(c0, rel=1e-15)
    assert res.tau_c == pytest.approx(tau_c, rel=1e-15)
    assert res.q == pytest.approx(c0 * 100.0, rel=1e-15)
    assert res.weight_ratio == 1.0


def test_g2_fit_published_antibunching(published_cfg, published_dist):
    p = steady_state(published_cfg, published_dist)
    curve = g2_regression(published_cfg, published_dist)
    res = q_and_tau_from_g2(curve, p.mean)
    assert res.c0 == pytest.approx(PUBLISHED_G2_C0, rel=1e-6)
    assert res.tau_c == pytest.approx(PUBLISHED_G2_TAU, rel=1e-6)
    assert res.q == pytest.approx(PUBLISHED_G2_Q, rel=1e-6)
    # theory overshoot: several times the measured -0.13
    assert res.q < -0.3
    assert 0.3 < res.tau_c * published_cfg.gamma_c < 0.8


def test_g2_fit_threshold_bunching(published_cfg, published_dist):
    cfg = published_cfg.with_n_atoms(12.0)
    p = steady_state(cfg, published_dist)
    curve = g2_regression(cfg, published_dist)
    res = q_and_tau_from_g2(curve, p.mean)
    assert res.c0 > 0.0
    assert res.c0 == pytest.approx(BUNCHED_G2_C0, rel=1e-6)
    assert res.tau_c == pytest.approx(BUNCHED_G2_TAU, rel=1e-6)
    assert res.q == pytest.approx(BUNCHED_G2_Q, rel=1e-6)
    assert res.tau_c * cfg.gamma_c > 1.0


def test_g2_summary_rejects_empty_field():
    tau = np.linspace(0.0, 1e-6, 5)
    curve = G2Curve(tau=tau, values=np.ones(5),
                    rates=np.array([-1e6]), weights=np.array([0.0]), plateau=0.0)
    with pytest.raises(ValueError):
        q_and_tau_from_g2(curve, 0.0)
    with pytest.raises(ValueError):
        G2Curve(tau=tau, values=np.ones(5),
                rates=np.array([-1e6, -2e6]), weights=np.array([0.0]), plateau=0.0)


def flux_balance_integral(cfg, dist):
    """Oracle for the integral of g2 - 1 over tau on a single kept block.

    Solves A x = -(W(0) - <n> P) without the spectrum: the net up-flux
    J_n = birth_n x_n - death_{n+1} x_{n+1} is the prefix sum of the source,
    and with x = P y detailed balance gives y_{n+1} = y_n - J_n / (birth_n P_n).
    The sum of x is fixed to 0, and the integral is sum n x_n / <n>^2.
    """
    p = steady_state(cfg, dist)
    gen = build_generator(cfg, dist, n_max=p.n_max)
    probs = p.probabilities
    (lo, hi), = quantum._runs(probs > quantum.SPECTRAL_FLOOR * probs.max())
    n = np.arange(lo, hi, dtype=float)
    pk = probs[lo:hi]
    source = (n + 1.0) * probs[lo + 1:hi + 1] - p.mean * pk
    flux = np.cumsum(source)[:-1]
    y = np.concatenate(([0.0], -np.cumsum(flux / (gen.birth[lo:hi - 1] * pk[:-1]))))
    x = pk * (y - (pk @ y) / pk.sum())
    return float(n @ x) / p.mean**2


@pytest.mark.parametrize("point, n_atoms", [
    ("published", 158.0), ("published", 12.0),
    ("scaled", 4.2), ("scaled", 0.5), ("scaled", 1.0), ("scaled", 20.0),
])
def test_g2_tau_c_matches_flux_balance_oracle(point, n_atoms, request):
    cfg = request.getfixturevalue(f"{point}_cfg").with_n_atoms(n_atoms)
    dist = request.getfixturevalue(f"{point}_dist")
    p = steady_state(cfg, dist)
    res = q_and_tau_from_g2(g2_regression(cfg, dist), p.mean)
    assert abs(res.plateau) < 1e-13
    assert res.tau_c * (res.c0 - res.plateau) == pytest.approx(
        flux_balance_integral(cfg, dist), rel=1e-10)


# random_config seeds: a Q = 0 crossing (weights cancel); a slow mode whose
# sign is opposite to the fast ones (g2 crosses its plateau); a bistable
# block whose switching mode (|lambda| ~ 1e-6 Gamma_c) eigh blends with the
# stationary one; and a single kept block with a valley that photons cross
# at |lambda| ~ 1e-11 Gamma_c, which eigh cannot tell from a second zero mode.
CROSSING_SEED, SIGN_CHANGE_SEED, BISTABLE_SEED, VALLEY_SEED = 13, 40, 4, 10


@pytest.mark.parametrize("n_atoms", [31.5, 32.0, 32.5, 33.0, 33.5, 34.0, 34.5, None])
def test_g2_plateau_matches_ode_reference(n_atoms, scaled_cfg, scaled_dist):
    # Two blocks (scaled config at <N> = 31.5-34.5) or a valley inside one
    # block: g2 levels off above 1 instead of decaying to it.
    cfg, dist = (
        random_config(np.random.default_rng(VALLEY_SEED)) if n_atoms is None
        else (scaled_cfg.with_n_atoms(n_atoms), scaled_dist)
    )
    p = steady_state(cfg, dist)
    res = q_and_tau_from_g2(g2_regression(cfg, dist), p.mean)
    assert res.plateau > 1e-4
    assert res.tau_c is not None and 0.0 < res.tau_c * cfg.gamma_c < 1.0
    late = np.array([0.0, 50.0 / cfg.gamma_c])
    assert ode_g2(cfg, dist, late)[-1] - 1.0 == pytest.approx(res.plateau, abs=1e-10)


def test_g2_crossing_has_no_tau_c(scaled_cfg, scaled_dist):
    # Q = 0 crossing: the decaying weights have mixed signs and cancel.
    cfg = scaled_cfg.with_n_atoms(1.5)
    p = steady_state(cfg, scaled_dist)
    curve = g2_regression(cfg, scaled_dist)
    res = q_and_tau_from_g2(curve, p.mean)
    assert res.weight_ratio < quantum.WEIGHT_RATIO_LIMIT
    assert res.tau_c is None
    assert res.c0 == pytest.approx(curve.values[0] - 1.0, abs=1e-15)
    assert res.c0 == pytest.approx(p.mandel_q / p.mean, rel=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config_seed=st.integers(0, 2**32 - 1))
@example(config_seed=CROSSING_SEED)
@example(config_seed=SIGN_CHANGE_SEED)
@example(config_seed=BISTABLE_SEED)
@example(config_seed=VALLEY_SEED)
def test_g2_summary_properties_random_configs(config_seed):
    cfg, dist = random_config(np.random.default_rng(config_seed))
    p = steady_state(cfg, dist)
    curve = g2_regression(cfg, dist, tau_grid=np.array([0.0]))
    res = q_and_tau_from_g2(curve, p.mean)
    w, rates = curve.weights, curve.rates
    scale = np.abs(w).sum() + abs(curve.plateau) + 1.0
    assert res.c0 == pytest.approx(curve.values[0] - 1.0, abs=1e-14 * scale)
    assert res.q == res.c0 * p.mean
    assert 0.0 <= res.weight_ratio <= 1.0
    assert np.all(rates < 0.0)
    # g2(infinity) - 1 is the spread of the block means of n: never negative
    assert res.plateau >= -1e-12
    integral = float((w / -rates).sum())
    if res.weight_ratio < quantum.WEIGHT_RATIO_LIMIT:
        assert res.tau_c is None
    elif res.tau_c is None:
        # slow modes of the other sign outweigh the integral: g2 crosses its plateau
        assert integral * w.sum() <= 0.0
    else:
        assert res.tau_c > 0.0
        assert res.tau_c * w.sum() == pytest.approx(integral, rel=1e-12)


def test_random_configs_null_vector_property():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        cfg, dist = random_config(rng)
        p = steady_state(cfg, dist)
        gen = build_generator(cfg, dist, n_max=p.n_max)
        assert np.max(np.abs(gen.matvec(p.probabilities))) / cfg.gamma_c < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config_seed=st.integers(0, 2**32 - 1), span=st.floats(0.0, 1.0))
@example(config_seed=BISTABLE_SEED, span=0.0)
def test_g2_c0_is_the_same_on_every_short_tau_grid(config_seed, span):
    # the window is trimmed over at least DEFAULT_TAU_SPAN_LIFETIMES / Gamma_c,
    # so no grid that ends before it moves the spectrum
    cfg, dist = random_config(np.random.default_rng(config_seed))
    p = steady_state(cfg, dist)
    if p.mean <= 0.0:
        return
    tau_max = span * quantum.DEFAULT_TAU_SPAN_LIFETIMES / cfg.gamma_c
    c0 = {
        q_and_tau_from_g2(g2_regression(cfg, dist, tau_grid=grid, steady=p), p.mean).c0
        for grid in (None, np.array([0.0]), np.linspace(0.0, tau_max, 7))
    }
    assert len(c0) == 1, c0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config_seed=st.integers(0, 2**32 - 1))
@example(config_seed=BISTABLE_SEED)
def test_g2_curve_skipping_underflowing_terms_keeps_every_bit(config_seed):
    cfg, dist = random_config(np.random.default_rng(config_seed))
    p = steady_state(cfg, dist)
    if p.mean <= 0.0:
        return
    far = np.geomspace(1e-3, 1e3, 300) / cfg.gamma_c  # far past 5 / Gamma_c
    for grid in (None, np.linspace(0.0, 50.0 / cfg.gamma_c, 300), far):
        curve = g2_regression(cfg, dist, tau_grid=grid, steady=p)
        exponents = np.outer(curve.tau, curve.rates)
        full = 1.0 + curve.plateau + np.exp(exponents) @ curve.weights
        assert np.array_equal(curve.values, full)
    assert (exponents <= quantum._EXP_CUT).any()  # the far grid skips terms
