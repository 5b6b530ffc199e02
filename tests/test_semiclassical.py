import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microlaser.core import (
    FWHM_PER_SIGMA,
    TWO_PI,
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta,
    injection_rate,
    interaction_time,
)
from microlaser import semiclassical
from microlaser.semiclassical import (
    FixedPoint,
    SweepPoint,
    SweepResult,
    find_fixed_points,
    gain_derivative,
    restoring_rate,
    sweep,
)
from conftest import random_config

# Frozen regression constants for the published configuration, tabulated by
# an independent 2^14-node equal-spacing quadrature of the closed-form gain
# (see gain_oracle below).
GAIN_PUBLISHED_ORACLE = {
    0.0: 24496130.601937726,
    100.0: 1342144844.6690981,
    500.0: 601460086.68458,
}
FIXED_POINT_PUBLISHED = 548.9075872898102
TAU_C_PUBLISHED_SC = 4.1602429479115196e-07  # 0.392 cavity lifetimes
Q_PUBLISHED_SC = -0.6079063395307728


def gain_oracle(cfg, n, n_nodes=2**14):
    """Independent dense-trapezoid evaluation of the velocity-averaged gain."""
    sigma = cfg.dv_fwhm_frac * cfg.v0 / FWHM_PER_SIGMA
    v = np.linspace(cfg.v0 - 3 * sigma, cfg.v0 + 3 * sigma, n_nodes)
    w = np.exp(-0.5 * ((v - cfg.v0) / sigma) ** 2)
    w[0] *= 0.5
    w[-1] *= 0.5
    w /= w.sum()
    theta = cfg.g0 * interaction_time(v, cfg.mode_waist)
    return injection_rate(cfg) * float(np.sin(np.sqrt(n + 1.0) * theta) ** 2 @ w)


def gain(n, cfg, dist):
    """The rate-equation gain G(n) = r * beta-bar(n + 1) from the library kernel."""
    return injection_rate(cfg) * averaged_beta(np.asarray(n, dtype=float) + 1.0, cfg, dist)


def test_gain_zero_pump(published_cfg, published_dist):
    cfg = published_cfg.with_n_atoms(0.0)
    for n in (0.0, 10.0, 500.0):
        assert gain(n, cfg, published_dist) == 0.0


def test_gain_vanishes_at_full_rabi_cycle(published_delta_cfg):
    dist = VelocityDistribution.delta(750.0)
    theta = published_delta_cfg.g0 * interaction_time(750.0, published_delta_cfg.mode_waist)
    n = (math.pi / theta) ** 2 - 1.0
    value = gain(n, published_delta_cfg, dist)
    assert value < 1e-12 * injection_rate(published_delta_cfg)


def test_gain_bounded_by_injection_rate(published_cfg, published_dist):
    rng = np.random.default_rng(2)
    n = rng.uniform(0.0, 5000.0, 300)
    g = gain(n, published_cfg, published_dist)
    r = injection_rate(published_cfg)
    assert np.all(g >= 0.0)
    assert np.all(g <= r)


def test_gain_frozen_regression_constants(published_cfg, published_dist):
    for n, frozen in GAIN_PUBLISHED_ORACLE.items():
        live_oracle = gain_oracle(published_cfg, n)
        assert live_oracle == pytest.approx(frozen, rel=1e-12)
        assert gain(n, published_cfg, published_dist) == pytest.approx(frozen, rel=1e-9)


def test_gain_derivative_analytic_matches_central(published_cfg, published_dist):
    def central(n):
        h = max(1e-3, 1e-6 * n)
        lo, hi = max(n - h, 0.0), n + h
        g = gain(np.array([lo, hi]), published_cfg, published_dist)
        return (g[1] - g[0]) / (hi - lo)

    for n in (37.0, 200.0, 548.9, 1500.0):
        analytic = gain_derivative(n, published_cfg, published_dist)
        assert analytic == pytest.approx(central(n), rel=1e-6, abs=1e-6 * published_cfg.gamma_c)
    # at n = 0 the stencil is one-sided, so only O(h) agreement is available
    analytic = gain_derivative(0.0, published_cfg, published_dist)
    assert analytic == pytest.approx(central(0.0), rel=1e-4)


def test_fixed_point_zero_pump(published_cfg, published_dist):
    cfg = published_cfg.with_n_atoms(0.0)
    points = find_fixed_points(cfg, published_dist)
    assert len(points) == 1
    fp = points[0]
    assert fp.n0 == 0.0
    assert fp.stable
    assert fp.tau_c == pytest.approx(1.0 / cfg.gamma_c, rel=1e-9)
    assert fp.q_semiclassical == pytest.approx(0.0, abs=1e-9)


def test_fixed_point_saturated_gain_gives_cavity_limited_restoring():
    # Root placed exactly on the sin^2 maximum: G'(n0) = 0 there, so the
    # restoring rate is the bare cavity rate, tau_c = 1/Gamma_c and Q = 0
    # (the conventional-laser limit).
    t = interaction_time(750.0, 41e-6)
    n0 = 100.0
    g0 = (math.pi / 2.0) / (math.sqrt(n0 + 1.0) * t)
    gamma_c = TWO_PI * 150e3
    n_atoms = n0 * gamma_c * t  # r = n0 * Gamma_c, beta(n0+1) = 1
    cfg = MicrolaserConfig(
        g0=g0, gamma_c=gamma_c, mode_waist=41e-6, v0=750.0, n_atoms_mean=n_atoms
    )
    dist = VelocityDistribution.delta(750.0)
    points = [fp for fp in find_fixed_points(cfg, dist) if fp.stable and fp.n0 > 1]
    fp = min(points, key=lambda f: abs(f.n0 - n0))
    assert fp.n0 == pytest.approx(n0, rel=1e-6)
    assert fp.tau_c == pytest.approx(1.0 / gamma_c, rel=1e-4)
    assert fp.q_semiclassical == pytest.approx(0.0, abs=1e-4)


def test_fixed_point_published_config(published_cfg, published_dist):
    points = find_fixed_points(published_cfg, published_dist)
    stable = [fp for fp in points if fp.stable]
    assert len(stable) == 1
    fp = stable[0]
    # several hundred photons at the operating point
    assert 300.0 < fp.n0 < 800.0
    assert fp.n0 == pytest.approx(FIXED_POINT_PUBLISHED, rel=1e-9)
    assert fp.tau_c == pytest.approx(TAU_C_PUBLISHED_SC, rel=1e-9)
    assert fp.q_semiclassical == pytest.approx(Q_PUBLISHED_SC, rel=1e-9)
    # about half the cavity decay time
    assert 0.3 < fp.tau_c * published_cfg.gamma_c < 0.8


def test_fixed_point_dense_scan_oracle(published_cfg, published_dist):
    # Independent check: a dense scan at step 1e-3 brackets the same root.
    grid = np.arange(FIXED_POINT_PUBLISHED - 1.0, FIXED_POINT_PUBLISHED + 1.0, 1e-3)
    f = gain(grid, published_cfg, published_dist) - published_cfg.gamma_c * grid
    idx = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
    assert idx.size == 1
    lo, hi = grid[idx[0]], grid[idx[0] + 1]
    assert lo <= FIXED_POINT_PUBLISHED <= hi


def test_residual_small_at_roots(published_cfg, published_dist):
    for fp in find_fixed_points(published_cfg, published_dist):
        g = gain(fp.n0, published_cfg, published_dist)
        l = published_cfg.gamma_c * fp.n0
        assert abs(g - l) <= 1e-6 * max(g, l, published_cfg.gamma_c)


def test_identity_and_sign_properties_random_configs():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(12):
        cfg, dist = random_config(rng)
        for fp in find_fixed_points(cfg, dist):
            if not fp.stable:
                continue
            checked += 1
            q = fp.q_semiclassical
            tau = fp.tau_c
            assert q == pytest.approx(cfg.gamma_c * tau - 1.0, rel=1e-9, abs=1e-12)
            gprime = gain_derivative(fp.n0, cfg, dist)
            assert (q < 0) == (gprime < 0) or abs(gprime) < 1e-6 * cfg.gamma_c
            assert (tau < 1.0 / cfg.gamma_c) == (q < 0) or abs(q) < 1e-9
    assert checked >= 12


def test_unstable_point_rejected(published_cfg, published_dist):
    cfg = published_cfg.with_n_atoms(250.0)
    points = find_fixed_points(cfg, published_dist)
    unstable = [fp for fp in points if not fp.stable]
    assert unstable, "expected an unstable root between the two branches"
    assert unstable[0].tau_c is None
    assert unstable[0].q_semiclassical is None


def test_sweep_monotone_below_first_jump(published_cfg, published_dist):
    n_list = list(np.arange(2.0, 100.0, 4.0))
    result = sweep(published_cfg, published_dist, n_list, "up")
    selected = np.array([pt.selected.n0 for pt in result.points])
    assert np.all(np.diff(selected) >= 0.0)


def test_sweep_jump_and_hysteresis(published_cfg, published_dist):
    n_list = list(np.arange(100.0, 401.0, 10.0))
    up = sweep(published_cfg, published_dist, n_list, "up")
    down = sweep(published_cfg, published_dist, list(reversed(n_list)), "down")
    sel_up = np.array([pt.selected.n0 for pt in up.points])
    sel_down = np.array([pt.selected.n0 for pt in down.points])[::-1]
    jump_up = int(np.argmax(np.diff(sel_up)))
    jump_down = int(np.argmax(np.diff(sel_down)))
    assert np.diff(sel_up)[jump_up] > 500.0
    assert np.diff(sel_down)[jump_down] > 500.0
    n_jump_up = n_list[jump_up]
    n_jump_down = n_list[jump_down]
    assert 200.0 <= n_jump_up <= 600.0
    assert n_jump_down < n_jump_up
    # overlapping stable branches in between: the root census shows both
    overlap = [
        pt for pt in up.points
        if n_jump_down < pt.n_atoms_mean <= n_jump_up
        and sum(fp.stable for fp in pt.fixed_points) >= 2
    ]
    assert overlap


def test_sweep_determinism(published_cfg, published_dist):
    n_list = list(np.arange(5.0, 80.0, 7.0))
    a = sweep(published_cfg, published_dist, n_list, "up")
    b = sweep(published_cfg, published_dist, n_list, "up")
    assert a == b


def test_sweep_validates_order(published_cfg, published_dist):
    with pytest.raises(ValueError):
        sweep(published_cfg, published_dist, [1.0, 3.0, 2.0], "up")
    with pytest.raises(ValueError):
        sweep(published_cfg, published_dist, [3.0, 1.0], "up")
    with pytest.raises(ValueError):
        sweep(published_cfg, published_dist, [], "up")
    with pytest.raises(ValueError):
        sweep(published_cfg, published_dist, [1.0], "sideways")


def test_sweep_rejects_an_infinite_pump(scaled_cfg, scaled_dist):
    with pytest.raises(ValueError, match="n_atoms_mean must be finite"):
        sweep(scaled_cfg, scaled_dist, [1.0, math.inf], "up")


def _scalar_fixed_points(cfg, dist, grid_step=0.25):
    """Reference: one pump's roots by a scalar bisection of each grid bracket."""
    r = injection_rate(cfg)
    n_scan_max = 1.1 * r / cfg.gamma_c + 10.0
    grid = np.arange(0.0, n_scan_max + grid_step, grid_step)
    f = gain(grid, cfg, dist) - cfg.gamma_c * grid

    roots = []
    if gain(0.0, cfg, dist) <= 1e-12 * max(r, cfg.gamma_c):
        roots.append(0.0)
    for i in np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0):
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(f[i])
        while (b - a) > semiclassical.ROOT_RTOL * max(1.0, abs(b)):
            mid = 0.5 * (a + b)
            fm = float(gain(mid, cfg, dist) - cfg.gamma_c * mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    for i in np.flatnonzero(f == 0.0):
        roots.append(float(grid[i]))

    roots.sort()
    deduped = []
    for n0 in roots:
        if not deduped or n0 - deduped[-1] > 1e-6 * max(1.0, n0):
            deduped.append(n0)
    points = []
    for n0 in deduped:
        d = restoring_rate(n0, cfg, dist)
        if d > 0.0:
            points.append(FixedPoint(n0, True, d, 1.0 / d, cfg.gamma_c / d - 1.0))
        else:
            points.append(FixedPoint(n0, False, d, None, None))
    return points


def _scalar_sweep(cfg_template, dist, n_list, direction):
    """Reference: the branch-following sweep over one scalar census per pump."""
    points = []
    previous = None
    for n_atoms in n_list:
        cfg = cfg_template.with_n_atoms(n_atoms)
        census = _scalar_fixed_points(cfg, dist)
        stable = [fp for fp in census if fp.stable]
        if not stable:
            points.append(SweepPoint(n_atoms, None, tuple(census), error="no stable fixed point"))
            continue
        if previous is None:
            chosen = min(stable, key=lambda fp: fp.n0)
        else:
            chosen = min(stable, key=lambda fp: abs(fp.n0 - previous))
        previous = chosen.n0
        points.append(SweepPoint(n_atoms, chosen, tuple(census)))
    return SweepResult(direction=direction, points=tuple(points))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    config_seed=st.integers(0, 2**32 - 1),
    pumps=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=6, unique=True),
    descending=st.booleans(),
    grid_step=st.one_of(st.just(1), st.floats(0.05, 1.0)),
)
def test_batched_census_matches_scalar_bisection(config_seed, pumps, descending, grid_step):
    cfg, dist = random_config(np.random.default_rng(config_seed))
    n_list = sorted(pumps, reverse=descending)
    direction = "down" if descending else "up"
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(sweep(cfg, dist, n_list, direction)) == repr(
        _scalar_sweep(cfg, dist, n_list, direction)
    )
    one = cfg.with_n_atoms(n_list[0])
    assert repr(find_fixed_points(one, dist)) == repr(_scalar_fixed_points(one, dist))
    # the census on another grid, against the scalar bisection on that grid
    (roots,) = semiclassical._roots([one], dist, [semiclassical._scan_max(one)], grid_step)
    assert repr(roots) == repr([fp.n0 for fp in _scalar_fixed_points(one, dist, grid_step)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    config_seed=st.integers(0, 2**32 - 1),
    pump=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
)
def test_census_is_never_empty(config_seed, pump):
    # G - L >= 0 at n = 0 and < 0 at the end of the scan, so a root lies between
    cfg, dist = random_config(np.random.default_rng(config_seed))
    assert find_fixed_points(cfg.with_n_atoms(pump), dist)


@pytest.mark.parametrize("which", ["scaled", "published"])
def test_reference_sweeps_match_scalar_bisection(which, request):
    cfg = request.getfixturevalue(f"{which}_cfg")
    dist = request.getfixturevalue(f"{which}_dist")
    n_list = (np.arange(0.5, 40.01, 0.5) if which == "scaled" else np.arange(5.0, 300.01, 5.0)).tolist()
    for direction, pumps in (("up", n_list), ("down", n_list[::-1])):
        assert repr(sweep(cfg, dist, pumps, direction)) == repr(
            _scalar_sweep(cfg, dist, pumps, direction)
        )
