import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microlaser.fitting import fit_exp_decay


def model(tau, c0, tau_c):
    return 1.0 + c0 * np.exp(-tau / tau_c)


def test_noiseless_recovery_decay():
    tau = np.linspace(0.0, 10e-6, 200)
    y = model(tau, 0.002, 1e-6)
    fit = fit_exp_decay(tau, y, sigma=np.full_like(tau, 1e-4))
    assert fit.c0 == pytest.approx(0.002, rel=1e-9)
    assert fit.tau_c == pytest.approx(1e-6, rel=1e-9)
    assert fit.chi2_reduced < 1e-18


def test_noiseless_recovery_negative_amplitude():
    tau = np.linspace(0.0, 5.0, 400)
    y = model(tau, -0.0003, 0.7)
    fit = fit_exp_decay(tau, y, sigma=np.full_like(tau, 1e-9))
    assert fit.c0 == pytest.approx(-0.0003, rel=1e-8)
    assert fit.tau_c == pytest.approx(0.7, rel=1e-8)


def test_flat_curve_reports_no_signal():
    rng = np.random.default_rng(0)
    tau = np.linspace(0.0, 1.0, 100)
    sigma = np.full_like(tau, 0.1)
    y = 1.0 + 0.01 * rng.standard_normal(100) * sigma  # well inside 2 sigma
    fit = fit_exp_decay(tau, y, sigma=sigma)
    assert fit.flat
    assert fit.c0 == 0.0
    assert fit.tau_c is None
    assert fit.cov is None
    assert np.isfinite(fit.chi2_reduced)


def test_sign_recovery_monte_carlo():
    # weak antibunching dip against shot noise: the sign must come out
    # negative in at least 95 of 100 seeded realizations
    tau = np.arange(500) * 1.0
    truth = model(tau, -0.0003, 100.0)
    sigma = np.full_like(tau, 0.00013)
    negative = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        y = truth + sigma * rng.standard_normal(tau.size)
        fit = fit_exp_decay(tau, y, sigma=sigma)
        if fit.flat:
            continue
        if fit.c0 < 0.0:
            negative += 1
    assert negative >= 95


def test_coverage_of_one_sigma_intervals():
    # 68% intervals should contain the truth at roughly the nominal rate
    tau = np.arange(200) * 1.0
    c0_true, tau_true = 0.01, 30.0
    truth = model(tau, c0_true, tau_true)
    sigma = np.full_like(tau, 0.001)
    hits_c0 = hits_tau = 0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        y = truth + sigma * rng.standard_normal(tau.size)
        fit = fit_exp_decay(tau, y, sigma=sigma)
        if abs(fit.c0 - c0_true) <= fit.c0_sigma:
            hits_c0 += 1
        if abs(fit.tau_c - tau_true) <= fit.tau_c_sigma:
            hits_tau += 1
    assert 60 <= hits_c0 <= 76
    assert 60 <= hits_tau <= 76


def test_input_validation():
    with pytest.raises(ValueError):
        fit_exp_decay(np.arange(2.0), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        fit_exp_decay(np.arange(5.0), np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        fit_exp_decay(np.arange(5.0), np.ones(5), np.ones(4))
    with pytest.raises(ValueError):
        fit_exp_decay(np.arange(5.0), np.ones(5), sigma=np.zeros(5))
    with pytest.raises(ValueError):
        fit_exp_decay(np.ones(5), np.full(5, 5.0), np.ones(5))


def test_bunching_curve_recovery():
    tau = np.linspace(0.0, 20.0, 300)
    y = model(tau, 0.05, 3.0)
    fit = fit_exp_decay(tau, y, sigma=np.full_like(tau, 1e-9))
    assert fit.c0 == pytest.approx(0.05, rel=1e-8)
    assert fit.tau_c == pytest.approx(3.0, rel=1e-8)


def test_single_high_first_bin_is_flat():
    # one bin 6 sigma high on shot noise: a decay shorter than one bin is not
    # resolvable, so the fit must neither run off to tau_c below one bin nor
    # fail, whatever the noise
    tau = (np.arange(249) + 1.5) * 20e-9
    sigma = np.full_like(tau, 0.01)
    for seed in range(20):
        y = 1.0 + sigma * np.random.default_rng(seed).standard_normal(tau.size)
        y[0] += 6.0 * sigma[0]
        fit = fit_exp_decay(tau, y, sigma)
        assert fit.flat, (seed, fit)
        assert fit.tau_c is None and fit.cov is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(20, 400),
    log_spacing=st.floats(math.log(1e-9), 0.0),
    offset=st.sampled_from([0.0, 1.5]),
    tau_frac=st.floats(0.0, 1.0),
    log_c0=st.floats(math.log(1e-3), 0.0),
    negative=st.booleans(),
)
def test_noiseless_recovery_property(n, log_spacing, offset, tau_frac, log_c0, negative):
    # tau_c log-uniform in [3 spacings, span / 3], |c0| in [1e-3, 1], either sign
    spacing = math.exp(log_spacing)
    tau = spacing * (np.arange(n) + offset)
    lo, hi = math.log(3.0 * spacing), math.log((n - 1) * spacing / 3.0)
    tau_c = math.exp(lo + tau_frac * (hi - lo))
    c0 = -math.exp(log_c0) if negative else math.exp(log_c0)
    fit = fit_exp_decay(tau, model(tau, c0, tau_c), np.full(n, 1e-6))
    assert not fit.flat
    assert fit.c0 == pytest.approx(c0, rel=1e-9)
    assert fit.tau_c == pytest.approx(tau_c, rel=1e-9)
