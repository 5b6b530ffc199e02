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
    averaged_beta_table,
    injection_rate,
    interaction_time,
    load_config,
)
from microlaser.errors import ConfigError
from microlaser.quantum import effective_n_max
from conftest import random_config

# Independent high-precision evaluation (mpmath, 40 digits) of the closed
# form sin^2(g0 * sqrt(pi) * w / v) at the published operating point.
BETA_1_PUBLISHED = 0.013320611240921524
T_INT_PUBLISHED = 9.6894143849501543e-8


def beta(k, v, cfg):
    """The single-atom kernel in closed form, sin^2(sqrt(k) g0 t_int(v))."""
    return np.sin(np.sqrt(k) * (cfg.g0 * interaction_time(v, cfg.mode_waist))) ** 2


def beta_at(k, v, cfg):
    """The library's kernel for atoms all at speed v."""
    return averaged_beta(k, cfg, VelocityDistribution.delta(v))


def test_interaction_time_published_value(published_cfg):
    t = interaction_time(750.0, 41e-6)
    assert t == pytest.approx(T_INT_PUBLISHED, rel=1e-15)
    # quoted as "about 0.10 us"
    assert 0.095e-6 < t < 0.105e-6


def test_interaction_time_scalings():
    base = interaction_time(750.0, 41e-6)
    assert interaction_time(1500.0, 41e-6) == pytest.approx(base / 2.0, rel=1e-15)
    assert interaction_time(750.0, 82e-6) == pytest.approx(2.0 * base, rel=1e-15)


def test_interaction_time_monotonicity():
    velocities = np.linspace(100.0, 2000.0, 40)
    t = np.array([interaction_time(v, 41e-6) for v in velocities])
    assert np.all(np.diff(t) < 0.0)
    waists = np.linspace(10e-6, 100e-6, 40)
    t = np.array([interaction_time(750.0, w) for w in waists])
    assert np.all(np.diff(t) > 0.0)


def test_interaction_time_rejects_nonpositive():
    with pytest.raises(ValueError):
        interaction_time(0.0, 41e-6)
    with pytest.raises(ValueError):
        interaction_time(-5.0, 41e-6)
    with pytest.raises(ValueError):
        interaction_time(750.0, 0.0)


def test_beta_zero_photons_is_zero(published_cfg):
    assert beta_at(0, 750.0, published_cfg) == 0.0


def test_beta_reaches_unity_at_half_pi_pulse():
    # pick the coupling so sqrt(1) * g0 * t_int = pi/2 exactly
    t = interaction_time(750.0, 41e-6)
    cfg = MicrolaserConfig(
        g0=(math.pi / 2.0) / t, gamma_c=1e6, mode_waist=41e-6, v0=750.0,
        n_atoms_mean=1.0,
    )
    assert beta_at(1, 750.0, cfg) == pytest.approx(1.0, abs=1e-15)


def test_beta_value_against_high_precision_oracle(published_cfg):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    oracle = float(mp.sin(2 * mp.pi * mp.mpf("190e3") * mp.sqrt(mp.pi) * mp.mpf("41e-6") / 750) ** 2)
    assert oracle == pytest.approx(BETA_1_PUBLISHED, rel=1e-14)
    assert beta_at(1, 750.0, published_cfg) == pytest.approx(BETA_1_PUBLISHED, rel=1e-12)


def test_beta_bounds_random(published_cfg):
    rng = np.random.default_rng(11)
    k = rng.uniform(0.0, 5000.0, 500)
    v = rng.uniform(100.0, 2000.0, 500)
    for ki, vi in zip(k, v):
        assert 0.0 <= beta_at(ki, vi, published_cfg) <= 1.0


def test_averaged_beta_delta_equals_pointwise(published_delta_cfg):
    dist = VelocityDistribution.delta(750.0)
    for k in (1, 2.5, 17, 600):
        assert averaged_beta(k, published_delta_cfg, dist) == beta(k, 750.0, published_delta_cfg)


def test_averaged_beta_is_convex_combination(published_cfg, published_dist):
    rng = np.random.default_rng(5)
    for k in rng.uniform(0.5, 4000.0, 60):
        values = beta(k, published_dist.velocities, published_cfg)
        avg = averaged_beta(k, published_cfg, published_dist)
        assert values.min() - 1e-12 <= avg <= values.max() + 1e-12


def test_averaged_beta_large_k_approaches_half_with_mc_oracle(published_cfg, published_dist):
    # When the Rabi angle spans many pi across the quadrature the average
    # washes out to 1/2. Oracle: 1e6-sample Monte Carlo over the same
    # truncated Gaussian.
    k = 40000.0
    avg = averaged_beta(k, published_cfg, published_dist)
    rng = np.random.default_rng(123)
    sigma = published_dist.fwhm / FWHM_PER_SIGMA
    lo, hi = 750.0 - 3.0 * sigma, 750.0 + 3.0 * sigma
    samples = np.empty(0)
    while samples.size < 1_000_000:
        draw = rng.normal(750.0, sigma, 1_200_000)
        draw = draw[(draw >= lo) & (draw <= hi)]
        samples = np.concatenate([samples, draw])
    samples = samples[:1_000_000]
    mc = float(np.mean(beta(k, samples, published_cfg)))
    mc_sigma = float(np.std(beta(k, samples, published_cfg))) / 1000.0
    assert abs(avg - 0.5) < 0.05
    assert abs(avg - mc) < 5.0 * mc_sigma + 1e-4


# The basis size of the published config under the earlier 4 r / Gamma_c
# policy: the beta-bar checks keep this reach under the smaller default.
PUBLISHED_WIDE_N_MAX = 6921


def reference_averaged_beta(k, cfg, dist):
    """The kernel summed in plain Python floats: numpy's sines, then the
    terms of each k halved pairwise in a fixed order (while m are left, term
    i takes term i + m - m // 2)."""
    theta = cfg.g0 * interaction_time(dist.velocities, cfg.mode_waist)
    k_arr = np.asarray(k, dtype=float)
    sines = np.sin(np.sqrt(k_arr)[..., None] * theta).reshape(-1, theta.size)
    out = []
    for row in sines.tolist():
        terms = [s * s * w for s, w in zip(row, dist.weights.tolist())]
        while len(terms) > 1:
            half = len(terms) // 2
            rest = len(terms) - half
            terms = [terms[i] + terms[rest + i] for i in range(half)] + terms[half:rest]
        out.append(terms[0])
    return np.array(out).reshape(k_arr.shape)


def matmul_averaged_beta(k, cfg, dist):
    """The kernel as a matrix-vector product, whose rows round by position."""
    theta = cfg.g0 * interaction_time(dist.velocities, cfg.mode_waist)
    return np.sin(np.sqrt(np.asarray(k, dtype=float))[..., None] * theta) ** 2 @ dist.weights


def test_averaged_beta_matches_reference_bits(published_cfg, published_dist, scaled_cfg):
    delta = VelocityDistribution.from_config(scaled_cfg)
    ks = [3.7, 0.0, np.arange(1.0, 40.0), np.linspace(0.0, 900.0, 60).reshape(6, 10)]
    for cfg, dist in ((published_cfg, published_dist), (scaled_cfg, delta)):
        for k in ks:
            got = averaged_beta(k, cfg, dist)
            want = reference_averaged_beta(k, cfg, dist)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert type(averaged_beta(3.7, cfg, dist)) is float
    n_max = PUBLISHED_WIDE_N_MAX
    table = averaged_beta_table(n_max, published_cfg, published_dist)
    assert table.shape == (n_max,)
    k = np.arange(1.0, n_max + 1)
    assert np.array_equal(table, reference_averaged_beta(k, published_cfg, published_dist))
    # the fixed order moves no entry more than 2 ulp from the matrix product
    old = matmul_averaged_beta(k, published_cfg, published_dist)
    assert np.all(np.abs(table - old) <= 2.0 * np.spacing(old))
    # prefixes at the default basis and at twice the wide one
    default = effective_n_max(published_cfg)
    assert default < n_max
    assert np.array_equal(averaged_beta_table(default, published_cfg, published_dist),
                          table[:default])
    assert np.array_equal(
        averaged_beta_table(2 * n_max, published_cfg, published_dist)[:n_max], table
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    config_seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(1, 130),
    n=st.integers(2, 600),
    data=st.data(),
)
def test_averaged_beta_table_prefix_is_bit_exact(config_seed, nodes, n, data):
    # each entry is summed in a fixed order, so a smaller table is the prefix
    # of a larger one for any node count, odd ones included
    cfg, _ = random_config(np.random.default_rng(config_seed))
    dist = VelocityDistribution.gaussian(cfg.v0, max(cfg.dv_fwhm_frac, 0.05) * cfg.v0, nodes)
    m = data.draw(st.integers(1, n - 1), label="m")
    assert np.array_equal(
        averaged_beta_table(n, cfg, dist)[:m], averaged_beta_table(m, cfg, dist)
    )


def test_quadrature_doubling_stability(published_cfg):
    # Doubling the node count moves beta-bar by less than 1e-9 for every
    # k up to the basis of the earlier, wider policy.
    d64 = VelocityDistribution.from_config(published_cfg, n_nodes=64)
    d128 = VelocityDistribution.from_config(published_cfg, n_nodes=128)
    n_max = PUBLISHED_WIDE_N_MAX
    b64 = averaged_beta_table(n_max, published_cfg, d64)
    b128 = averaged_beta_table(n_max, published_cfg, d128)
    assert np.max(np.abs(b64 - b128)) < 1e-9


def test_velocity_distribution_invariants(published_cfg):
    dist = VelocityDistribution.from_config(published_cfg)
    assert dist.kind == "gaussian"
    assert np.all(dist.velocities > 0.0)
    assert np.all(dist.weights >= 0.0)
    assert abs(dist.weights.sum() - 1.0) <= 1e-12
    # very wide spread: support clipped to stay positive
    wide = VelocityDistribution.gaussian(500.0, 0.95 * 500.0)
    assert np.all(wide.velocities > 0.0)


def test_velocity_distribution_single_node_sits_at_v0():
    one = VelocityDistribution.gaussian(750.0, 0.45 * 750.0, n_nodes=1)
    assert one.velocities.tolist() == [750.0]
    assert one.weights.tolist() == [1.0]


def test_injection_rate_uses_v0(published_cfg):
    r = injection_rate(published_cfg)
    assert r == pytest.approx(158.0 / T_INT_PUBLISHED, rel=1e-12)


def test_config_validation_errors():
    good = dict(g0=1.0, gamma_c=1.0, mode_waist=1e-5, v0=700.0, n_atoms_mean=1.0)
    MicrolaserConfig(**good)
    for key, bad in [
        ("g0", 0.0),
        ("gamma_c", -1.0),
        ("mode_waist", 0.0),
        ("v0", 0.0),
        ("n_atoms_mean", -2.0),
        ("dv_fwhm_frac", 1.0),
        ("detection_efficiency", 0.0),
        ("detection_efficiency", 1.5),
        ("splitter_ratio", 1.0),
        ("n_max", 0),
    ] + [(key, bad) for key in ("g0", "gamma_c", "mode_waist", "v0", "n_atoms_mean")
         for bad in (math.inf, math.nan)]:
        with pytest.raises(ConfigError):
            MicrolaserConfig(**{**good, key: bad})
    with pytest.raises(ConfigError, match="n_atoms_mean must be finite"):
        MicrolaserConfig(**good).with_n_atoms(math.inf)


def test_config_file_roundtrip(tmp_path, published_cfg):
    path = tmp_path / "cfg.txt"
    path.write_text("".join(
        f"{key} = {value!r}\n" for key, value in published_cfg.to_dict().items()
        if value is not None
    ))
    loaded = load_config(path)
    assert loaded == published_cfg


def test_config_file_hz_conversion(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment line\n"
        "g0_hz = 190e3\n"
        "gamma_c_hz = 150e3  # trailing comment\n"
        "mode_waist = 41e-6\n"
        "v0 = 750\n"
        "n_atoms_mean = 158\n"
        "dv_fwhm_frac = 0.45\n"
    )
    cfg = load_config(path)
    assert cfg.g0 == pytest.approx(TWO_PI * 190e3, rel=1e-15)
    assert cfg.gamma_c == pytest.approx(TWO_PI * 150e3, rel=1e-15)


@pytest.mark.parametrize(
    "body",
    [
        "g0 = 1.0\ng0_hz = 2.0\nmode_waist = 1e-5\nv0 = 700\nn_atoms_mean = 1\ngamma_c = 1.0",
        "g0 = 1.0\nmode_waist = 1e-5\nv0 = 700\nn_atoms_mean = 1",  # missing gamma_c
        "bogus_key = 3\ng0 = 1\ngamma_c = 1\nmode_waist = 1e-5\nv0 = 700\nn_atoms_mean = 1",
        "g0 = not_a_number\ngamma_c = 1\nmode_waist = 1e-5\nv0 = 700\nn_atoms_mean = 1",
        "g0: 1.0\ngamma_c = 1\nmode_waist = 1e-5\nv0 = 700\nn_atoms_mean = 1",
    ],
)
def test_config_file_errors(tmp_path, body):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_config(path)


def test_fwhm_constant():
    assert FWHM_PER_SIGMA == pytest.approx(2.3548, abs=2e-4)
