"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria use fixed seeds so the suite is deterministic.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from microlaser.core import MicrolaserConfig, VelocityDistribution, averaged_beta_table
from microlaser import correlator, quantum, semiclassical, trajectory
from microlaser.streams import TimestampStream
from conftest import PUBLISHED_KWARGS, SCALED_KWARGS, random_config

from test_correlator import brute_force_counts


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


def acceptance_configs():
    """Published configuration (both velocity spreads) plus 20 randomized ones."""
    configs = []
    for frac in (0.0, 0.45):
        cfg = MicrolaserConfig(**{**PUBLISHED_KWARGS, "dv_fwhm_frac": frac})
        configs.append((cfg, VelocityDistribution.from_config(cfg)))
    rng = np.random.default_rng(20260810)
    for _ in range(20):
        configs.append(random_config(rng))
    return configs


def test_criterion_01_null_space_oracle():
    worst = 0.0
    for cfg, dist in acceptance_configs():
        p = quantum.steady_state(cfg, dist)
        gen = quantum.build_generator(cfg, dist, n_max=p.n_max)
        residual = float(np.max(np.abs(gen.matvec(p.probabilities)))) / cfg.gamma_c
        worst = max(worst, residual)
    report(1, "null-space oracle", worst < 1e-10, f"worst |A P|_inf / Gamma_c = {worst:.3e}")


def test_criterion_02_g2_zero_moment_identity():
    worst = 0.0
    for cfg, dist in acceptance_configs():
        p = quantum.steady_state(cfg, dist)
        if p.mean <= 0.0:
            continue
        curve = quantum.g2_regression(cfg, dist, tau_grid=np.array([0.0]))
        expected = 1.0 + p.mandel_q / p.mean
        worst = max(worst, abs(curve.values[0] - expected) / abs(expected))
    report(2, "g2(0) = 1 + Q/<n>", worst < 1e-8, f"worst relative deviation = {worst:.3e}")


def test_criterion_03_semiclassical_identity():
    # Independent side: mpmath differentiates the velocity-averaged gain
    # r * sum_j w_j sin^2(sqrt(n + 1) theta_j) numerically at 30 digits over
    # the same quadrature nodes; Q = Gamma_c / (Gamma_c - G') - 1. Both
    # FixedPoint.q_semiclassical and Gamma_c * FixedPoint.tau_c - 1 must match.
    import mpmath as mp

    mp.mp.dps = 30
    worst = 0.0
    n_points = 0
    for cfg, dist in acceptance_configs():
        r = mp.mpf(cfg.n_atoms_mean) * mp.mpf(cfg.v0) / (mp.sqrt(mp.pi) * mp.mpf(cfg.mode_waist))
        thetas = [
            mp.mpf(cfg.g0) * mp.sqrt(mp.pi) * mp.mpf(cfg.mode_waist) / mp.mpf(v)
            for v in dist.velocities
        ]
        weights = [mp.mpf(w) for w in dist.weights]

        def gain(n):
            kernel = (w * mp.sin(mp.sqrt(n + 1) * th) ** 2 for w, th in zip(weights, thetas))
            return r * mp.fsum(kernel)

        for fp in semiclassical.find_fixed_points(cfg, dist):
            if not fp.stable:
                continue
            n_points += 1
            gamma_c = mp.mpf(cfg.gamma_c)
            q_ref = float(gamma_c / (gamma_c - mp.diff(gain, mp.mpf(fp.n0))) - 1)
            for q in (fp.q_semiclassical, cfg.gamma_c * fp.tau_c - 1.0):
                worst = max(worst, abs(q - q_ref) / max(abs(q_ref), 1e-9))
    report(
        3, "Q = Gamma_c tau_c - 1", worst < 1e-9 and n_points >= 20,
        f"{n_points} stable points, worst relative deviation from mpmath = {worst:.3e}",
    )


def test_criterion_04_bunching_antibunching_transition():
    # Over [5, 300] mean atoms the birth-death model passes a threshold on
    # each of two gain lobes of beta-bar (Filipowicz, Javanainen & Meystre,
    # PRA 34, 3077 (1986)), so Q crosses zero three times. On the first lobe
    # it falls from + to - once, at low pump. Inside the rate equation's
    # bistable window the mode of P(n) then jumps to the second lobe. The
    # steady state is not bimodal there: one sweep step past the jump the
    # first-lobe peak holds about 3e-4 of the probability at the new mode.
    # The field lands just above the second lobe's own threshold, where Q is
    # positive again (the rate-equation Q at the occupied root is also
    # positive), and Q falls through zero once more as the pump rises. The
    # check asks for exactly that, and for nothing wider:
    #   (a) each point is labelled by the lobe that holds argmax P(n); lobe
    #       edges are the local minima of beta-bar_k, and photon number n
    #       sits on the lobe of beta-bar_{n+1}, the factor in its gain;
    #   (b) the label never decreases and steps up exactly once;
    #   (c) at both points on either side of that step the rate equation
    #       has a stable root on each of the two lobes;
    #   (d) within each lobe Q crosses zero at most once, from + to -;
    #   (e) on the first lobe Q crosses exactly once, below <N> = 40, and
    #       reaches Q <= -0.3.
    cfg0 = MicrolaserConfig(**{**PUBLISHED_KWARGS, "dv_fwhm_frac": 0.45})
    dist = VelocityDistribution.from_config(cfg0)
    n_max = 4096
    n_values = np.arange(5.0, 300.1, 5.0)

    beta_bar = averaged_beta_table(n_max, cfg0, dist)
    inner = beta_bar[1:-1]
    edges_k = np.flatnonzero((inner < beta_bar[:-2]) & (inner < beta_bar[2:])) + 2

    def lobe(n):
        return int(np.searchsorted(edges_k, n + 1, side="right"))

    qs = np.empty(n_values.size)
    lobes = np.empty(n_values.size, dtype=int)
    root_lobes = []
    bistable = np.empty(n_values.size, dtype=bool)
    for i, n_atoms in enumerate(n_values):
        cfg = cfg0.with_n_atoms(float(n_atoms))
        p = quantum.steady_state(replace(cfg, n_max=n_max), dist)
        qs[i] = p.mandel_q
        lobes[i] = lobe(int(np.argmax(p.probabilities)))
        stable = [fp.n0 for fp in semiclassical.find_fixed_points(cfg, dist) if fp.stable]
        root_lobes.append({lobe(n0) for n0 in stable})
        bistable[i] = len(stable) > 1

    ok_a = edges_k.size > 0
    steps = np.diff(lobes)
    ok_b = bool(np.all(steps >= 0)) and int(steps.sum()) == 1
    jump = int(np.argmax(steps))
    lo, hi = int(lobes[jump]), int(lobes[jump + 1])
    ok_c = ok_b and all({lo, hi} <= root_lobes[i] for i in (jump, jump + 1))

    per_lobe = []
    for label in np.unique(lobes):
        idx = np.flatnonzero(lobes == label)
        q, n = qs[idx], n_values[idx]
        cross = np.flatnonzero(np.sign(q[:-1]) * np.sign(q[1:]) < 0)
        per_lobe.append((int(label), n, q, cross))
    ok_d = all(cross.size <= 1 and np.all(q[cross] > 0.0) for _, _, q, cross in per_lobe)
    _, n1, q1, cross1 = per_lobe[0]
    first_below_40 = cross1.size == 1 and n1[cross1[0] + 1] < 40.0
    ok_e = first_below_40 and q1.min() <= -0.3

    window = n_values[bistable]
    window_text = f"[{window[0]:g}, {window[-1]:g}]" if window.size else "none"
    lobe_text = "; ".join(
        f"lobe {label}: crossings {[(float(n[c]), float(n[c + 1])) for c in cross]}, "
        f"min Q = {q.min():.3f} at N = {float(n[np.argmin(q)]):g}"
        for label, n, q, cross in per_lobe
    )
    report(
        4, "one super->sub transition per gain lobe", ok_a and ok_b and ok_c and ok_d and ok_e,
        f"lobe edges at k = {edges_k.tolist()}; mode jumps lobe {lo}->{hi} between "
        f"N = {n_values[jump]:g} and {n_values[jump + 1]:g}, rate-equation bistable "
        f"for N in {window_text}; {lobe_text}; clauses a-e: "
        f"{ok_a}, {ok_b}, {ok_c}, {ok_d}, {ok_e} (first-lobe crossing below 40: {first_below_40})",
    )


def test_criterion_05_correlation_time_scale():
    cfg0 = MicrolaserConfig(**{**PUBLISHED_KWARGS, "dv_fwhm_frac": 0.45})
    dist = VelocityDistribution.from_config(cfg0)

    cfg = cfg0.with_n_atoms(158.0)
    p = quantum.steady_state(cfg, dist)
    fit_stab = quantum.q_and_tau_from_g2(quantum.g2_regression(cfg, dist), p.mean)
    stabilized_ok = 0.3 / cfg.gamma_c <= fit_stab.tau_c <= 0.8 / cfg.gamma_c

    cfg = cfg0.with_n_atoms(12.0)
    p = quantum.steady_state(cfg, dist)
    fit_thr = quantum.q_and_tau_from_g2(quantum.g2_regression(cfg, dist), p.mean)
    threshold_ok = fit_thr.tau_c > 1.0 / cfg.gamma_c

    report(
        5, "tau_c scale", stabilized_ok and threshold_ok,
        f"tau_c * Gamma_c = {fit_stab.tau_c * cfg.gamma_c:.3f} at N=158, "
        f"{fit_thr.tau_c * cfg.gamma_c:.3f} at N=12",
    )


def test_criterion_06_trajectory_theory_equivalence():
    cfg = MicrolaserConfig(**SCALED_KWARGS)
    dist = VelocityDistribution.from_config(cfg)
    p_ss = quantum.steady_state(cfg, dist)
    duration = 5000.0 / cfg.gamma_c
    rec = trajectory.simulate(cfg, dist, duration, seed=42)
    occ = trajectory.photon_number_histogram(rec)
    tv = trajectory.total_variation_distance(occ, p_ss)

    fp = [f for f in semiclassical.find_fixed_points(cfg, dist) if f.stable][-1]
    t_eff = duration - 20.0 / cfg.gamma_c
    se = math.sqrt(p_ss.variance * 2.0 * fp.tau_c / t_eff)
    mean_dev = abs(occ.mean - p_ss.mean)
    ok = tv <= 0.05 and mean_dev <= 3.0 * se
    report(
        6, "trajectory vs theory occupancy", ok,
        f"TV = {tv:.4f} (limit 0.05), |<n>_sim - <n>| = {mean_dev:.3f} "
        f"vs 3 SE = {3.0 * se:.3f}, <n> = {p_ss.mean:.2f}",
    )


def test_criterion_07_end_to_end_pipeline():
    cfg = MicrolaserConfig(**SCALED_KWARGS)
    dist = VelocityDistribution.from_config(cfg)
    p_ss = quantum.steady_state(cfg, dist)
    theory = quantum.q_and_tau_from_g2(quantum.g2_regression(cfg, dist), p_ss.mean)
    duration = 10000.0 / cfg.gamma_c
    bin_width = 20e-9
    window = 5.0 / cfg.gamma_c
    passes = 0
    details = []
    for seed in range(10):
        rec = trajectory.simulate(cfg, dist, duration, seed=seed, record_path=False)
        est = correlator.normalize(
            correlator.correlate(rec.stream1, rec.stream2, bin_width, window)
        )
        fit = correlator.fit_exponential(est)
        tau_tol = max(0.10 * theory.tau_c, 3.0 * fit.tau_c_sigma)
        tau_ok = abs(fit.tau_c - theory.tau_c) <= tau_tol
        sign_ok = (fit.c0 < 0.0) == (theory.q < 0.0)
        passes += bool(tau_ok and sign_ok)
        details.append(f"{fit.tau_c / theory.tau_c:.2f}")
    report(
        7, "simulate-correlate-fit recovery", passes >= 8,
        f"{passes}/10 seeds recover tau_c (ratios: {', '.join(details)}), "
        f"theory tau_c * Gamma_c = {theory.tau_c * cfg.gamma_c:.3f}",
    )


def test_criterion_08_correlator_exactness():
    rng = np.random.default_rng(88)
    mismatches = 0
    for _ in range(200):
        na, nb = rng.integers(0, 10001, 2)
        duration = 1.0
        a = TimestampStream(np.sort(rng.uniform(0, duration, na)), 1, duration)
        b = TimestampStream(np.sort(rng.uniform(0, duration, nb)), 2, duration)
        bin_width = rng.uniform(5e-5, 2e-3)
        window = bin_width * int(rng.integers(2, 400))
        h = correlator.correlate(a, b, bin_width, window)
        brute = brute_force_counts(a.times, b.times, bin_width, window)
        if not np.array_equal(h.counts, brute):
            mismatches += 1

    # partitioned starts merged must be bit-identical to the serial result
    a = TimestampStream(np.sort(rng.uniform(0, 1.0, 20000)), 1, 1.0)
    b = TimestampStream(np.sort(rng.uniform(0, 1.0, 20000)), 2, 1.0)
    whole = correlator.correlate(a, b, 1e-5, 5e-3)
    cuts = np.linspace(0, 20000, 7).astype(int)
    parts = [
        correlator.correlate(TimestampStream(a.times[lo:hi], 1, 1.0), b, 1e-5, 5e-3)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    merged = correlator.merge_histograms(parts)
    merge_ok = np.array_equal(merged.counts, whole.counts)
    report(
        8, "correlator exactness", mismatches == 0 and merge_ok,
        f"{mismatches}/200 brute-force mismatches, merge bit-identical: {merge_ok}",
    )


def test_criterion_09_shot_noise_floor():
    # invert the published floor (0.00013 rms, 3 MHz rates, 300 s)
    rms, rate, t_acq = 0.00013, 3e6, 300.0
    bin_width = 1.0 / (rms**2 * rate * rate * t_acq)
    inversion_ok = 15e-9 <= bin_width <= 30e-9

    # Monte Carlo check of the formula on uncorrelated Poisson streams.
    # (A spread-sheet slip in planning quoted 0.1 for this point; the formula
    # value at 100 kHz / 1 us / 10 s is 1/sqrt(1e5) ~ 3.16e-3 and the
    # simulation agrees with the formula, which is the meaningful check.)
    rng = np.random.default_rng(909)
    mc_rate, duration, mc_bin = 100e3, 10.0, 1e-6
    n1 = rng.poisson(mc_rate * duration)
    n2 = rng.poisson(mc_rate * duration)
    a = TimestampStream(np.sort(rng.uniform(0, duration, n1)), 1, duration)
    b = TimestampStream(np.sort(rng.uniform(0, duration, n2)), 2, duration)
    est = correlator.normalize(correlator.correlate(a, b, mc_bin, 500 * mc_bin))
    empirical = float(np.std(est.g2 - 1.0))
    formula = correlator.shot_noise_rms(est.rate1, est.rate2, mc_bin, duration)
    mc_ok = abs(empirical - formula) / formula < 0.10
    report(
        9, "shot-noise floor", inversion_ok and mc_ok,
        f"inverted bin width = {bin_width * 1e9:.1f} ns, "
        f"empirical rms = {empirical:.4g} vs formula {formula:.4g}",
    )


def test_criterion_10_throughput(monkeypatch):
    rng = np.random.default_rng(7)
    rate, n_events = 1e6, 20_000_000
    t1 = np.cumsum(rng.exponential(1.0 / rate, n_events))
    t2 = np.cumsum(rng.exponential(1.0 / rate, n_events))
    duration = float(min(t1[-1], t2[-1]))
    a = TimestampStream(t1[t1 <= duration], 1, duration)
    b = TimestampStream(t2[t2 <= duration], 2, duration)
    bin_width = 5e-9
    window = 500 * bin_width
    # the target is for a single thread; correlate uses one worker per usable CPU
    cpus = correlator._usable_cpus()
    start = time.perf_counter()
    correlator.correlate(a, b, bin_width, window)
    elapsed_all = time.perf_counter() - start
    monkeypatch.setattr(correlator, "_usable_cpus", lambda: 1)
    start = time.perf_counter()
    h = correlator.correlate(a, b, bin_width, window)
    elapsed = time.perf_counter() - start
    report(
        10, "correlator throughput", elapsed < 60.0,
        f"2e7 events/channel, 500 bins, {int(h.counts.sum())} pairs in {elapsed:.1f} s "
        f"on 1 worker, {elapsed_all:.1f} s on {cpus}",
    )


def test_criterion_11_measured_transition(tmp_path):
    # pipeline on the published config, 2 ms, seed 1: the measured g2(0) - 1
    # has the theory's sign, bunched at <N> = 12 and antibunched at <N> = 60,
    # and lies within 5 fitted sigmas of it. tau_c is not gated: a single
    # exponential fitted to the multi-exponential curve need not give the
    # spectrum's tau_c.
    from microlaser.cli import main

    published = Path(__file__).resolve().parents[1] / "configs" / "published.cfg"
    details, ok = [], True
    for n_atoms in (12, 60):
        text = published.read_text().replace("n_atoms_mean = 158 ", f"n_atoms_mean = {n_atoms} ")
        assert f"n_atoms_mean = {n_atoms} " in text
        cfg = tmp_path / f"n{n_atoms}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"n{n_atoms}"
        assert main(["pipeline", "--config", str(cfg), "--duration-s", "0.002", "--seed", "1",
                     "--out-dir", str(out)]) == 0
        entries = dict(line.split(" = ", 1)
                       for line in (out / "report.txt").read_text().splitlines()
                       if not line.startswith("#"))
        z_c0 = float(entries["z_c0"]) if entries["z_c0"] != "None" else math.inf
        ok = ok and entries["sign_match_c0"] == "True" and abs(z_c0) <= 5.0
        details.append(f"<N> = {n_atoms}: c0 {float(entries['c0']):+.3g} against "
                       f"{float(entries['c0_theory']):+.3g}, z_c0 {z_c0:+.2f}")
    report(11, "measured bunching-to-antibunching transition", ok, "; ".join(details))
