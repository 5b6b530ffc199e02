"""Gain-loss fixed-point analysis of the photon rate equation.

The mean photon number obeys d<n>/dt = G(n) - L(n) with the oscillatory gain
G(n) = r * beta_bar(n+1) and linear loss L(n) = Gamma_c * n. Steady states are
the roots of G - L; the slope of L - G there sets the restoring rate against
photon-number fluctuations, hence the correlation time and the Mandel Q of
the operating point. Sweeping the pump while following the nearest stable
branch reproduces the multistable staircase of the mean photon number,
including its hysteretic jumps.

beta_bar does not depend on the pump, so a sweep tabulates it once on the
root-scan grid and bisects the brackets of every pump together;
``find_fixed_points`` is the one-pump case of the same census.

The census is never empty. G - L = r * beta_bar(1) >= 0 at n = 0, and the
origin counts as a root when that gain vanishes. Since G <= r, G - L < 0 at
the end of the scan, 1.1 * r / Gamma_c + 10, so G - L changes sign (or
vanishes on a grid point) in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta,
    injection_rate,
    interaction_time,
    photon_bound,
)

DEFAULT_GRID_STEP = 0.25
ROOT_RTOL = 1e-9


@dataclass(frozen=True)
class FixedPoint:
    """A steady state n0 of the rate equation.

    ``restoring_rate`` is d(L-G)/dn at n0 (positive means stable);
    ``tau_c`` and ``q_semiclassical`` are populated only for stable points.
    """

    n0: float
    stable: bool
    restoring_rate: float
    tau_c: float | None
    q_semiclassical: float | None


@dataclass(frozen=True)
class SweepPoint:
    n_atoms_mean: float
    selected: FixedPoint | None
    fixed_points: tuple[FixedPoint, ...]
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    direction: str
    points: tuple[SweepPoint, ...]


def gain_derivative(n: float, cfg: MicrolaserConfig, dist: VelocityDistribution) -> float:
    """dG/dn at n, from the derivative of the sin^2 kernel."""
    r = injection_rate(cfg)
    theta = cfg.g0 * interaction_time(dist.velocities, cfg.mode_waist)
    sk = np.sqrt(n + 1.0)
    return float(r * (np.sin(2.0 * sk * theta) * theta / (2.0 * sk)) @ dist.weights)


def restoring_rate(n0: float, cfg: MicrolaserConfig, dist: VelocityDistribution) -> float:
    """d(L - G)/dn = Gamma_c - G'(n0); positive values restore deviations."""
    return cfg.gamma_c - gain_derivative(n0, cfg, dist)


def _classify(n0: float, cfg, dist) -> FixedPoint:
    d = restoring_rate(n0, cfg, dist)
    stable = d > 0.0
    if stable:
        tau_c = 1.0 / d
        q = cfg.gamma_c / d - 1.0
    else:
        tau_c = None
        q = None
    return FixedPoint(n0=n0, stable=stable, restoring_rate=d, tau_c=tau_c, q_semiclassical=q)


def _roots(
    cfgs: list[MicrolaserConfig],
    dist: VelocityDistribution,
    scan_max: list[float],
    grid_step: float,
) -> list[list[float]]:
    """Sorted, deduplicated roots of G - L for configurations that differ only in pump.

    One beta-bar grid of ``grid_step`` photons covers the largest scan range;
    each pump's residual r * beta-bar - Gamma_c * n is formed on its own
    prefix, one row at a time. The sign-change brackets of all pumps are then
    bisected together to ``ROOT_RTOL``. Each bracket takes the steps of a
    scalar bisection, so the roots do not depend on the other pumps.
    """
    cfg0 = cfgs[0]
    # np.arange(0, s + grid_step, grid_step) holds the first `size` of these points.
    sizes = [math.ceil((s + grid_step) / grid_step) for s in scan_max]
    grid = np.arange(max(sizes), dtype=float) * grid_step
    beta = averaged_beta(grid + 1.0, cfg0, dist)
    beta_origin = averaged_beta(1.0, cfg0, dist)

    roots: list[list[float]] = [[] for _ in cfgs]
    on_grid: list[np.ndarray] = []
    left_ends, f_left, rates, owners = [], [], [], []
    for p, (cfg, m) in enumerate(zip(cfgs, sizes)):
        r = injection_rate(cfg)
        # The origin is a fixed point only when the gain vanishes there.
        if r * beta_origin <= 1e-12 * max(r, cfg.gamma_c):
            roots[p].append(0.0)
        f = r * beta[:m] - cfg.gamma_c * grid[:m]
        i = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
        left_ends.append(i)
        f_left.append(f[i])
        rates.append(np.full(i.size, r))
        owners.append(np.full(i.size, p))
        # Grid points that are exact roots (rare but cheap to honor).
        on_grid.append(grid[:m][f == 0.0])

    brackets = np.concatenate(left_ends)
    a, b, fa = grid[brackets], grid[brackets + 1], np.concatenate(f_left)
    rate = np.concatenate(rates)
    active = np.arange(a.size)
    while True:
        width = b[active] - a[active]
        active = active[width > ROOT_RTOL * np.maximum(1.0, np.abs(b[active]))]
        if active.size == 0:
            break
        mid = 0.5 * (a[active] + b[active])
        fm = rate[active] * averaged_beta(mid + 1.0, cfg0, dist) - cfg0.gamma_c * mid
        zero = fm == 0.0
        left = ~zero & ((fa[active] < 0) == (fm < 0))
        right = ~zero & ~left
        a[active[zero]] = b[active[zero]] = mid[zero]
        a[active[left]], fa[active[left]] = mid[left], fm[left]
        b[active[right]] = mid[right]
        active = active[~zero]

    for p, n0 in zip(np.concatenate(owners).tolist(), (0.5 * (a + b)).tolist()):
        roots[p].append(n0)
    census = []
    for found, exact in zip(roots, on_grid):
        found.extend(exact.tolist())
        found.sort()
        deduped: list[float] = []
        for n0 in found:
            if not deduped or n0 - deduped[-1] > 1e-6 * max(1.0, n0):
                deduped.append(n0)
        census.append(deduped)
    return census


def find_fixed_points(cfg: MicrolaserConfig, dist: VelocityDistribution) -> list[FixedPoint]:
    """All roots of G - L on [0, 1.1 r / Gamma_c + 10], classified by the slope of L - G.

    Sign changes are bracketed on a grid of ``DEFAULT_GRID_STEP`` photons and
    refined by bisection to ``ROOT_RTOL`` relative. The scan range covers
    every possible root since G <= r implies roots obey n <= r / Gamma_c, and
    the list is never empty (see the module docstring). This is the one-pump
    case of the census that ``sweep`` takes over all its pumps.
    """
    (roots,) = _roots([cfg], dist, [photon_bound(cfg)], DEFAULT_GRID_STEP)
    return [_classify(n0, cfg, dist) for n0 in roots]


def sweep(
    cfg_template: MicrolaserConfig,
    dist: VelocityDistribution,
    n_atoms_list,
    direction: str = "up",
) -> SweepResult:
    """Branch-following pump sweep.

    For each pump value the stable fixed point closest to the previously
    selected one is kept (the first point takes the smallest stable root, the
    branch reachable from an empty cavity). All roots are recorded so branch
    exhaustion, and hence the jump, is visible in the result.

    The roots of all pumps come from one census: one beta_bar grid for the
    widest scan range and one bisection over every bracket, giving the same
    roots as ``find_fixed_points`` pump by pump. A pump whose roots are all
    unstable is recorded with ``error`` set and nothing selected.
    """
    n_list = [float(x) for x in n_atoms_list]
    if not n_list:
        raise ValueError("n_atoms_list must be nonempty")
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    diffs = np.diff(n_list)
    if direction == "up" and not np.all(diffs > 0) and len(n_list) > 1:
        raise ValueError("ascending sweep requires strictly increasing n_atoms_list")
    if direction == "down" and not np.all(diffs < 0) and len(n_list) > 1:
        raise ValueError("descending sweep requires strictly decreasing n_atoms_list")

    cfgs = [cfg_template.with_n_atoms(n_atoms) for n_atoms in n_list]
    scans = [photon_bound(cfg) for cfg in cfgs]
    points: list[SweepPoint] = []
    previous: float | None = None
    for n_atoms, cfg, roots in zip(n_list, cfgs, _roots(cfgs, dist, scans, DEFAULT_GRID_STEP)):
        census = [_classify(n0, cfg, dist) for n0 in roots]
        stable = [fp for fp in census if fp.stable]
        if not stable:
            points.append(
                SweepPoint(n_atoms, None, tuple(census), error="no stable fixed point")
            )
            continue
        if previous is None:
            chosen = min(stable, key=lambda fp: fp.n0)
        else:
            chosen = min(stable, key=lambda fp: abs(fp.n0 - previous))
        previous = chosen.n0
        points.append(SweepPoint(n_atoms, chosen, tuple(census)))
    return SweepResult(direction=direction, points=tuple(points))

