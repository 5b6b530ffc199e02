"""Gain-loss fixed-point analysis of the photon rate equation.

The mean photon number obeys d<n>/dt = G(n) - L(n) with the oscillatory gain
G(n) = r * beta_bar(n+1) and linear loss L(n) = Gamma_c * n. Steady states are
the roots of G - L; the slope of L - G there sets the restoring rate against
photon-number fluctuations, hence the correlation time and the Mandel Q of
the operating point. Sweeping the pump while following the nearest stable
branch reproduces the multistable staircase of the mean photon number,
including its hysteretic jumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta,
    injection_rate,
    interaction_time,
)
from .errors import NoFixedPointError

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


def gain(n, cfg: MicrolaserConfig, dist: VelocityDistribution):
    """Photon emission rate G(n) = r * beta_bar(n+1), velocity averaged."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0.0):
        raise ValueError(f"n must be >= 0, got {n}")
    return injection_rate(cfg) * averaged_beta(n_arr + 1.0, cfg, dist)


def loss(n, cfg: MicrolaserConfig):
    """Cavity loss rate L(n) = Gamma_c * n."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0.0):
        raise ValueError(f"n must be >= 0, got {n}")
    val = cfg.gamma_c * n_arr
    return float(val) if n_arr.ndim == 0 else val


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


def find_fixed_points(
    cfg: MicrolaserConfig,
    dist: VelocityDistribution,
    n_scan_max: float | None = None,
    grid_step: float = DEFAULT_GRID_STEP,
) -> list[FixedPoint]:
    """All roots of G - L on [0, n_scan_max], classified by the slope of L - G.

    Sign changes are bracketed on a grid of ``grid_step`` photons and refined
    by bisection to 1e-9 relative. The default scan range covers every
    possible root since G <= r implies roots obey n <= r / Gamma_c.
    """
    r = injection_rate(cfg)
    if n_scan_max is None:
        n_scan_max = 1.1 * r / cfg.gamma_c + 10.0
    if n_scan_max < 1.0:
        raise ValueError(f"n_scan_max must be >= 1, got {n_scan_max}")

    grid = np.arange(0.0, n_scan_max + grid_step, grid_step)
    f = gain(grid, cfg, dist) - loss(grid, cfg)

    roots: list[float] = []
    # The origin is a fixed point only when the gain vanishes there.
    if gain(0.0, cfg, dist) <= 1e-12 * max(r, cfg.gamma_c):
        roots.append(0.0)

    def residual(n):
        return float(gain(n, cfg, dist) - loss(n, cfg))

    for i in np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0):
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(f[i])
        while (b - a) > ROOT_RTOL * max(1.0, abs(b)):
            mid = 0.5 * (a + b)
            fm = residual(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    # Grid points that are exact roots (rare but cheap to honor).
    for i in np.flatnonzero(f == 0.0):
        roots.append(float(grid[i]))

    roots.sort()
    deduped: list[float] = []
    for n0 in roots:
        if not deduped or n0 - deduped[-1] > 1e-6 * max(1.0, n0):
            deduped.append(n0)
    if not deduped:
        raise NoFixedPointError(
            f"G - L has no root on [0, {n_scan_max:g}] (n_atoms_mean={cfg.n_atoms_mean:g})"
        )
    return [_classify(n0, cfg, dist) for n0 in deduped]


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
    exhaustion, and hence the jump, is visible in the result. Root-finder
    failures are recorded per point without aborting the sweep.
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

    points: list[SweepPoint] = []
    previous: float | None = None
    for n_atoms in n_list:
        cfg = cfg_template.with_n_atoms(n_atoms)
        try:
            census = find_fixed_points(cfg, dist)
        except Exception as exc:  # recorded, sweep continues
            points.append(SweepPoint(n_atoms, None, (), error=str(exc)))
            continue
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

