"""Weighted least-squares fit of the decay model y = 1 + C0 exp(-tau/tau_c).

Serves measured correlation estimates only, weighted by their per-bin
Poisson sigmas; theory curves are summarized from their spectrum instead
(``quantum.q_and_tau_from_g2``). The model is linear in C0, so C0 is profiled
out in closed form and only log tau_c is searched, over a bounded range
(variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# log tau_c search: grid size, golden-section tolerance, longest tau_c in spans
GRID_POINTS = 64
LOG_TAU_TOL = 1e-13
MAX_SPANS = 1e3
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ExpFit:
    """Fitted amplitude and decay time with covariance.

    ``flat`` marks a curve with no resolvable decay: no point beyond 2 sigma
    of 1, or a best tau_c at an end of the searched range (one sample
    spacing or ``MAX_SPANS`` spans of tau). A flat fit has c0 = 0,
    ``tau_c`` None and no covariance. Otherwise ``cov`` is the 2x2
    covariance of (c0, tau_c) from the Jacobian at the optimum.
    ``iterations`` counts evaluations of the profiled chi^2.
    """

    c0: float
    tau_c: float | None
    cov: np.ndarray | None
    chi2_reduced: float
    n_points: int
    iterations: int
    flat: bool = False

    @property
    def c0_sigma(self) -> float | None:
        return float(np.sqrt(self.cov[0, 0])) if self.cov is not None else None

    @property
    def tau_c_sigma(self) -> float | None:
        return float(np.sqrt(self.cov[1, 1])) if self.cov is not None else None


def fit_exp_decay(tau, y, sigma) -> ExpFit:
    """Fit y = 1 + C0 exp(-tau/tau_c) by a bounded search over tau_c.

    Parameters
    ----------
    tau, y : array_like
        Sample positions and values; tau needs two distinct values.
    sigma : array_like
        Per-point standard deviations. Points are weighted by 1/sigma^2 and
        the covariance is taken directly from the Jacobian.

    For each tau_c the amplitude is its weighted linear least-squares value,
    taken at tau.min(), where the exponential is 1 for every tau_c. log
    tau_c is searched on [log(smallest spacing), log(MAX_SPANS * span)]: a
    ``GRID_POINTS`` grid, then golden section between the neighbours of the
    best grid point down to ``LOG_TAU_TOL``. A decay shorter than one
    spacing or slower than ``MAX_SPANS`` spans cannot be resolved, so a best
    grid point on either end of the range is reported as flat.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(y, dtype=float)
    if tau.shape != y.shape or tau.ndim != 1:
        raise ValueError("tau and y must be matching 1-d arrays")
    if tau.size < 3:
        raise ValueError("need at least 3 points to fit two parameters")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != tau.shape:
        raise ValueError("sigma must match tau")
    if np.any(sigma <= 0.0):
        raise ValueError("sigma entries must be positive")

    dev = y - 1.0
    dof = max(tau.size - 2, 1)
    evaluations = 0

    def flat() -> ExpFit:
        chi2 = float(((dev / sigma) ** 2).sum()) / dof
        return ExpFit(
            c0=0.0, tau_c=None, cov=None, chi2_reduced=chi2,
            n_points=tau.size, iterations=evaluations, flat=True,
        )

    if not np.any(np.abs(dev) > 2.0 * sigma):
        return flat()
    steps = np.diff(np.unique(tau))
    if not steps.size:
        raise ValueError("tau must take at least two distinct values")

    t = tau - tau.min()
    r = dev / sigma

    def profile(log_tau_c):
        """chi^2 and best amplitude at t = 0 for one tau_c."""
        nonlocal evaluations
        evaluations += 1
        basis = np.exp(-t / math.exp(log_tau_c)) / sigma
        amp = float(basis @ r) / float(basis @ basis)
        resid = r - amp * basis
        return float(resid @ resid), amp

    grid = np.linspace(math.log(steps.min()), math.log(MAX_SPANS * t.max()), GRID_POINTS)
    k = int(np.argmin([profile(x)[0] for x in grid]))
    if k in (0, GRID_POINTS - 1):
        return flat()
    a, b = grid[k - 1], grid[k + 1]
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = profile(c)[0], profile(d)[0]
    while b - a > LOG_TAU_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = profile(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = profile(d)[0]

    x = c if fc <= fd else d
    cost, amp = profile(x)
    tau_c = math.exp(x)
    c0 = amp * math.exp(tau.min() / tau_c)
    e = np.exp(-tau / tau_c)
    j0 = -e / sigma
    j1 = -(c0 * tau * e) / (tau_c * tau_c * sigma)
    a00 = float(j0 @ j0)
    a01 = float(j0 @ j1)
    a11 = float(j1 @ j1)
    det = a00 * a11 - a01 * a01
    cov = np.array([[a11, -a01], [-a01, a00]]) / det if det > 0.0 else None
    return ExpFit(
        c0=float(c0), tau_c=float(tau_c), cov=cov, chi2_reduced=cost / dof,
        n_points=tau.size, iterations=evaluations,
    )
