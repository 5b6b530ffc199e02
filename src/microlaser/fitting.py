"""Weighted least-squares fit of the decay model y = 1 + C0 exp(-tau/tau_c).

Serves measured correlation estimates only, weighted by their per-bin
Poisson sigmas; theory curves are summarized from their spectrum instead
(``quantum.q_and_tau_from_g2``). The solver is a damped Gauss-Newton
iteration seeded by a log-linear regression of |y - 1|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError

MAX_ITERATIONS = 200
PARAM_RTOL = 1e-10


@dataclass(frozen=True)
class ExpFit:
    """Fitted amplitude and decay time with covariance.

    ``tau_c`` is None for a flat curve (no resolvable signal, c0 = 0);
    ``cov`` is the 2x2 covariance of (c0, tau_c) from the final Jacobian.
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


def _initial_guess(tau, dev, sigma):
    """(c0, tau_c) from weighted linear regression of log|y-1| against tau."""
    usable = np.abs(dev) > 2.0 * sigma
    if usable.sum() < 3:
        usable = np.abs(dev) > 0.0
    t = tau[usable]
    d = dev[usable]
    # var(log|d|) ~ (sigma/d)^2, so weight by (d/sigma)^2
    w = (d / sigma[usable]) ** 2
    logd = np.log(np.abs(d))
    wsum = w.sum()
    tm = (w * t).sum() / wsum
    lm = (w * logd).sum() / wsum
    stt = (w * (t - tm) ** 2).sum()
    if stt > 0.0:
        slope = (w * (t - tm) * (logd - lm)).sum() / stt
    else:
        slope = 0.0
    span = tau.max() - tau.min()
    tau_c = -1.0 / slope if slope < 0.0 else max(span / 3.0, np.finfo(float).tiny)
    sign = 1.0 if (w * d).sum() >= 0.0 else -1.0
    c0 = sign * float(np.exp(lm + slope * (0.0 - tm)))
    return c0, float(tau_c)


def fit_exp_decay(tau, y, sigma, max_iterations: int = MAX_ITERATIONS) -> ExpFit:
    """Fit y = 1 + C0 exp(-tau/tau_c) by damped Gauss-Newton.

    Parameters
    ----------
    tau, y : array_like
        Sample positions and values.
    sigma : array_like
        Per-point standard deviations. Points are weighted by 1/sigma^2 and
        the covariance is taken directly from the Jacobian. A curve with no
        point beyond 2 sigma of 1 is reported as flat.

    Raises FitConvergenceError (carrying the last iterate) if the damping
    cannot rescue the iteration within ``max_iterations``.
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
    if not np.any(np.abs(dev) > 2.0 * sigma):
        chi2 = float(((dev / sigma) ** 2).sum()) / dof
        return ExpFit(
            c0=0.0, tau_c=None, cov=None, chi2_reduced=chi2,
            n_points=tau.size, iterations=0, flat=True,
        )

    c0, tau_c = _initial_guess(tau, dev, sigma)

    def cost_and_jac(c0_, tau_c_):
        e = np.exp(-tau / tau_c_)
        resid = (y - 1.0 - c0_ * e) / sigma
        j0 = -e / sigma
        j1 = -(c0_ * tau * e) / (tau_c_ * tau_c_ * sigma)
        return resid, j0, j1

    resid, j0, j1 = cost_and_jac(c0, tau_c)
    cost = float(resid @ resid)
    lam = 1e-3
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        a00 = float(j0 @ j0)
        a01 = float(j0 @ j1)
        a11 = float(j1 @ j1)
        g0 = float(j0 @ resid)
        g1 = float(j1 @ resid)
        b00 = a00 * (1.0 + lam)
        b11 = a11 * (1.0 + lam)
        det = b00 * b11 - a01 * a01
        if det <= 0.0 or not np.isfinite(det):
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        dc0 = -(b11 * g0 - a01 * g1) / det
        dtau = -(b00 * g1 - a01 * g0) / det
        c0_try = c0 + dc0
        tau_try = tau_c + dtau
        if tau_try <= 0.0 or not np.isfinite(tau_try):
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        resid_try, j0_try, j1_try = cost_and_jac(c0_try, tau_try)
        cost_try = float(resid_try @ resid_try)
        if cost_try <= cost:
            rel = max(
                abs(dc0) / max(abs(c0_try), np.finfo(float).tiny),
                abs(dtau) / tau_try,
            )
            c0, tau_c = c0_try, tau_try
            resid, j0, j1 = resid_try, j0_try, j1_try
            cost = cost_try
            lam = max(lam / 3.0, 1e-12)
            if rel < PARAM_RTOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if not converged:
        raise FitConvergenceError(
            f"exponential fit did not converge in {iterations} iterations "
            f"(last c0={c0:.6g}, tau_c={tau_c:.6g})",
            last_iterate=(c0, tau_c),
        )

    a00 = float(j0 @ j0)
    a01 = float(j0 @ j1)
    a11 = float(j1 @ j1)
    det = a00 * a11 - a01 * a01
    chi2_red = cost / dof
    cov = np.array([[a11, -a01], [-a01, a00]]) / det if det > 0.0 else None
    return ExpFit(
        c0=float(c0), tau_c=float(tau_c), cov=cov, chi2_reduced=float(chi2_red),
        n_points=tau.size, iterations=iterations,
    )
