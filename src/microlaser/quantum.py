"""Number-basis microlaser theory on a truncated photon basis.

The photon-number populations obey a birth-death master equation

    dP_n/dt = r [beta_bar_n P_{n-1} - beta_bar_{n+1} P_n]
              + Gamma_c [(n+1) P_{n+1} - n P_n]

with velocity-averaged emission probabilities beta_bar and a reflecting
truncation (beta_bar_{n_max+1} := 0). ``build_generator`` forms these rates,
for the simulation too. Detailed balance gives the steady state in product
form. Two-time intensity correlations follow from propagating the
annihilation-collapsed diagonal under the same generator (see
docs/g2_initial_condition.md for the initial condition). Detailed balance also
makes the generator symmetric under D = diag(sqrt(P_ss)), so that propagation
is one eigendecomposition per contiguous run of occupied states (the
Karlin-McGregor spectral representation of a birth-death process) rather than
a time integration. A ``G2Curve`` carries no config hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta_table,
    injection_rate,
    photon_bound,
)
from .errors import TruncationError

N_MAX_CAP = 8192
N_MAX_FLOOR = 32
TAIL_FRACTION = 0.01
TAIL_MASS_LIMIT = 1e-10
BEYOND_TRUNCATION_LIMIT = 1e-12
# g2 keeps the states with P_n > SPECTRAL_FLOOR * max P; the estimated effect
# of everything cut away must stay below OUTFLUX_LIMIT in g2.
SPECTRAL_FLOOR = 1e-20
OUTFLUX_LIMIT = 1e-10
# A block eigenvalue within STATIONARY_RATE_TOL * max |lambda| of zero is a
# stationary mode: besides the one of every block, a valley inside a block
# that photons cross slower than eigh can resolve leaves a second one.
STATIONARY_RATE_TOL = 1e-12
# Below this |sum w| / sum |w| the decaying g2 weights cancel and tau_c is None.
WEIGHT_RATIO_LIMIT = 0.5
DEFAULT_TAU_POINTS = 200
DEFAULT_TAU_SPAN_LIFETIMES = 5.0
# exp(lambda tau) is evaluated only above this exponent; below it the term is
# left at zero (see g2_regression)
_EXP_CUT = -600.0


@dataclass(frozen=True)
class PhotonDistribution:
    """Normalized photon-number probability vector with derived moments."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a nonempty 1-d array")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def from_weights(cls, weights) -> "PhotonDistribution":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not (total > 0.0) or not np.isfinite(total):
            raise ValueError("weights must have positive finite total mass")
        return cls(w / total)

    @property
    def n_max(self) -> int:
        return self.probabilities.size - 1

    @property
    def mean(self) -> float:
        return float(np.arange(self.probabilities.size) @ self.probabilities)

    @property
    def variance(self) -> float:
        n = np.arange(self.probabilities.size)
        m = self.mean
        return float((n * n) @ self.probabilities - m * m)

    @property
    def mandel_q(self) -> float | None:
        """(Delta n)^2 / <n> - 1, or None for an empty field."""
        m = self.mean
        if m == 0.0:
            return None
        return self.variance / m - 1.0


def default_n_max(cfg: MicrolaserConfig) -> int:
    """Truncation policy: ``photon_bound`` (1.1 * (r / Gamma_c) + 10), rounded
    up and clamped to [32, 8192].

    The steady state lives below r / Gamma_c and its tail falls off beyond.
    ``steady_state`` checks that tail and doubles the basis once where this
    margin is too small.
    """
    return int(min(N_MAX_CAP, max(N_MAX_FLOOR, math.ceil(photon_bound(cfg)))))


def effective_n_max(cfg: MicrolaserConfig) -> int:
    return cfg.n_max if cfg.n_max is not None else default_n_max(cfg)


def _truncation_report(p: np.ndarray, birth_at_top: float, death_at_top: float):
    """(adequate, tail_mass, beyond_estimate) for a candidate steady vector."""
    n_tail = max(1, int(TAIL_FRACTION * p.size))
    tail_mass = float(p[-n_tail:].sum())
    if death_at_top > 0.0 and birth_at_top < death_at_top:
        ratio = birth_at_top / death_at_top
        beyond = float(p[-1] * ratio / (1.0 - ratio))
    else:
        beyond = math.inf
    adequate = tail_mass < TAIL_MASS_LIMIT and beyond < BEYOND_TRUNCATION_LIMIT
    return adequate, tail_mass, beyond


def steady_state(cfg: MicrolaserConfig, dist: VelocityDistribution) -> PhotonDistribution:
    """Detailed-balance steady state P_n = P_0 prod_k r beta_bar_k / (Gamma_c k).

    The rates come from ``build_generator``; the product is accumulated in log
    space to dodge overflow, then normalized. The basis is
    ``effective_n_max(cfg)``; if the tail check fails there, it is doubled
    once before giving up with a TruncationError. A top state inside the g2
    window (P_n > SPECTRAL_FLOOR * max P) also takes the doubling, which
    shrinks the flux past the top that ``g2_regression`` has to allow for;
    the larger basis is kept whatever its top.
    """
    size = effective_n_max(cfg)
    for attempt in range(2):
        gen = build_generator(cfg, dist, size)
        with np.errstate(divide="ignore"):
            log_ratio = np.log(gen.birth[:-1]) - np.log(gen.death[1:])
        log_p = np.concatenate(([0.0], np.cumsum(log_ratio)))
        log_p -= log_p.max()
        with np.errstate(divide="ignore"):
            p = np.exp(log_p)
        p /= p.sum()
        adequate, tail_mass, beyond = _truncation_report(p, gen.birth[-2], gen.death[-1])
        if adequate and (attempt == 1 or p[-1] <= SPECTRAL_FLOOR * p.max()):
            return PhotonDistribution(p)
        if attempt == 0:
            size *= 2
    raise TruncationError(
        f"steady state not converged at n_max={size}: last-1% tail mass "
        f"{tail_mass:.3e} (limit {TAIL_MASS_LIMIT:.0e}), estimated mass beyond "
        f"truncation {beyond:.3e} (limit {BEYOND_TRUNCATION_LIMIT:.0e}); "
        f"increase n_max"
    )


@dataclass(frozen=True)
class MasterEquationGenerator:
    """Tridiagonal birth-death generator acting on population vectors.

    ``birth[n]`` is the n -> n+1 rate r * beta_bar_{n+1} (zero at the top,
    reflecting truncation); ``death[n]`` = Gamma_c * n. Columns sum to zero
    by construction, so total probability is conserved.
    """

    birth: np.ndarray
    death: np.ndarray
    diag: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.size

    def matvec(self, p: np.ndarray) -> np.ndarray:
        out = self.diag * p
        out[1:] += self.birth[:-1] * p[:-1]
        out[:-1] += self.death[1:] * p[1:]
        return out


def build_generator(
    cfg: MicrolaserConfig, dist: VelocityDistribution, n_max: int
) -> MasterEquationGenerator:
    """Birth r * beta_bar_{n+1} and death Gamma_c * n on 0..n_max, formed only here."""
    r = injection_rate(cfg)
    beta_bar = averaged_beta_table(n_max, cfg, dist)
    birth = np.zeros(n_max + 1)
    birth[:-1] = r * beta_bar
    death = cfg.gamma_c * np.arange(n_max + 1, dtype=float)
    diag = -(birth + death)
    for arr in (birth, death, diag):
        arr.flags.writeable = False
    return MasterEquationGenerator(birth=birth, death=death, diag=diag)


@dataclass(frozen=True)
class G2Curve:
    """Theoretical g2(tau) samples and their spectrum.

    g2(tau) - 1 = plateau + sum_k weights[k] exp(rates[k] tau): ``rates`` are
    the (negative) eigenvalues of the decaying modes and ``plateau`` is
    g2(infinity) - 1, which is nonzero only when the steady state splits
    into parts that exchange photons too slowly to resolve. ``g2_regression``
    also records how many states its blocks kept and the error bound of its
    outflux check; a curve built by hand has neither.
    """

    tau: np.ndarray
    values: np.ndarray
    rates: np.ndarray
    weights: np.ndarray
    plateau: float
    kept_states: int | None = None
    outflux_bound: float | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        values = np.asarray(self.values, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if tau.shape != values.shape or tau.ndim != 1:
            raise ValueError("tau and values must be matching 1-d arrays")
        if rates.shape != weights.shape or rates.ndim != 1:
            raise ValueError("rates and weights must be matching 1-d arrays")
        for name, arr in (("tau", tau), ("values", values), ("rates", rates),
                          ("weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def default_tau_grid(cfg: MicrolaserConfig) -> np.ndarray:
    """DEFAULT_TAU_POINTS on [0, 5 / Gamma_c], enough span for all observed tau_c."""
    return np.linspace(0.0, DEFAULT_TAU_SPAN_LIFETIMES / cfg.gamma_c, DEFAULT_TAU_POINTS)


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) index ranges of the runs of True in a boolean vector."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _leading_within(costs: np.ndarray, share: float) -> int:
    """Length of the leading run of ``costs`` that stay within ``share``."""
    over = np.flatnonzero(costs > share)
    return int(over[0]) if over.size else costs.size


def g2_regression(
    cfg: MicrolaserConfig,
    dist: VelocityDistribution,
    tau_grid=None,
    *,
    steady: PhotonDistribution | None = None,
) -> G2Curve:
    """g2(tau) from the regression of the annihilation-collapsed diagonal.

    W_m(0) = (m+1) P_{m+1} sums to <n> and evolves under the same generator
    A as the populations; then g2(tau) = sum_m m W_m(tau) / <n>^2.

    A is solved in closed form. The states with P_n > SPECTRAL_FLOOR * max P
    fall into runs of consecutive photon numbers, and each run is trimmed at
    both ends as far as the outflux budget allows (below). On each trimmed
    block (reflecting at its edges), detailed balance makes S = D^-1 A D with
    D = diag(sqrt(P)) symmetric tridiagonal, with off-diagonal
    sqrt(birth_n death_{n+1}). One ``eigh`` S = U L U^T per block gives
    sum_m m W_m(tau) = sum_k a_k b_k exp(lambda_k tau) with
    a = U^T (n sqrt(P)) and b = U^T (W(0) / sqrt(P)), for any tau grid.
    Each block's stationary mode, sqrt(P) with lambda = 0, is taken
    analytically; with the modes that eigh cannot tell from lambda = 0 (see
    STATIONARY_RATE_TOL) it makes up the plateau g2(infinity) - 1. All other
    eigenpairs are returned as the decaying ``rates`` and ``weights``, from
    a and b with the stationary mode projected out, and the curve is
    1 + plateau + sum_k weights_k exp(rates_k tau).

    The trim: under detailed balance W / P evolves by a stochastic
    semigroup, so |W_m(tau)| <= (r / Gamma_c) P_m. Cutting a run below state
    a then costs at most sum_{m<a} W_m(0) + T (r / Gamma_c) death_a P_a over
    the span T = max(tau_max, DEFAULT_TAU_SPAN_LIFETIMES / Gamma_c), and
    cutting its top the same with the birth rate of the last kept state.
    Each edge drops states while its cost, weighted by
    max(N_MAX_CAP, n_max) / <n>^2, stays within an equal share of half of
    OUTFLUX_LIMIT, so the trim spends at most half of the check's limit.
    Up to N_MAX_CAP neither the weight nor the span depends on the basis or
    on the tau grid, so neither moves the window. The W(0) of the dropped states joins the nearest kept state
    of the run, so the blocks carry all of W(0); it still counts as error.

    The cut is checked on the full basis: W(0) on the kept states and the
    block solution at the largest tau are padded with zeros and sent through
    the full generator; the flux it puts outside the kept states, plus the flux past
    the reflecting top of the basis and the part of W(0) moved or left
    outside, bounds the error of the curve. A TruncationError is raised when
    that bound exceeds OUTFLUX_LIMIT. The curve records the kept-state count
    and the bound.

    ``steady`` must be ``steady_state(cfg, dist)`` for the same ``cfg`` and
    ``dist``; a caller that already holds it passes it to skip a second
    solve. It is solved here when not given.
    """
    p = steady if steady is not None else steady_state(cfg, dist)
    n_mean = p.mean
    if n_mean <= 0.0:
        raise ValueError("g2 undefined: steady state carries no photons")
    gen = build_generator(cfg, dist, n_max=p.n_max)
    taus = (
        np.asarray(tau_grid, dtype=float) if tau_grid is not None else default_tau_grid(cfg)
    )
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau grid must be a nonempty 1-d array")
    if np.any(np.diff(taus) < 0.0) or taus[0] < 0.0:
        raise ValueError("tau grid must be nondecreasing and nonnegative")
    tau_max = float(taus[-1])

    probs = p.probabilities
    n = np.arange(probs.size, dtype=float)
    w0 = np.zeros(probs.size)
    w0[:-1] = n[1:] * probs[1:]
    r = injection_rate(cfg)
    norm = n_mean * n_mean
    floor = probs > SPECTRAL_FLOOR * probs.max()
    runs = _runs(floor)
    share = 0.5 * OUTFLUX_LIMIT * norm / max(N_MAX_CAP, p.n_max) / (2 * len(runs))
    # T (r / Gamma_c) P_n: times the rate out of an edge state, the most
    # mass that leaves through it over the span
    reach = max(tau_max, DEFAULT_TAU_SPAN_LIFETIMES / cfg.gamma_c) * r / cfg.gamma_c * probs
    up, down = gen.birth * reach, gen.death * reach
    kept = np.zeros(probs.size, dtype=bool)
    w_end = np.zeros(probs.size)
    excess = 0.0  # the stationary terms, less <n>^2
    rates, weights = [], []
    for lo, hi in runs:
        # trim toward the run's most probable state, which is always kept
        peak = lo + int(np.argmax(probs[lo:hi]))
        lo_cut = lo + _leading_within(
            np.cumsum(w0[lo:peak]) + down[lo + 1:peak + 1], share
        )
        hi_cut = hi - _leading_within(
            np.cumsum(w0[peak + 1:hi][::-1]) + up[peak:hi - 1][::-1], share
        )
        wb = w0[lo_cut:hi_cut].copy()
        wb[0] += w0[lo:lo_cut].sum()
        wb[-1] += w0[hi_cut:hi].sum()
        lo, hi = lo_cut, hi_cut
        kept[lo:hi] = True

        birth = gen.birth[lo:hi].copy()
        death = gen.death[lo:hi].copy()
        birth[-1] = 0.0  # reflect at the block edges
        death[0] = 0.0
        s_mat = np.zeros((hi - lo, hi - lo))
        idx = np.arange(hi - lo)
        s_mat[idx, idx] = -(birth + death)
        s_mat[idx[1:], idx[:-1]] = np.sqrt(birth[:-1] * death[1:])
        lam, u = np.linalg.eigh(s_mat, UPLO="L")
        del s_mat  # the m x m arrays of one block are freed before the next
        root_p = np.sqrt(probs[lo:hi])
        b = (wb / root_p) @ u
        w_end[lo:hi] = root_p * (u @ (np.exp(lam * tau_max) * b))
        # The stationary mode sqrt(P) is known exactly: its term is the block
        # mean of n times the block's W(0), and it is projected out of a and
        # b for the other modes, which eigh blends with it when one is slow.
        # Less its share of <n>^2, the term is the product of the block's
        # deviations from <n>, so that one block gives a plateau far below
        # the round-off of 1, which near a Q = 0 crossing exceeds c0.
        mass = probs[lo:hi].sum()
        block_n = float(n[lo:hi] @ probs[lo:hi]) / mass
        block_w0 = float(wb.sum())
        ab = (((n[lo:hi] - block_n) * root_p) @ u) * (
            (wb / root_p - (block_w0 / mass) * root_p) @ u
        )
        del u
        # eigh sorts ascending, so lam[0] sets the scale of its rounding error
        zero = lam >= STATIONARY_RATE_TOL * lam[0]
        excess += (block_n - n_mean) * (block_w0 - mass * n_mean) + float(ab[zero].sum())
        rates.append(lam[~zero])
        weights.append(ab[~zero])

    outside = ~kept
    leak = max(
        float(np.abs(gen.matvec(np.where(kept, w0, 0.0))[outside]).sum()),
        float(np.abs(gen.matvec(w_end)[outside]).sum()),
    )
    # The full chain sends r beta_bar_{n_max+1} W_{n_max} past the top, which
    # the reflecting truncation hides. By the same semigroup bound W_n <=
    # (r / Gamma_c) P_n, and with beta_bar <= 1 that flux is at most
    # (r^2 / Gamma_c) P_{n_max}.
    leak += r * r / cfg.gamma_c * float(probs[-1])
    lost = float(w0[outside].sum()) + tau_max * leak
    bound = p.n_max * lost / norm
    if not bound <= OUTFLUX_LIMIT:
        raise TruncationError(
            f"g2 spectral window too narrow: states outside the kept blocks "
            f"(P_n <= {SPECTRAL_FLOOR:.0e} max P, or trimmed) and past the basis "
            f"top would change g2 by up to {bound:.3e} (limit {OUTFLUX_LIMIT:.0e})"
        )
    rates = np.concatenate(rates)
    weights = np.concatenate(weights) / norm
    # the shares of <n>^2 that no block holds: the n P and P outside them,
    # and the W(0) below the floor
    excess += n_mean * (
        n_mean * float(probs[outside].sum())
        - float(n[outside] @ probs[outside])
        - float(w0[~floor].sum())
    )
    plateau = excess / norm
    # numpy's exp takes 70-110 ns for an exponent in (-745, -708), where the
    # result is subnormal, against under 1 ns for a normal one, so exponents
    # at or below _EXP_CUT are skipped and their terms left at zero. Each
    # skipped term, a weight of order 1 or less times at most e^-600, is below
    # 1e-250. It can change a partial sum of the product only while that sum
    # is below 1e-234, and two sums that small become equal at the first
    # addend above 1e-200; if none comes, the sum is lost in 1 + plateau (g2
    # at infinity, about 1 or more). So no bit of a value moves.
    decay = np.outer(taus, rates)
    decay = np.exp(decay, out=np.zeros_like(decay), where=decay > _EXP_CUT)
    return G2Curve(
        tau=taus,
        values=1.0 + plateau + decay @ weights,
        rates=rates,
        weights=weights,
        plateau=plateau,
        kept_states=int(kept.sum()),
        outflux_bound=bound,
    )


@dataclass(frozen=True)
class G2Summary:
    """c0 = g2(0) - 1, the correlation time and Q read off a g2 spectrum.

    ``tau_c`` is None where no single time describes the curve: when the
    decaying weights cancel (``weight_ratio`` below WEIGHT_RATIO_LIMIT), as at
    a Q = 0 crossing, or when their integral has the opposite sign to their
    sum, so that g2 crosses its plateau.
    """

    c0: float
    tau_c: float | None
    q: float
    plateau: float
    weight_ratio: float


def q_and_tau_from_g2(curve: G2Curve, n_mean: float) -> G2Summary:
    """c0, tau_c and Q = c0 <n> from the spectrum of a theory curve.

    c0 = plateau + sum w is g2(0) - 1 on any tau grid. tau_c is the
    integrated time of the decaying modes, sum (w / |lambda|) / sum w, which
    equals the decay time of a single exponential; it is reported only while
    |sum w| / sum |w| >= WEIGHT_RATIO_LIMIT and it comes out positive.
    """
    if n_mean <= 0.0:
        raise ValueError(f"n_mean must be positive, got {n_mean}")
    w = curve.weights
    total = float(w.sum())
    spread = float(np.abs(w).sum())
    ratio = abs(total) / spread if spread > 0.0 else 0.0
    tau_c = None
    if ratio >= WEIGHT_RATIO_LIMIT:
        tau_int = float((w / np.abs(curve.rates)).sum()) / total
        if tau_int > 0.0:  # else slow modes of the other sign dominate: g2 crosses its plateau
            tau_c = tau_int
    c0 = curve.plateau + total
    return G2Summary(
        c0=c0, tau_c=tau_c, q=c0 * n_mean, plateau=curve.plateau, weight_ratio=ratio,
    )
