"""Physical parameters, velocity averaging, and the single-atom emission kernel.

Everything downstream (rate-equation analysis, master-equation theory, the
stochastic simulator) is built on three ingredients defined here: the
configuration record, the transit time of an atom through the Gaussian mode,
and the probability ``sin^2(sqrt(k) g t_int)`` that an excited atom leaves a
photon behind, optionally averaged over the atomic velocity distribution.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

# Gaussian FWHM = 2*sqrt(2 ln 2) * sigma
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Velocity support is the +-3 sigma window of the spread, renormalized.
TRUNCATION_SIGMAS = 3.0

# Lower clip keeps quadrature nodes strictly positive for very wide spreads
# (support would otherwise cross v = 0).
MIN_VELOCITY_FRACTION = 1e-3

DEFAULT_QUADRATURE_NODES = 64


@dataclass(frozen=True)
class MicrolaserConfig:
    """Immutable physical parameter set.

    Angular quantities (``g0``, ``gamma_c``) are angular frequencies in rad/s;
    ``g0`` is half the vacuum Rabi frequency at the mode center. ``n_max`` is
    the photon-number basis truncation; ``None`` defers to the automatic
    policy in :mod:`microlaser.quantum`.
    """

    g0: float
    gamma_c: float
    mode_waist: float
    v0: float
    n_atoms_mean: float
    dv_fwhm_frac: float = 0.0
    detection_efficiency: float = 1.0
    splitter_ratio: float = 0.5
    n_max: int | None = None

    def __post_init__(self):
        for name in ("g0", "gamma_c", "mode_waist", "v0"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not (0.0 <= self.n_atoms_mean < math.inf):
            raise ConfigError(f"n_atoms_mean must be finite and >= 0, got {self.n_atoms_mean}")
        if not (0.0 <= self.dv_fwhm_frac < 1.0):
            raise ConfigError(
                f"dv_fwhm_frac must be in [0, 1), got {self.dv_fwhm_frac}"
            )
        if not (0.0 < self.detection_efficiency <= 1.0):
            raise ConfigError(
                f"detection_efficiency must be in (0, 1], got {self.detection_efficiency}"
            )
        if not (0.0 < self.splitter_ratio < 1.0):
            raise ConfigError(
                f"splitter_ratio must be in (0, 1), got {self.splitter_ratio}"
            )
        if self.n_max is not None:
            if not isinstance(self.n_max, int) or self.n_max < 1:
                raise ConfigError(f"n_max must be a positive integer, got {self.n_max}")
        # the rate-equation root scan and the default photon basis reach to
        # photon_bound, so r and the bound must both be finite
        t_int = interaction_time(self.v0, self.mode_waist)
        if not (0.0 < t_int < math.inf):
            raise ConfigError(
                f"transit time sqrt(pi) * mode_waist / v0 = {t_int:g} s must be positive and finite"
            )
        if not math.isfinite(photon_bound(self)):
            raise ConfigError(
                f"photon bound 1.1 r / gamma_c + 10 is not finite (r = {injection_rate(self):g}/s, "
                f"gamma_c = {self.gamma_c:g} rad/s)"
            )

    def to_dict(self) -> dict:
        """Flat snapshot used in file headers and manifests."""
        return {
            "g0": self.g0,
            "gamma_c": self.gamma_c,
            "mode_waist": self.mode_waist,
            "v0": self.v0,
            "n_atoms_mean": self.n_atoms_mean,
            "dv_fwhm_frac": self.dv_fwhm_frac,
            "detection_efficiency": self.detection_efficiency,
            "splitter_ratio": self.splitter_ratio,
            "n_max": self.n_max,
        }

    def with_n_atoms(self, n_atoms_mean: float) -> "MicrolaserConfig":
        return replace(self, n_atoms_mean=n_atoms_mean)


def interaction_time(v: float, mode_waist: float) -> float:
    """Transit time sqrt(pi) * mode_waist / v of an atom crossing the mode."""
    if np.any(np.asarray(v) <= 0.0):
        raise ValueError(f"velocity must be positive, got {v}")
    if mode_waist <= 0.0:
        raise ValueError(f"mode_waist must be positive, got {mode_waist}")
    return SQRT_PI * mode_waist / v


def injection_rate(cfg: MicrolaserConfig) -> float:
    """Atom injection rate r = <N> / t_int(v0).

    The mean intracavity atom number acts as the pump knob; the rate uses the
    transit time at the most probable velocity regardless of spread. This is
    the convention used by every theory and simulation module.
    """
    return cfg.n_atoms_mean / interaction_time(cfg.v0, cfg.mode_waist)


def photon_bound(cfg: MicrolaserConfig) -> float:
    """1.1 * (r / Gamma_c) + 10: the photon number that the rate-equation root
    scan and the number basis reach to.

    The gain r * beta_bar never exceeds r, so every rate-equation root obeys
    n <= r / Gamma_c, and past that n each step up multiplies P_n by
    r beta_bar / (Gamma_c n) < 1.
    """
    return 1.1 * injection_rate(cfg) / cfg.gamma_c + 10.0


@dataclass(frozen=True)
class VelocityDistribution:
    """Atomic speed distribution reduced to a fixed quadrature rule.

    ``kind`` is ``"delta"`` (all atoms at ``v0``) or ``"gaussian"`` (Gaussian
    in speed with the given FWHM, truncated at +-3 sigma and renormalized).
    ``velocities``/``weights`` are the quadrature nodes; weights are
    nonnegative and sum to one.
    """

    kind: str
    v0: float
    fwhm: float
    velocities: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.shape != w.shape or v.ndim != 1 or v.size == 0:
            raise ConfigError("quadrature nodes and weights must be matching 1-d arrays")
        if np.any(v <= 0.0):
            raise ConfigError("all quadrature velocities must be strictly positive")
        if np.any(w < 0.0):
            raise ConfigError("quadrature weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError(f"quadrature weights must sum to 1, got {w.sum()!r}")
        v.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "velocities", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def delta(cls, v0: float) -> "VelocityDistribution":
        if v0 <= 0.0:
            raise ConfigError(f"v0 must be positive, got {v0}")
        return cls(
            kind="delta",
            v0=v0,
            fwhm=0.0,
            velocities=np.array([v0]),
            weights=np.array([1.0]),
        )

    @classmethod
    def gaussian(
        cls,
        v0: float,
        fwhm: float,
        n_nodes: int = DEFAULT_QUADRATURE_NODES,
    ) -> "VelocityDistribution":
        """Truncated Gaussian speed distribution on a quadrature grid.

        Nodes are Gauss-Legendre points weighted by the renormalized density.
        The emission kernel oscillates in v, and an equal-spacing rule needs
        thousands of nodes to reach comparable accuracy at high photon
        numbers.
        """
        if v0 <= 0.0:
            raise ConfigError(f"v0 must be positive, got {v0}")
        if fwhm < 0.0:
            raise ConfigError(f"fwhm must be >= 0, got {fwhm}")
        if n_nodes < 1:
            raise ConfigError(f"n_nodes must be >= 1, got {n_nodes}")
        if fwhm == 0.0:
            return cls.delta(v0)
        sigma = fwhm / FWHM_PER_SIGMA
        lo = max(v0 - TRUNCATION_SIGMAS * sigma, MIN_VELOCITY_FRACTION * v0)
        hi = v0 + TRUNCATION_SIGMAS * sigma
        x, wq = np.polynomial.legendre.leggauss(n_nodes)
        v = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        w = wq * np.exp(-0.5 * ((v - v0) / sigma) ** 2)
        w = w / w.sum()
        return cls(kind="gaussian", v0=v0, fwhm=fwhm, velocities=v, weights=w)

    @classmethod
    def from_config(
        cls,
        cfg: MicrolaserConfig,
        n_nodes: int = DEFAULT_QUADRATURE_NODES,
    ) -> "VelocityDistribution":
        if cfg.dv_fwhm_frac == 0.0:
            return cls.delta(cfg.v0)
        return cls.gaussian(cfg.v0, cfg.dv_fwhm_frac * cfg.v0, n_nodes)


def averaged_beta(k, cfg: MicrolaserConfig, dist: VelocityDistribution):
    """Velocity-averaged emission probability sum_j w_j beta_k(v_j).

    ``k`` may be scalar or an array; a delta distribution reduces to the
    pointwise kernel at v0. The terms w_j sin^2(sqrt(k) theta_j) fill one
    node-by-k buffer in place and are summed over the nodes by pairwise
    halving: while m terms are left, term i takes term i + m - m // 2 for
    i < m // 2. That order is fixed, so each k gets the same bits alone, in
    any table and at any table size; a matrix-vector product rounds its
    rows by their position in the table.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0.0):
        raise ValueError(f"k must be >= 0, got {k}")
    theta = cfg.g0 * interaction_time(dist.velocities, cfg.mode_waist)
    terms = np.multiply.outer(theta, np.sqrt(k_arr))
    np.sin(terms, terms)
    np.square(terms, terms)
    terms *= dist.weights.reshape(-1, *(1,) * k_arr.ndim)
    m = terms.shape[0]
    while m > 1:
        half = m // 2
        terms[:half] += terms[m - half:m]
        m -= half
    return float(terms[0]) if k_arr.ndim == 0 else terms[0]


def averaged_beta_table(n_max: int, cfg: MicrolaserConfig, dist: VelocityDistribution) -> np.ndarray:
    """beta-bar for k = 1..n_max as an array of length n_max."""
    return averaged_beta(np.arange(1, n_max + 1, dtype=float), cfg, dist)


def config_fingerprint(cfg: MicrolaserConfig, dist: VelocityDistribution | None = None) -> str:
    """Stable hex digest of the configuration (and quadrature, if given)."""
    h = hashlib.sha256()
    for key, value in sorted(cfg.to_dict().items()):
        h.update(f"{key}={value!r};".encode())
    if dist is not None:
        h.update(f"kind={dist.kind};fwhm={dist.fwhm!r};".encode())
        h.update(np.ascontiguousarray(dist.velocities).tobytes())
        h.update(np.ascontiguousarray(dist.weights).tobytes())
    return h.hexdigest()


# Configuration files are flat "key = value" lines with '#' comments.
# Frequencies may be given as ordinary frequencies via *_hz keys; the loader
# multiplies by 2 pi once so all internal math stays in rad/s.

_HZ_KEYS = {"g0_hz": "g0", "gamma_c_hz": "gamma_c"}
_FLOAT_KEYS = {
    "g0", "gamma_c", "mode_waist", "v0", "n_atoms_mean",
    "dv_fwhm_frac", "detection_efficiency", "splitter_ratio",
}
_REQUIRED_KEYS = {"g0", "gamma_c", "mode_waist", "v0", "n_atoms_mean"}


def load_config(path) -> MicrolaserConfig:
    """Parse a flat key = value configuration file into a MicrolaserConfig."""
    path = Path(path)
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key in _HZ_KEYS:
            target = _HZ_KEYS[key]
            if target in values:
                raise ConfigError(f"{path}:{lineno}: {target} given twice (rad/s and Hz)")
            try:
                values[target] = TWO_PI * float(text)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad number {text!r} for {key}") from None
        elif key in _FLOAT_KEYS:
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
            try:
                values[key] = float(text)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad number {text!r} for {key}") from None
        elif key == "n_max":
            try:
                values[key] = int(text)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad integer {text!r} for n_max") from None
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    missing = _REQUIRED_KEYS - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(sorted(missing))}")
    return MicrolaserConfig(**values)
