"""Cavity-QED microlaser photon statistics toolkit.

Theory (rate-equation fixed points and number-basis master equation),
stochastic jump-process simulation producing detector timestamp streams, and
multi-start multi-stop correlation analysis that recovers g2(tau), the
correlation time, and the Mandel Q from those streams.
"""

from .core import (
    MicrolaserConfig,
    VelocityDistribution,
    averaged_beta,
    beta,
    injection_rate,
    interaction_time,
    load_config,
    save_config,
)
from .correlator import (
    CorrelationHistogram,
    G2Estimate,
    QEstimate,
    correlate,
    estimate_q,
    fit_exponential,
    g2_symmetric,
    merge_histograms,
    normalize,
    shot_noise_rms,
)
from .errors import (
    ConfigError,
    FitConvergenceError,
    MicrolaserError,
    NoFixedPointError,
    TruncationError,
)
from .fitting import ExpFit, fit_exp_decay
from .quantum import (
    G2Curve,
    MasterEquationGenerator,
    PhotonDistribution,
    build_generator,
    g2_regression,
    q_and_tau_from_g2,
    steady_state,
    validity_check,
)
from .semiclassical import (
    FixedPoint,
    SweepResult,
    find_fixed_points,
    gain,
    loss,
    sweep,
)
from .streams import (
    TimestampStream,
    read_mlts1,
    read_stream,
    write_mlts1,
)
from .trajectory import (
    TrajectoryRecord,
    photon_number_histogram,
    simulate,
    total_variation_distance,
)

__version__ = "0.1.0"
