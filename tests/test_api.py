import re
import types
from pathlib import Path

import microlaser

README = Path(__file__).resolve().parents[1] / "README.md"

# Everything `import microlaser` offers. A name added to or removed from the
# package's exports must change this set too.
PUBLIC_NAMES = {
    # configuration and the emission kernel
    "MicrolaserConfig", "VelocityDistribution", "averaged_beta", "injection_rate",
    "interaction_time", "load_config",
    # correlator
    "CorrelationHistogram", "G2Estimate", "QEstimate", "correlate", "estimate_q",
    "fit_exponential", "g2_symmetric", "merge_histograms", "normalize", "shot_noise_rms",
    # errors
    "ConfigError", "MicrolaserError", "TruncationError",
    # fitting
    "ExpFit", "fit_exp_decay",
    # number-basis theory
    "G2Curve", "MasterEquationGenerator", "PhotonDistribution", "build_generator",
    "g2_regression", "q_and_tau_from_g2", "steady_state",
    # rate equation
    "FixedPoint", "SweepResult", "find_fixed_points", "sweep",
    # timestamp streams
    "TimestampStream", "read_mlts1", "read_stream", "write_mlts1",
    # simulator
    "TrajectoryRecord", "photon_number_histogram", "simulate", "total_variation_distance",
}


def test_public_names():
    # submodules show up as attributes once anything imports them, so they
    # are not counted
    exported = {
        name for name, value in vars(microlaser).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_readme_quickstart_runs():
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library quickstart", "exec"), {})
