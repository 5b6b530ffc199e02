import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from microlaser.cli import main
from microlaser.streams import read_mlts1

SCALED_CFG = """\
g0_hz = 650e3
gamma_c_hz = 150e3
mode_waist = 41e-6
v0 = 750
dv_fwhm_frac = 0.0
n_atoms_mean = 4.2
detection_efficiency = 1.0
splitter_ratio = 0.5
n_max = 256
"""

GAMMA_C = 2 * np.pi * 150e3


@pytest.fixture()
def scaled_cfg_file(tmp_path):
    path = tmp_path / "scaled.cfg"
    path.write_text(SCALED_CFG)
    return path


def body_lines(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


def header_lines(path):
    return [l for l in path.read_text().splitlines() if l.startswith("#")]


def test_sweep_single_zero_point(tmp_path, scaled_cfg_file):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(scaled_cfg_file), "--n-range", "0",
                 "--out", str(out)])
    assert code == 0
    rows = body_lines(out)
    assert rows[0].startswith("N_mean,")
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert float(fields[0]) == 0.0
    assert float(fields[1]) == 0.0  # selected n0
    assert float(fields[2]) == 0.0  # quantum <n>
    assert any("manifest_hash" in l for l in header_lines(out))


def test_sweep_rerun_is_byte_identical(tmp_path, scaled_cfg_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--config", str(scaled_cfg_file), "--n-range", "1:5:2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert body_lines(out1) == body_lines(out2)
    # headers coincide except for the output-path-dependent manifest hash
    h1 = [l for l in header_lines(out1) if "manifest_hash" not in l]
    h2 = [l for l in header_lines(out2) if "manifest_hash" not in l]
    assert h1 == h2


def test_sweep_direction_down(tmp_path, scaled_cfg_file):
    out = tmp_path / "down.csv"
    code = main(["sweep", "--config", str(scaled_cfg_file), "--n-range", "1:9:4",
                 "--direction", "down", "--out", str(out)])
    assert code == 0
    n_values = [float(r.split(",")[0]) for r in body_lines(out)[1:]]
    assert n_values == [9.0, 5.0, 1.0]


def test_predict_g2_antibunched(tmp_path, scaled_cfg_file):
    out = tmp_path / "g2.csv"
    code = main(["predict-g2", "--config", str(scaled_cfg_file), "--out", str(out)])
    assert code == 0
    header = header_lines(out)
    c0 = float(next(l for l in header if "c0 =" in l).split("=")[1])
    assert c0 < 0.0  # photon-number stabilization: antibunching
    values = dict(l[2:].split(" = ", 1) for l in header if " = " in l)
    assert abs(float(values["plateau"])) < 1e-12
    assert 0.5 <= float(values["weight_ratio"]) <= 1.0
    assert "fit_warning" not in values
    rows = body_lines(out)
    assert rows[0] == "tau_seconds,g2"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert data[0, 1] < 1.0
    assert data[-1, 1] == pytest.approx(1.0, abs=1e-4)


def test_predict_g2_bunched_near_threshold(tmp_path):
    cfg = tmp_path / "bunch.cfg"
    cfg.write_text(SCALED_CFG.replace("n_atoms_mean = 4.2", "n_atoms_mean = 1.1"))
    out = tmp_path / "g2.csv"
    assert main(["predict-g2", "--config", str(cfg), "--out", str(out)]) == 0
    c0 = float(next(l for l in header_lines(out) if "c0 =" in l).split("=")[1])
    assert c0 > 0.0


def test_predict_g2_delta_equals_one_node_gaussian(tmp_path):
    cfg_delta = tmp_path / "delta.cfg"
    cfg_delta.write_text(SCALED_CFG)
    cfg_gauss = tmp_path / "gauss.cfg"
    cfg_gauss.write_text(SCALED_CFG.replace("dv_fwhm_frac = 0.0", "dv_fwhm_frac = 0.45"))
    out_delta = tmp_path / "gd.csv"
    out_gauss = tmp_path / "gg.csv"
    assert main(["predict-g2", "--config", str(cfg_delta), "--out", str(out_delta)]) == 0
    assert main(["predict-g2", "--config", str(cfg_gauss), "--quadrature-nodes", "1",
                 "--out", str(out_gauss)]) == 0
    assert body_lines(out_delta) == body_lines(out_gauss)


def test_simulate_deterministic_and_readable(tmp_path, scaled_cfg_file):
    duration = 200.0 / GAMMA_C
    args = ["simulate", "--config", str(scaled_cfg_file),
            "--duration-s", f"{duration!r}", "--seed", "9"]
    assert main(args + ["--out-prefix", str(tmp_path / "runA")]) == 0
    assert main(args + ["--out-prefix", str(tmp_path / "runB")]) == 0
    a1 = (tmp_path / "runA.ch1.mlts1").read_bytes()
    b1 = (tmp_path / "runB.ch1.mlts1").read_bytes()
    assert a1 == b1
    stream = read_mlts1(tmp_path / "runA.ch1.mlts1")
    assert stream.channel == 1
    assert stream.duration == pytest.approx(duration, abs=1e-12)
    assert stream.count > 0
    assert (tmp_path / "runA.manifest.txt").exists()


def test_simulate_empty_for_zero_pump_cold_start(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(SCALED_CFG.replace("n_atoms_mean = 4.2", "n_atoms_mean = 0"))
    assert main(["simulate", "--config", str(cfg), "--duration-s", "1e-3",
                 "--seed", "1", "--cold-start", "0",
                 "--out-prefix", str(tmp_path / "zero")]) == 0
    assert read_mlts1(tmp_path / "zero.ch1.mlts1").count == 0
    assert read_mlts1(tmp_path / "zero.ch2.mlts1").count == 0


def test_simulate_counts_near_theory(tmp_path, scaled_cfg_file):
    from microlaser.core import load_config, VelocityDistribution
    from microlaser.quantum import steady_state

    duration = 2000.0 / GAMMA_C
    assert main(["simulate", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{duration!r}", "--seed", "21",
                 "--out-prefix", str(tmp_path / "run")]) == 0
    cfg = load_config(scaled_cfg_file)
    p = steady_state(cfg, VelocityDistribution.from_config(cfg))
    expected = 0.5 * GAMMA_C * p.mean * duration  # per channel, efficiency 1
    got = read_mlts1(tmp_path / "run.ch1.mlts1").count
    assert abs(got - expected) < 6.0 * np.sqrt(expected)


def test_simulate_path_csv(tmp_path, scaled_cfg_file):
    assert main(["simulate", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{50.0 / GAMMA_C!r}", "--seed", "2",
                 "--path-csv", "--out-prefix", str(tmp_path / "p")]) == 0
    rows = body_lines(tmp_path / "p.path.csv")
    assert rows[0] == "time_s,n"
    values = [int(r.split(",")[1]) for r in rows[1:]]
    assert all(v >= 0 for v in values)


def test_correlate_fit_roundtrip(tmp_path, scaled_cfg_file):
    duration = 4000.0 / GAMMA_C
    assert main(["simulate", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{duration!r}", "--seed", "5",
                 "--out-prefix", str(tmp_path / "run")]) == 0
    report = tmp_path / "fit.txt"
    g2_csv = tmp_path / "g2est.csv"
    code = main([
        "correlate-fit", str(tmp_path / "run.ch1.mlts1"), str(tmp_path / "run.ch2.mlts1"),
        "--bin-ns", "20", "--window-us", f"{5.0 / GAMMA_C * 1e6!r}",
        "--config", str(scaled_cfg_file),
        "--out", str(report), "--g2-csv", str(g2_csv),
    ])
    assert code == 0
    entries = dict(
        l.split(" = ", 1) for l in report.read_text().splitlines()
        if " = " in l and not l.startswith("#")
    )
    assert float(entries["c0"]) < 0.0  # antibunched operating point
    assert float(entries["tau_c_s"]) > 0.0
    assert float(entries["q_from_c0"]) < 0.0
    assert "chi2_reduced" in entries
    rows = body_lines(g2_csv)
    assert rows[0] == "tau_s,g2,sigma"


def test_correlate_fit_flat_poisson(tmp_path, scaled_cfg_file):
    from microlaser.streams import TimestampStream, write_mlts1

    rng = np.random.default_rng(77)
    duration = 5.0
    for name, channel in (("p1", 1), ("p2", 2)):
        n = rng.poisson(50e3 * duration)
        stream = TimestampStream(np.sort(rng.uniform(0, duration, n)), channel, duration)
        write_mlts1(stream, tmp_path / f"{name}.mlts1")
    report = tmp_path / "flat.txt"
    code = main([
        "correlate-fit", str(tmp_path / "p1.mlts1"), str(tmp_path / "p2.mlts1"),
        "--bin-ns", "1000", "--window-us", "200",
        "--config", str(scaled_cfg_file), "--out", str(report),
    ])
    assert code == 0
    entries = dict(
        l.split(" = ", 1) for l in report.read_text().splitlines()
        if " = " in l and not l.startswith("#")
    )
    c0 = float(entries["c0"])
    if entries.get("cov_c0_c0", "None") != "None" and c0 != 0.0:
        sigma = float(entries["cov_c0_c0"]) ** 0.5
        assert abs(float(entries["q_from_c0"])) <= 3.0 * sigma * 30.5
    else:
        assert float(entries["q_from_c0"]) == 0.0


def test_sweep_shape_saturation_then_jump(tmp_path):
    # The mean photon number grows, saturates, then hops to the next gain
    # lobe; both the rate-equation branch and the number-basis mean show it.
    cfg = tmp_path / "published4096.cfg"
    cfg.write_text(
        "g0_hz = 190e3\ngamma_c_hz = 150e3\nmode_waist = 41e-6\nv0 = 750\n"
        "dv_fwhm_frac = 0.45\nn_atoms_mean = 158\nn_max = 4096\n"
    )
    out = tmp_path / "shape.csv"
    assert main(["sweep", "--config", str(cfg), "--n-range", "0:300:50",
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in body_lines(out)[1:]]
    n_quantum = np.array([float(r[2]) for r in rows])
    n0_sel = np.array([float(r[1]) for r in rows])
    growth = np.diff(n_quantum)
    # saturation: growth slows before the jump
    assert growth[1] > growth[2] > growth[3]
    # jump: a step much larger than the preceding growth
    assert growth.max() > 5.0 * growth[3]
    assert n0_sel[-1] > 3.0 * n0_sel[-3]


def test_pipeline_end_to_end(tmp_path, scaled_cfg_file, capsys):
    out_dir = tmp_path / "pipe"
    code = main(["pipeline", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{4000.0 / GAMMA_C!r}", "--seed", "3",
                 "--out-dir", str(out_dir)])
    assert code == 0
    report = (out_dir / "report.txt").read_text()
    entries = dict(
        l.split(" = ", 1) for l in report.splitlines()
        if " = " in l and not l.startswith("#")
    )
    assert np.isfinite(float(entries["z_tau_c"]))
    assert np.isfinite(float(entries["z_c0"]))
    assert entries["sign_match_c0"] == "True"
    for name in ("ch1.mlts1", "ch2.mlts1", "g2.csv", "manifest.txt"):
        assert (out_dir / name).exists()
    assert "pipeline:" in capsys.readouterr().out


def test_pipeline_and_correlate_fit_agree_on_the_same_files(tmp_path, scaled_cfg_file):
    # pipeline correlates the streams as it wrote them (integer picoseconds),
    # so correlate-fit on its files reproduces its g2 and fit exactly
    out_dir = tmp_path / "pipe"
    window_us = f"{5.0 / GAMMA_C * 1e6!r}"
    assert main(["pipeline", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{4000.0 / GAMMA_C!r}", "--seed", "402",
                 "--window-us", window_us, "--out-dir", str(out_dir)]) == 0
    report = tmp_path / "fit.txt"
    g2_csv = tmp_path / "g2.csv"
    assert main(["correlate-fit", str(out_dir / "ch1.mlts1"), str(out_dir / "ch2.mlts1"),
                 "--window-us", window_us, "--out", str(report),
                 "--g2-csv", str(g2_csv)]) == 0
    assert body_lines(g2_csv) == body_lines(out_dir / "g2.csv")

    def fit_lines(path):
        keys = ("c0", "tau_c_s", "chi2_reduced", "n_bins_used",
                "cov_c0_c0", "cov_c0_tau", "cov_tau_tau")
        return [l for l in body_lines(path) if l.split(" = ", 1)[0] in keys]

    assert len(fit_lines(report)) == 7
    assert fit_lines(report) == fit_lines(out_dir / "report.txt")


def test_pipeline_names_the_side_without_tau_c(tmp_path, capsys):
    # At the Q = 0 crossing the theory g2 weights cancel, so the theory has no
    # tau_c while the measured fit still has one.
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(SCALED_CFG.replace("n_atoms_mean = 4.2", "n_atoms_mean = 1.5"))
    out_dir = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg), "--duration-s", "0.01", "--seed", "2",
                 "--out-dir", str(out_dir)]) == 0
    entries = dict(
        l.split(" = ", 1) for l in (out_dir / "report.txt").read_text().splitlines()
        if " = " in l and not l.startswith("#")
    )
    assert entries["tau_c_theory_s"] == "None"
    assert entries["z_tau_c"] == "None"
    assert float(entries["tau_c_s"]) > 0.0
    out = capsys.readouterr().out
    assert "theory tau_c undefined" in out
    assert "flat" not in out


def test_pipeline_reports_a_flat_fit_at_the_crossing(tmp_path, capsys):
    # With seed 1 no decay is resolvable in 10 ms at the crossing: the fit is
    # flat instead of running off to a spike shorter than one bin.
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(SCALED_CFG.replace("n_atoms_mean = 4.2", "n_atoms_mean = 1.5"))
    out_dir = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg), "--duration-s", "0.01", "--seed", "1",
                 "--out-dir", str(out_dir)]) == 0
    entries = dict(
        l.split(" = ", 1) for l in (out_dir / "report.txt").read_text().splitlines()
        if " = " in l and not l.startswith("#")
    )
    assert entries["tau_c_s"] == "None"
    assert float(entries["c0"]) == 0.0
    assert "fitted curve is flat" in capsys.readouterr().out


def test_exit_code_config_error(tmp_path):
    missing = tmp_path / "nope.cfg"
    assert main(["predict-g2", "--config", str(missing), "--out", str(tmp_path / "x")]) == 4
    bad = tmp_path / "bad.cfg"
    bad.write_text("g0 = -1\ngamma_c = 1\nmode_waist = 1e-5\nv0 = 700\nn_atoms_mean = 1\n")
    assert main(["predict-g2", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SCALED_CFG)
    assert main(["sweep", "--config", str(cfg), "--n-range", "5:1:1",
                 "--out", str(tmp_path / "x")]) == 2


def test_exit_code_numerical_error(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SCALED_CFG.replace("n_max = 256", "n_max = 8"))
    code = main(["predict-g2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_exit_code_io_error(tmp_path, scaled_cfg_file):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["predict-g2", "--config", str(scaled_cfg_file), "--out", str(out)])
    assert code == 4


def test_usage_error_exit_code():
    assert main(["sweep", "--n-range", "1:2:1"]) == 2  # missing --config


NUMPY_ONLY_SCRIPT = """\
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None  # any import of these now raises ImportError
from microlaser.cli import main
cfg, out = sys.argv[1], sys.argv[2]
raise SystemExit(
    main(["predict-g2", "--config", cfg, "--out", out + "/g2.csv"])
    or main(["pipeline", "--config", cfg, "--duration-s", "0.002", "--out-dir", out])
)
"""


def test_runtime_needs_numpy_only(tmp_path):
    # scipy, mpmath and hypothesis are test extras; the commands must run without them.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(root / "configs" / "scaled.cfg"),
         str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "g2.csv").exists()
