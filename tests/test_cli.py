import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microlaser import cli
from microlaser.cli import main
from microlaser.core import VelocityDistribution, load_config
from microlaser.correlator import (
    correlate,
    g2_symmetric,
    merge_histograms,
    normalize,
    shot_noise_rms,
)
from microlaser.streams import (
    PS_PER_SECOND,
    TimestampStream,
    read_mlts1,
    read_stream,
    write_mlts1,
)
from microlaser.trajectory import simulate

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
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


# sha256 of the predict-g2 data rows and of its n_mean, mandel_q_moments, c0
# and tau_c_s header lines, recorded on the 1.1 r / Gamma_c + 10 basis with
# the g2 window trimmed by the outflux budget and the curve summed from the
# spectrum.
PREDICT_G2_GOLDEN = {
    "scaled": (
        "23a46075d3530ca21279645d7605a0435ad885288052f67e1f1f9e54e2716fe7",
        "815aa98b79885eb650ea424198a5d7884ace010267b255f2afe1b88ab098db50",
    ),
    "published": (
        "73381b7b546f7742d63ec96aa7a376f7d53fde24a19494a02984aeb2c9d99803",
        "cbacd792a47317c382be62f8b155087a0dbd7b6d38db108b702c4e8ebddd1585",
    ),
}
GOLDEN_KEYS = ("n_mean", "mandel_q_moments", "c0", "tau_c_s")


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("stem", PREDICT_G2_GOLDEN)
def test_predict_g2_golden(tmp_path, stem):
    out = tmp_path / "g2.csv"
    assert main(["predict-g2", "--config", str(CONFIGS / f"{stem}.cfg"), "--out", str(out)]) == 0
    rows = body_lines(out)
    assert rows[0] == "tau_seconds,g2"
    summary = [l for l in header_lines(out) if l[2:].split(" = ")[0] in GOLDEN_KEYS]
    assert len(rows) == 201 and len(summary) == len(GOLDEN_KEYS)
    assert (_sha256_lines(rows[1:]), _sha256_lines(summary)) == PREDICT_G2_GOLDEN[stem]


def test_predict_g2_records_the_basis(tmp_path):
    def basis(cfg_path):
        out = tmp_path / "g2.csv"
        assert main(["predict-g2", "--config", str(cfg_path), "--out", str(out)]) == 0
        values = dict(l[2:].split(" = ", 1) for l in header_lines(out))
        return (int(values["n_basis_requested"]), int(values["n_basis_used"]),
                int(values["g2_kept_states"]), float(values["g2_outflux_bound"]))

    requested, used, kept, bound = basis(CONFIGS / "published.cfg")
    assert (requested, used, kept) == (1914, 1914, 244)
    # 292 states lie above SPECTRAL_FLOOR; the outflux budget keeps fewer
    assert kept < 292 and 0.0 < bound <= 1e-10
    # the tail check doubles a basis that is too small
    doubled = tmp_path / "doubled.cfg"
    doubled.write_text(SCALED_CFG.replace("n_max = 256", "n_max = 40"))
    assert basis(doubled)[:2] == (40, 80)


def test_predict_g2_solves_one_steady_state(tmp_path, monkeypatch):
    from microlaser import quantum

    calls = Counter()

    def counted(name):
        original = getattr(quantum, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(quantum, name, wrapper)

    counted("steady_state")
    counted("averaged_beta_table")
    out = tmp_path / "g2.csv"
    assert main(["predict-g2", "--config", str(CONFIGS / "scaled.cfg"), "--out", str(out)]) == 0
    # one table for the steady state, one for the generator of the g2 solve
    assert calls == {"steady_state": 1, "averaged_beta_table": 2}


def test_predict_g2_zero_pump_is_a_config_error(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(SCALED_CFG.replace("n_atoms_mean = 4.2", "n_atoms_mean = 0"))
    out = tmp_path / "g2.csv"
    assert main(["predict-g2", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


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


def test_correlate_fit_times_the_reads_outside_the_hash(tmp_path, monkeypatch):

    rng = np.random.default_rng(4)
    for channel in (1, 2):
        times = np.sort(rng.uniform(0.0, 1e-3, 2_000))
        write_mlts1(TimestampStream(times, channel, 1e-3), tmp_path / f"ch{channel}.mlts1")
    argv = ["correlate-fit", str(tmp_path / "ch1.mlts1"), str(tmp_path / "ch2.mlts1"),
            "--window-us", "1", "--out", str(tmp_path / "fit.txt")]

    def manifest():
        lines = (tmp_path / "fit.txt.manifest.txt").read_text().splitlines()
        return dict(l.split(" = ", 1) for l in lines if " = " in l)

    assert main(argv) == 0
    quick = manifest()
    read_stream = cli.read_stream
    reads, clock = [], []

    def slow_read(path):
        start = time.perf_counter()
        time.sleep(0.1)
        stream = read_stream(path)
        reads.append((start, time.perf_counter()))
        return stream

    def perf_counter():
        clock.append(time.perf_counter())
        return clock[-1]

    monkeypatch.setattr(cli, "read_stream", slow_read)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=perf_counter))
    # files this small are read one after the other, larger ones at once
    for pool_read_bytes, overlap in ((cli._POOL_READ_BYTES, False), (0, True)):
        monkeypatch.setattr(cli, "_POOL_READ_BYTES", pool_read_bytes)
        reads.clear()
        clock.clear()
        assert main(argv) == 0
        slow = manifest()
        # the command's clock reads open and close the timed span
        t0, t1 = clock[0], clock[-1]
        assert float(slow["wall_clock_s"]) == t1 - t0
        assert len(reads) == 2
        assert all(t0 <= start and end <= t1 for start, end in reads)
        (start1, end1), (start2, end2) = reads
        assert (max(start1, start2) < min(end1, end2)) == overlap
        assert slow["manifest_hash"] == quick["manifest_hash"]


def test_sweep_times_the_rate_equation_sweep(tmp_path, scaled_cfg_file, monkeypatch):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(scaled_cfg_file), "--n-range", "0:2:1", "--out", str(out)]

    def manifest():
        lines = (tmp_path / "sweep.csv.manifest.txt").read_text().splitlines()
        return dict(l.split(" = ", 1) for l in lines if " = " in l)

    assert main(argv) == 0
    quick = manifest()
    sweep = cli.semiclassical.sweep
    spans, clock = [], []

    def slow_sweep(*args):
        start = time.perf_counter()
        time.sleep(0.1)
        result = sweep(*args)
        spans.append((start, time.perf_counter()))
        return result

    def perf_counter():
        clock.append(time.perf_counter())
        return clock[-1]

    monkeypatch.setattr(cli.semiclassical, "sweep", slow_sweep)
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=perf_counter))
    assert main(argv) == 0
    slow = manifest()
    t0, t1 = clock[0], clock[-1]
    assert float(slow["wall_clock_s"]) == t1 - t0 >= 0.1
    [(start, end)] = spans
    assert t0 <= start and end <= t1
    assert slow["manifest_hash"] == quick["manifest_hash"]


def _command_line(command, inputs, out):
    """argv of ``command`` writing into the directory ``out`` (correlate-fit
    reads the streams in ``inputs``), and the path of its run record."""
    if command == "sweep":
        return ["sweep", "--config", str(CONFIGS / "scaled.cfg"), "--n-range", "1:5:2",
                "--out", str(out / "sweep.csv")], out / "sweep.csv.manifest.txt"
    if command == "predict-g2":
        return ["predict-g2", "--config", str(CONFIGS / "published.cfg"),
                "--out", str(out / "g2.csv")], out / "g2.csv.manifest.txt"
    if command == "simulate":
        return ["simulate", "--config", str(CONFIGS / "scaled.cfg"), "--path-csv",
                "--out-prefix", str(out / "sim")], out / "sim.manifest.txt"
    if command == "pipeline":
        return ["pipeline", "--config", str(CONFIGS / "scaled.cfg"), "--duration-s", "0.002",
                "--out-dir", str(out)], out / "manifest.txt"
    return ["correlate-fit", str(inputs / "ch1.mlts1"), str(inputs / "ch2.mlts1"),
            "--window-us", "1", "--g2-csv", str(out / "g2.csv"),
            "--out", str(out / "fit.txt")], out / "fit.txt.manifest.txt"


@pytest.mark.parametrize("command, first, second", [
    ("correlate-fit", ["--bin-ns", "20"], ["--bin-ns", "10"]),
    ("correlate-fit", [], ["--symmetric"]),
    ("predict-g2", ["--quadrature-nodes", "64"], ["--quadrature-nodes", "16"]),
    ("simulate", ["--duration-s", "0.002"], ["--duration-s", "0.003"]),
    ("pipeline", ["--window-us", "5.3"], ["--window-us", "4.0"]),
    ("sweep", ["--direction", "up"], ["--direction", "down"]),
])
def test_run_record_lists_and_hashes_every_option(tmp_path, command, first, second):

    rng = np.random.default_rng(6)
    for channel in (1, 2):
        times = np.sort(rng.uniform(0.0, 1e-3, 2_000))
        write_mlts1(TimestampStream(times, channel, 1e-3), tmp_path / f"ch{channel}.mlts1")
    out = tmp_path / "out"
    out.mkdir()
    argv, record_path = _command_line(command, tmp_path, out)
    hashes = []
    for options in (first, second):
        # both command lines write the same paths
        assert main(argv + options) == 0
        lines = record_path.read_text().splitlines()
        record = [tuple(l.split(" = ", 1)) for l in lines]
        parsed = vars(cli.build_parser().parse_args(argv + options))
        expected = {k: cli._render(v) for k, v in parsed.items() if k not in ("command", "func")}
        assert {k[len("option."):]: v for k, v in record if k.startswith("option.")} == expected
        # the record lists every file the command wrote
        outputs = [Path(v) for k, v in record if k == "output"]
        assert sorted(outputs + [record_path]) == sorted(out.iterdir())
        hashes.append(dict(record)["manifest_hash"])
    assert hashes[0] != hashes[1]


def test_run_clock_spans_the_artifact_writes(tmp_path, scaled_cfg_file, monkeypatch):
    write_table = cli._write_table

    def slow_write(*args):
        time.sleep(0.1)
        write_table(*args)

    monkeypatch.setattr(cli, "_write_table", slow_write)
    out = tmp_path / "g2.csv"
    assert main(["predict-g2", "--config", str(scaled_cfg_file), "--out", str(out)]) == 0
    lines = (tmp_path / "g2.csv.manifest.txt").read_text().splitlines()
    assert float(dict(l.split(" = ", 1) for l in lines)["wall_clock_s"]) >= 0.1


def test_correlate_fit_with_an_empty_steady_state_writes_no_theory(tmp_path):
    # a zero-pump config has no theory to compare with: the report is that of
    # correlate-fit without --config

    rng = np.random.default_rng(5)
    for channel in (1, 2):
        times = np.sort(rng.uniform(0.0, 1e-3, 2_000))
        write_mlts1(TimestampStream(times, channel, 1e-3), tmp_path / f"ch{channel}.mlts1")
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(SCALED_CFG.replace("n_atoms_mean = 4.2", "n_atoms_mean = 0"))
    argv = ["correlate-fit", str(tmp_path / "ch1.mlts1"), str(tmp_path / "ch2.mlts1"),
            "--window-us", "1"]
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "zero.txt")]) == 0
    assert main(argv + ["--out", str(tmp_path / "plain.txt")]) == 0
    lines = body_lines(tmp_path / "zero.txt")
    assert lines == body_lines(tmp_path / "plain.txt")
    keys = {l.split(" = ", 1)[0] for l in lines}
    assert {"c0", "tau_c_s", "rate1_hz", "shot_noise_rms"} <= keys
    assert not keys & {"q_from_c0", "n_mean_theory", "c0_theory", "z_c0", "n_basis_used"}


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


def test_simulate_path_csv(tmp_path, scaled_cfg_file, monkeypatch):
    # small blocks, so the run spans several of them and ends in a partial one
    monkeypatch.setattr(cli, "PATH_CSV_BLOCK", 1000)
    duration = 50.0 / GAMMA_C
    assert main(["simulate", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{duration!r}", "--seed", "2",
                 "--path-csv", "--out-prefix", str(tmp_path / "p")]) == 0
    rows = body_lines(tmp_path / "p.path.csv")
    assert rows[0] == "time_s,n"
    values = [int(r.split(",")[1]) for r in rows[1:]]
    assert all(v >= 0 for v in values)
    assert len(values) % 1000 != 0 and len(values) > 2000

    # the rows are byte for byte those of a writer that formats one jump at a time
    cfg = load_config(scaled_cfg_file)
    rec = simulate(cfg, VelocityDistribution.from_config(cfg), duration, seed=2,
                   record_path=True)
    expected = io.StringIO()
    expected.write("time_s,n\n")
    for t, n in zip(rec.path_times, rec.path_values):
        expected.write(f"{t:.12g},{n}\n")
    data = (tmp_path / "p.path.csv").read_bytes()
    assert data[data.index(b"time_s,n\n"):] == expected.getvalue().encode()


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
    n_bins = math.ceil(float(entries["window_s"]) / float(entries["bin_width_s"]) - 1e-9)
    assert len(rows) == n_bins + 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(150, 500), st.integers(150, 500)),
    bin_ps=st.integers(1, 20_000),
    n_bins=st.integers(11, 40),
    windows=st.integers(5, 40),
    on_bin_edges=st.booleans(),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=3),
)
def test_every_route_gives_one_histogram(seed, sizes, bin_ps, n_bins, windows, on_bin_edges,
                                         cuts):
    # streams on the integer-picosecond grid, so that an MLTS1 round trip is exact;
    # times on bin edges put delays on them too, where float rounding picks the bin
    rng = np.random.default_rng(seed)
    tick = bin_ps if on_bin_edges else 1
    duration_ps = n_bins * bin_ps * windows
    duration = duration_ps / PS_PER_SECOND
    a, b = (
        TimestampStream(np.sort(rng.integers(0, duration_ps // tick, n, endpoint=True)) * tick
                        / PS_PER_SECOND, channel, duration)
        for channel, n in zip((1, 2), sizes)
    )
    # the bin width and window as correlate-fit forms them from its options
    bin_ns, window_us = bin_ps / 1000, n_bins * bin_ps / 1e6
    bin_width, window = bin_ns * 1e-9, window_us * 1e-6
    whole = correlate(a, b, bin_width, window)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for stream, name in ((a, "ch1.mlts1"), (b, "ch2.mlts1")):
            write_mlts1(stream, tmp / name)
            again = read_stream(tmp / name)
            assert np.array_equal(again.times, stream.times)
            assert again.duration == stream.duration
        from_file = correlate(read_stream(tmp / "ch1.mlts1"), read_stream(tmp / "ch2.mlts1"),
                              bin_width, window)
        assert np.array_equal(from_file.counts, whole.counts)
        assert (from_file.rate1, from_file.rate2) == (whole.rate1, whole.rate2)

        # correlate-fit's g2 rows are normalize(correlate(...)) as written
        assert main(["correlate-fit", str(tmp / "ch1.mlts1"), str(tmp / "ch2.mlts1"),
                     "--bin-ns", repr(bin_ns), "--window-us", repr(window_us),
                     "--g2-csv", str(tmp / "g2.csv"), "--out", str(tmp / "fit.txt")]) == 0
        est = normalize(whole)
        assert body_lines(tmp / "g2.csv")[1:] == [
            f"{t:.17g},{g:.17g},{s:.17g}" for t, g, s in zip(est.tau, est.g2, est.sigma)
        ]

    ends = sorted(int(c * a.count) for c in cuts)
    parts = [TimestampStream(a.times[lo:hi], 1, duration)
             for lo, hi in zip([0] + ends, ends + [a.count])]
    merged = merge_histograms(correlate(part, b, bin_width, window) for part in parts)
    assert np.array_equal(merged.counts, whole.counts)

    reverse = correlate(b, a, bin_width, window)
    assert np.array_equal(g2_symmetric(a, b, bin_width, window).counts,
                          whole.counts + reverse.counts)


def test_correlate_fit_flat_poisson(tmp_path, scaled_cfg_file):

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
    assert (entries["n_basis_requested"], entries["n_basis_used"]) == ("256", "256")
    assert 0 < int(entries["g2_kept_states"]) <= 257
    assert 0.0 < float(entries["g2_outflux_bound"]) <= 1e-10
    for name in ("ch1.mlts1", "ch2.mlts1", "g2.csv", "manifest.txt"):
        assert (out_dir / name).exists()
    assert "pipeline:" in capsys.readouterr().out


def test_pipeline_and_correlate_fit_agree_on_the_same_files(tmp_path, scaled_cfg_file):
    # pipeline analyses the streams as it wrote them (integer picoseconds) on
    # correlate-fit's route, so correlate-fit --config on its files reproduces
    # its g2 rows and every report line but pipeline's own run lines
    out_dir = tmp_path / "pipe"
    window_us = f"{5.0 / GAMMA_C * 1e6!r}"
    assert main(["pipeline", "--config", str(scaled_cfg_file),
                 "--duration-s", f"{4000.0 / GAMMA_C!r}", "--seed", "402",
                 "--window-us", window_us, "--out-dir", str(out_dir)]) == 0
    report = tmp_path / "fit.txt"
    g2_csv = tmp_path / "g2.csv"
    assert main(["correlate-fit", str(out_dir / "ch1.mlts1"), str(out_dir / "ch2.mlts1"),
                 "--window-us", window_us, "--config", str(scaled_cfg_file),
                 "--out", str(report), "--g2-csv", str(g2_csv)]) == 0
    assert body_lines(g2_csv) == body_lines(out_dir / "g2.csv")

    fit_lines, pipe_lines = body_lines(report), body_lines(out_dir / "report.txt")
    keys = [l.split(" = ", 1)[0] for l in fit_lines]
    assert keys == [
        "c0", "tau_c_s", "chi2_reduced", "n_bins_used", "cov_c0_c0", "cov_c0_tau",
        "cov_tau_tau", "q_from_c0", "q_from_tau", "q_discrepancy",
        "rate1_hz", "rate2_hz", "t_acq_s", "bin_width_s", "window_s", "shot_noise_rms",
        "n_mean_theory", "q_theory_moments", "q_theory_fit", "tau_c_theory_s", "c0_theory",
        "z_tau_c", "z_c0", "sign_match_c0",
        "n_basis_requested", "n_basis_used", "g2_kept_states", "g2_outflux_bound",
    ]
    assert pipe_lines[: len(fit_lines)] == fit_lines
    assert [l.split(" = ", 1)[0] for l in pipe_lines[len(fit_lines):]] == [
        "detections_ch1", "detections_ch2", "duration_s"]


def test_correlate_fit_reads_timestamp_csv_like_mlts1(tmp_path):
    # the same events as one-column CSVs of integer picoseconds, written here
    # with numpy, give the same report entries and g2 rows as the MLTS1 files
    out_dir = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(CONFIGS / "scaled.cfg"), "--duration-s", "0.002",
                 "--out-dir", str(out_dir)]) == 0
    for name in ("ch1", "ch2"):
        header, payload = (out_dir / f"{name}.mlts1").read_bytes().split(b"\n", 1)
        _, channel, duration_ps, count = header.decode().split()
        ps = np.frombuffer(payload, dtype="<u8")
        assert ps.size == int(count) > 0
        with open(tmp_path / f"{name}.csv", "w") as fh:
            fh.write(f"# channel = {channel}\n# duration_ps = {duration_ps}\ntimestamp_ps\n")
            np.savetxt(fh, ps, fmt="%d")

    def run(ext):
        report, g2_csv = tmp_path / f"fit.{ext}.txt", tmp_path / f"g2.{ext}.csv"
        src = out_dir if ext == "mlts1" else tmp_path
        assert main(["correlate-fit", str(src / f"ch1.{ext}"), str(src / f"ch2.{ext}"),
                     "--window-us", "5.3", "--config", str(CONFIGS / "scaled.cfg"),
                     "--out", str(report), "--g2-csv", str(g2_csv)]) == 0
        return body_lines(report), body_lines(g2_csv)

    report_lines, g2_rows = run("csv")
    assert (report_lines, g2_rows) == run("mlts1")
    assert len(g2_rows) > 200 and any(l.startswith("rate1_hz = ") for l in report_lines)


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
    # a value that is not finite is refused when the config is loaded
    for key, text in (("gamma_c_hz", "150e3"), ("g0_hz", "650e3"), ("mode_waist", "41e-6"),
                      ("v0", "750"), ("n_atoms_mean", "4.2")):
        for value in ("inf", "nan"):
            bad.write_text(SCALED_CFG.replace(f"{key} = {text}\n", f"{key} = {value}\n"))
            assert main(["predict-g2", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
            assert main(["sweep", "--config", str(bad), "--n-range", "1:3:1",
                         "--out", str(tmp_path / "x")]) == 2
            assert main(["simulate", "--config", str(bad), "--duration-s", "0.001",
                         "--out-prefix", str(tmp_path / "x")]) == 2
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SCALED_CFG)
    assert main(["sweep", "--config", str(cfg), "--n-range", "5:1:1",
                 "--out", str(tmp_path / "x")]) == 2
    # counts no config makes valid, refused before any file is read: a
    # missing config or stream would otherwise exit 4
    for nodes in ("0", "-4"):
        for config in (missing, CONFIGS / "scaled.cfg", CONFIGS / "published.cfg"):
            assert main(["predict-g2", "--config", str(config), "--quadrature-nodes", nodes,
                         "--out", str(tmp_path / "x")]) == 2
    assert main(["correlate-fit", str(tmp_path / "no1"), str(tmp_path / "no2"),
                 "--window-us", "1", "--exclude-bins", "-3", "--out", str(tmp_path / "x")]) == 2
    assert main(["correlate-fit", str(tmp_path / "no1"), str(tmp_path / "no2"),
                 "--window-us", "1", "--quadrature-nodes", "0",
                 "--out", str(tmp_path / "x")]) == 2
    for flag in ("--bin-ns", "--window-us"):
        for bad in ("nan", "inf", "-inf", "0", "-1"):
            assert main(["correlate-fit", str(tmp_path / "no1"), str(tmp_path / "no2"),
                         "--window-us", "1", flag, bad, "--out", str(tmp_path / "x")]) == 2
            assert main(["pipeline", "--config", str(missing), "--duration-s", "0.001",
                         flag, bad, "--out-dir", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_tail_normalize_is_an_unknown_option(tmp_path, capsys):
    # a usage error before either stream is read: missing streams would exit 4
    assert main(["correlate-fit", str(tmp_path / "no1"), str(tmp_path / "no2"),
                 "--window-us", "1", "--tail-normalize", "--out", str(tmp_path / "x")]) == 2
    assert "unrecognized arguments: --tail-normalize" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_window_shorter_than_one_bin_is_refused(tmp_path, scaled_cfg_file, capsys):
    # a configuration error before any stream is read, simulated or written
    assert main(["correlate-fit", str(tmp_path / "no1"), str(tmp_path / "no2"),
                 "--window-us", "0.001", "--out", str(tmp_path / "x")]) == 2
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "0.001",
                 "--window-us", "0.001", "--out-dir", str(tmp_path / "p")]) == 2
    # the default window, 5 / Gamma_c = 5.3 us, against a 6 us bin
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "0.001",
                 "--bin-ns", "6000", "--out-dir", str(tmp_path / "q")]) == 2
    assert capsys.readouterr().err.count("shorter than one bin") == 3
    assert not list(tmp_path.glob("**/ch1.mlts1"))
    assert not list(tmp_path.glob("**/*manifest.txt"))

def test_window_with_too_few_fit_bins_is_refused(tmp_path, scaled_cfg_file, capsys):
    # ceil(window / bin) - exclude_bins < 10 is a configuration error before any
    # stream is read, simulated or written: missing streams would exit 4
    streams = [str(tmp_path / "no1"), str(tmp_path / "no2")]
    assert main(["correlate-fit", *streams, "--window-us", "0.2",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["correlate-fit", *streams, "--window-us", "1", "--exclude-bins", "41",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["correlate-fit", *streams, "--window-us", "0.2", "--exclude-bins", "0",
                 "--out", str(tmp_path / "x")]) == 4
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "0.001",
                 "--bin-ns", "500", "--window-us", "5", "--out-dir", str(tmp_path / "p")]) == 2
    # the default window, 5 / Gamma_c = 5.3 us, holds 9 bins of 600 ns
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "0.001",
                 "--bin-ns", "600", "--out-dir", str(tmp_path / "q")]) == 2
    assert capsys.readouterr().err.count("the fit needs 10") == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scaled.cfg"]


def test_window_reaching_the_end_of_the_run_is_refused(tmp_path, scaled_cfg_file, capsys,
                                                        monkeypatch):
    # a last bin centred at or past the end of the run expects no pairs. pipeline
    # knows its duration up front and refuses it before anything is simulated or
    # written (exit 2): the default window, 5 / Gamma_c = 5.3 us, in a 0.1 us
    # run, and a 1.5 ms window in a 1 ms run
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "1e-7",
                 "--out-dir", str(tmp_path / "p")]) == 2
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "0.001",
                 "--window-us", "1500", "--out-dir", str(tmp_path / "q")]) == 2
    assert capsys.readouterr().err.count("reaches the end of the") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scaled.cfg"]
    # correlate-fit learns the duration from its streams and refuses the window
    # as the normalization would (exit 3), before it counts a pair, on both routes
    rng = np.random.default_rng(4)
    streams = [str(tmp_path / f"ch{channel}.mlts1") for channel in (1, 2)]
    for channel, path in enumerate(streams, start=1):
        write_mlts1(TimestampStream(np.sort(rng.uniform(0.0, 1e-3, 2_000)), channel, 1e-3), path)
    assert main(["correlate-fit", *streams, "--bin-ns", "1000", "--window-us", "1000",
                 "--out", str(tmp_path / "fit.txt")]) == 0

    def no_correlate(*args):
        raise AssertionError("correlate was called")

    monkeypatch.setattr(cli.correlator, "correlate", no_correlate)
    for flags in ([], ["--symmetric"]):
        out = tmp_path / "end.txt"
        assert main(["correlate-fit", *streams, "--bin-ns", "1000", "--window-us", "1000.4",
                     *flags, "--out", str(out)]) == 3
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("undefined normalization: window 0.0010004 s reaches the end of the "
                     "0.001 s run") == 2


def test_shot_noise_is_read_off_the_estimates_baseline(tmp_path):
    # shot_noise_rms is 1 / sqrt(normalization) on both routes; --symmetric sums
    # two histograms over twice the baseline, so its rms is the default's / sqrt(2)
    rng = np.random.default_rng(12)
    streams = []
    for channel in (1, 2):
        streams.append(tmp_path / f"ch{channel}.mlts1")
        times = np.sort(rng.uniform(0.0, 1e-2, 20_000))
        write_mlts1(TimestampStream(times, channel, 1e-2), streams[-1])
    noise = {}
    for name, flags in (("plain", []), ("symmetric", ["--symmetric"])):
        report, g2_csv = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
        assert main(["correlate-fit", *map(str, streams), "--bin-ns", "100", "--window-us", "10",
                     *flags, "--g2-csv", str(g2_csv), "--out", str(report)]) == 0
        entries = dict(l.split(" = ", 1) for l in body_lines(report))
        header = dict(l[2:].split(" = ", 1) for l in header_lines(g2_csv))
        noise[name] = float(entries["shot_noise_rms"])
        assert noise[name] == 1.0 / math.sqrt(float(header["normalization"]))
    a, b = read_stream(streams[0]), read_stream(streams[1])
    assert noise["plain"] == shot_noise_rms(a.count / a.duration, b.count / b.duration, 100 * 1e-9,
                                            a.duration)
    assert noise["symmetric"] == pytest.approx(noise["plain"] / math.sqrt(2.0), rel=1e-12)


def test_overflowing_photon_bound_is_refused(tmp_path, capsys):
    # finite values whose rate r = <N> v0 / (sqrt(pi) mode_waist) overflows, or
    # whose transit time underflows to zero, are refused when the config is loaded
    for waist, message in (("1e-20", "photon bound"), ("1e-30", "transit time")):
        cfg = tmp_path / f"big{waist}.cfg"
        cfg.write_text(SCALED_CFG.replace("v0 = 750", "v0 = 1e300")
                       .replace("mode_waist = 41e-6", f"mode_waist = {waist}")
                       .replace("n_max = 256\n", ""))
        out = tmp_path / "out"
        assert main(["predict-g2", "--config", str(cfg), "--out", str(out / "g2.csv")]) == 2
        assert main(["sweep", "--config", str(cfg), "--n-range", "1:3:1",
                     "--out", str(out / "sweep.csv")]) == 2
        assert main(["pipeline", "--config", str(cfg), "--duration-s", "0.001",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.count(message) == 3
        assert not out.exists()


def test_exit_code_numerical_error(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SCALED_CFG.replace("n_max = 256", "n_max = 8"))
    code = main(["predict-g2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_infinite_duration_is_a_numerical_error(tmp_path, scaled_cfg_file):
    assert main(["simulate", "--config", str(scaled_cfg_file), "--duration-s", "inf",
                 "--out-prefix", str(tmp_path / "run")]) == 3
    assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", "inf",
                 "--out-dir", str(tmp_path / "p")]) == 3
    assert not list(tmp_path.glob("**/*.mlts1"))


def test_pipeline_errors_name_their_stage(tmp_path, scaled_cfg_file, capsys):
    # an OSError with an errno prints from errno, strerror and filename, so the
    # label must reach that text too; each error keeps its exit code
    out_dir = tmp_path / "p"
    (out_dir / "ch1.mlts1").mkdir(parents=True)
    for duration, code, text in (("0.002", 4, "I/O error: pipeline stage 'simulate': [Errno"),
                                 ("inf", 3, "microlaser pipeline: pipeline stage 'simulate': ")):
        assert main(["pipeline", "--config", str(scaled_cfg_file), "--duration-s", duration,
                     "--out-dir", str(out_dir)]) == code
        assert text in capsys.readouterr().err
    assert not (out_dir / "report.txt").exists()


def test_writers_render_each_value_type(tmp_path):
    values = [
        ("none", None), ("flag", True), ("np_flag", np.bool_(False)), ("count", 3),
        ("np_count", np.int64(-7)), ("x", 0.1), ("np_x", np.float64(2.5e-7)), ("name", "a b"),
    ]
    text = (
        "none = None\nflag = True\nnp_flag = False\ncount = 3\nnp_count = -7\n"
        "x = 0.1\nnp_x = 2.5e-07\nname = a b\n"
    )
    header = "".join(f"# {line}\n" for line in text.splitlines())
    report = tmp_path / "report.txt"
    cli._write_report(report, values[:2], values)
    assert report.read_text() == "# none = None\n# flag = True\n" + text
    table = tmp_path / "table.csv"
    cli._write_table(table, values, "a,b", iter(["1,2\n", "3,4\n5,6\n"]))
    assert table.read_text() == header + "a,b\n1,2\n3,4\n5,6\n"


def test_exit_code_corrupt_mlts1_header(tmp_path):
    # a header promising 1e11 events over an empty payload is refused before
    # anything is allocated for it
    bad = tmp_path / "bad.mlts1"
    bad.write_bytes(b"MLTS1 1 1000 100000000000\n")
    assert main(["correlate-fit", str(bad), str(bad), "--window-us", "1",
                 "--out", str(tmp_path / "x")]) == 3
    assert not (tmp_path / "x").exists()


def test_exit_code_csv_header_without_value(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# channel\ntimestamp_ps\n1000\n")
    assert main(["correlate-fit", str(bad), str(bad), "--window-us", "1",
                 "--out", str(tmp_path / "x")]) == 3
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("pool_read_bytes", [0, None], ids=["at-once", "serial"])
@pytest.mark.parametrize(
    "first, second, code, named",
    [("missing", "good", 4, "first"), ("good", "missing", 4, "second"),
     ("good", "truncated", 3, "second"), ("bad_csv", "missing", 3, "first"),
     ("missing", "bad_csv", 4, "first"), ("missing", "truncated", 4, "first"),
     ("bad_csv", "truncated", 3, "first")],
)
def test_correlate_fit_reports_the_first_streams_error_first(
    tmp_path, capsys, monkeypatch, first, second, code, named, pool_read_bytes
):
    # read at once or one after the other, the error is that of a serial read

    if pool_read_bytes is not None:
        monkeypatch.setattr(cli, "_POOL_READ_BYTES", pool_read_bytes)

    good = tmp_path / "good.mlts1"
    write_mlts1(TimestampStream(np.linspace(0.0, 1e-3, 100), 1, 1e-3), good)
    truncated = tmp_path / "truncated.mlts1"
    truncated.write_bytes(good.read_bytes()[:-12])
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("# channel\ntimestamp_ps\n1000\n")
    paths = {"good": good, "missing": tmp_path / "missing.mlts1", "truncated": truncated,
             "bad_csv": bad_csv}
    out = tmp_path / "x"
    assert main(["correlate-fit", str(paths[first]), str(paths[second]), "--window-us", "1",
                 "--out", str(out)]) == code
    message = capsys.readouterr().err
    assert str(paths[first] if named == "first" else paths[second]) in message
    assert not out.exists()


def test_exit_code_io_error(tmp_path, scaled_cfg_file):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["predict-g2", "--config", str(scaled_cfg_file), "--out", str(out)])
    assert code == 4
    # a run that wrote nothing leaves no record
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scaled.cfg"]


def test_failed_pipeline_records_what_it_wrote(tmp_path):
    # no detection in 2 ms: both streams are written, then the normalization
    # refuses zero rates at the correlate-fit stage
    cfg = tmp_path / "dim.cfg"
    cfg.write_text((CONFIGS / "scaled.cfg").read_text().replace(
        "detection_efficiency = 1.0", "detection_efficiency = 1e-9"))
    out_dir = tmp_path / "p"
    argv = ["pipeline", "--config", str(cfg), "--duration-s", "0.002", "--out-dir", str(out_dir)]
    assert main(argv) == 3
    assert sorted(p.name for p in out_dir.iterdir()) == ["ch1.mlts1", "ch2.mlts1", "manifest.txt"]
    record = [tuple(l.split(" = ", 1)) for l in (out_dir / "manifest.txt").read_text().splitlines()]
    args = cli.build_parser().parse_args(argv)
    outputs, _ = cli._outputs(args)
    assert dict(record)["manifest_hash"] == cli.RunManifest.of(args, load_config(cfg),
                                                               outputs).hash()
    assert [v for k, v in record if k == "output"] == [str(p) for p in outputs]
    keys = [k for k, _ in record]
    assert keys[keys.index("wall_clock_s") + 1:] == ["status", "exit_code", "error", "written",
                                                     "written"]
    failure = dict(record[keys.index("status"):keys.index("written")])
    assert failure["status"] == "failed" and failure["exit_code"] == "3"
    assert failure["error"].startswith(
        "microlaser pipeline: pipeline stage 'correlate-fit': undefined normalization: zero rate")
    assert [v for k, v in record if k == "written"] == [str(out_dir / "ch1.mlts1"),
                                                        str(out_dir / "ch2.mlts1")]


def test_an_unwritable_record_is_an_io_error(tmp_path, scaled_cfg_file, capsys):
    # the streams are written, then neither the record nor its failed form can be
    (tmp_path / "sim.manifest.txt").mkdir()
    assert main(["simulate", "--config", str(scaled_cfg_file), "--duration-s", "0.0001",
                 "--out-prefix", str(tmp_path / "sim")]) == 4
    assert capsys.readouterr().err.count("I/O error: [Errno 21] Is a directory") == 2
    assert not list((tmp_path / "sim.manifest.txt").iterdir())


def test_correlate_fit_loads_its_config_before_its_streams(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "read_stream", no_read)
    bad = tmp_path / "bad.cfg"
    bad.write_text(SCALED_CFG.replace("gamma_c_hz = 150e3", "gamma_c_hz = inf"))
    assert main(["correlate-fit", str(tmp_path / "no1"), str(tmp_path / "no2"),
                 "--window-us", "1", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_usage_error_exit_code():
    assert main(["sweep", "--n-range", "1:2:1"]) == 2  # missing --config


NUMPY_ONLY_SCRIPT = """\
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None  # any import of these now raises ImportError
from microlaser import cli
from microlaser.cli import main
from microlaser.core import VelocityDistribution, load_config
from microlaser.trajectory import simulate
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
