"""Tests of the benchmark harness: metric names and units, and its correctness gates."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from microlaser import cli, correlator, quantum
from microlaser.core import VelocityDistribution, load_config
from microlaser.streams import TimestampStream, read_stream
from tracer import PER_LAYER_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_harness():
    import run

    assert declared("end_to_end") == dict(run.END_TO_END_METRICS)
    assert declared("per_layer") == dict(PER_LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_of_every_workload_emits_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    results = [line for line in lines if "record" not in line]
    records = [line["record"] for line in lines if "record" in line]
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    for record, result in zip(records, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, record["problems"]
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert record["seed"] == 5 and record["nproc"] >= 1 and record["blas"]
    if trace:
        traced = {r["workload"]: res["metrics"] for r, res in zip(records, results)}
        assert traced["theory-published"]["quantum.matvecs"]["value"] > 0
        assert traced["pipeline-scaled"]["trajectory.events"]["value"] > 0
        assert traced["correlate-file"]["streams.bytes_read"]["value"] > 0
        assert traced["correlate-file"]["quantum.matvecs"]["value"] == 0


def test_tracer_counts_and_restores(tmp_path):
    cfg = load_config(ROOT / "configs" / "scaled.cfg")
    dist = VelocityDistribution.from_config(cfg)
    original = quantum.steady_state
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            quantum.g2_regression(cfg, dist, tau_grid=np.linspace(0.0, 1e-6, 5))
    finally:
        tracer.uninstall()
    assert quantum.steady_state is original
    assert quantum.MasterEquationGenerator.matvec.__name__ == "matvec"
    layers = tracer.layer_metrics()
    assert layers["quantum.steady_state.calls"] == 1
    assert layers["quantum.basis_states"] == 257
    assert layers["quantum.matvecs"] > 0
    assert layers["quantum.matvec_states"] == 257 * layers["quantum.matvecs"]
    assert layers["core.beta_evals"] == 2 * 256
    names = {span[1]: span for span in tracer.spans}
    root_id = names["bench.op"][0]
    assert names["quantum.g2_regression"][2] == root_id
    assert names["quantum.steady_state"][2] == names["quantum.g2_regression"][0]


def _published_reference():
    return json.loads((workloads.REFERENCE_DIR / "predict-g2-published.json").read_text())


def test_theory_gate_trips_on_perturbed_curve():
    ref = _published_reference()
    gamma_c = load_config(ROOT / "configs" / "published.cfg").gamma_c
    tau, g2 = np.array(ref["tau"]), np.array(ref["g2"])
    n_mean = 549.3768254090993
    header = {"n_mean": n_mean, "mandel_q_moments": (g2[0] - 1.0) * n_mean,
              "tau_c_s": 0.3931 / gamma_c}
    assert workloads.theory_problems(header, tau, g2, ref, gamma_c) == []

    bumped = g2.copy()
    bumped[100] += 1e-8
    assert workloads.theory_problems(header, tau, bumped, ref, gamma_c)
    perturbed_ref = dict(ref, g2=list(bumped))
    assert workloads.theory_problems(header, tau, g2, perturbed_ref, gamma_c)
    assert workloads.theory_problems(dict(header, n_mean=560.0), tau, g2, ref, gamma_c)


def test_identity_gate():
    assert workloads.identity_problem(1.0 - 0.6 / 30.0, 30.0, -0.6) is None
    assert workloads.identity_problem(1.0 - 0.6 / 30.0 + 1e-6, 30.0, -0.6)


def test_pipeline_gate():
    good = {"sign_match_c0": "True", "z_tau_c": "-1.3"}
    assert workloads.pipeline_problems(good) == []
    assert workloads.pipeline_problems(dict(good, sign_match_c0="False"))
    assert workloads.pipeline_problems(dict(good, z_tau_c="6.0"))
    assert workloads.pipeline_problems(dict(good, z_tau_c="None"))


def _correlate_fit(tmp_path, ch1, ch2):
    out = tmp_path / "fit.txt"
    assert cli.main(["correlate-fit", str(ch1), str(ch2), "--bin-ns", "20",
                     "--window-us", "1", "--out", str(out)]) == 0
    return workloads.renewal_fit_problems(
        workloads.read_header(out), workloads.RENEWAL_RATE_HZ, workloads.BIN_PS * 1e-12)


def _shift_stops(path, shift_ps):
    """Delay every stop by shift_ps, dropping those pushed past the duration."""
    header, payload = path.read_bytes().split(b"\n", 1)
    magic, channel, duration_ps, _count = header.split()
    ps = np.frombuffer(payload, dtype="<u8") + np.uint64(shift_ps)
    ps = ps[ps <= int(duration_ps)]
    head = b" ".join([magic, channel, duration_ps, str(ps.size).encode()])
    path.write_bytes(head + b"\n" + ps.astype("<u8").tobytes())


def test_correlate_gates_trip_on_shifted_stop_stream(tmp_path):
    ch1, ch2 = workloads.write_renewal_streams(tmp_path, seed=3, events_per_channel=100_000)
    assert _correlate_fit(tmp_path, ch1, ch2) == []

    a, b = read_stream(ch1), read_stream(ch2)
    subset = a.times[::50]
    bin_s, window_s = workloads.BIN_PS * 1e-12, workloads.WINDOW_PS * 1e-12
    hist = correlator.correlate(TimestampStream(subset, 1, a.duration), b, bin_s, window_s)
    starts_ps, stops_ps = workloads.to_ps(subset), workloads.to_ps(b.times)
    n_bins = workloads.WINDOW_PS // workloads.BIN_PS
    assert workloads.oracle_problems(hist.counts, starts_ps, stops_ps,
                                     workloads.BIN_PS, n_bins) == []
    assert workloads.oracle_problems(hist.counts, starts_ps, stops_ps + 40_000,
                                     workloads.BIN_PS, n_bins)
    wrong = hist.counts.copy()
    wrong[7] += 1
    assert workloads.oracle_problems(wrong, starts_ps, stops_ps, workloads.BIN_PS, n_bins)

    _shift_stops(ch2, 60_000)
    assert _correlate_fit(tmp_path, ch1, ch2)
