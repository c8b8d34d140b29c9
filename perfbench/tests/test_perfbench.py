"""Tests of the benchmark itself: gates, bookkeeping, inputs and tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import hostspeed, run, trace, workloads
from perfbench.stats import Tally, latency_summary, tail_rank
from qbound import cli, closed_forms, regions

ROOT = Path(__file__).resolve().parents[2]
PERTURB = 1.0 + 1e-6


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_rank(10) is None
    assert tail_rank(11) == 0
    assert tail_rank(100) == 89
    summary = latency_summary([float(v) for v in range(100, 0, -1)])
    assert summary["n"] == 100
    assert summary["p50_ms"] == 50.5
    assert (summary["tail_ms"], summary["tail_pct"], summary["tail_beyond"]) == (90.0, 90.0, 10)
    short = latency_summary([1.0] * 10)
    assert short["tail_ms"] is None and short["p50_ms"] == 1.0


def test_failed_ops_stay_out_of_latency_and_work():
    tally = Tally()
    tally.record(0.5, None, 3.0)
    tally.record(9.0, "below_reference", 3.0)
    tally.record(0.25, None, 1.0)
    tally.record(0.1, "build_probe_reject", 1.0)
    assert tally.attempted == 4 and tally.failed == 2 and tally.fail_frac == 0.5
    assert tally.latencies_ms == [500.0, 250.0]
    assert tally.causes == {"below_reference": 1, "build_probe_reject": 1}
    assert tally.work == 4.0
    assert tally.work_per_s == pytest.approx(4.0 / 9.85)


@pytest.mark.parametrize("kind", sorted(hostspeed.OPS))
def test_host_speed_scales_by_the_bracketing_samples(kind):
    speed = hostspeed.HostSpeed(kind)
    speed.values = [2e-3, 4e-3, 3e-3]
    assert speed.scale(0) == pytest.approx(speed.nominal_s / 3e-3)
    assert speed.scale(1) == pytest.approx(speed.nominal_s / 3.5e-3)
    assert speed.scale(0, 0) == pytest.approx(speed.nominal_s / 2e-3)
    assert speed.sample() == 3 and speed.values[3] > 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    w = workloads.WORKLOADS[name]
    assert run.inputs_sha256(w.plan(3, 5)) == run.inputs_sha256(w.plan(3, 5))
    assert run.inputs_sha256(w.plan(3, 5)) != run.inputs_sha256(w.plan(4, 5))
    assert w.plan(3, 5)[:2] == w.plan(3, 2)


def test_blocks_keep_the_request_mix():
    w = workloads.WORKLOADS["point-bounds"]
    for block in w.plan(5, 4):
        assert sorted(inp["kind"] for inp in block) == sorted(workloads.POINT_MIX)
        assert sum(max(inp["r1"], inp["r2"]) > workloads.R_TYPICAL[1] for inp in block) == 1
    for block in workloads.WORKLOADS["region-sweep"].plan(5, 4):
        grids = sorted((i["t_points"], i["phi_points"], i["w_points"]) for i in block)
        assert grids == sorted(workloads.REGION_GRIDS)
    for block in workloads.WORKLOADS["monte-carlo"].plan(5, 4):
        logs = sorted(math.log(i["shots"] / 1e5, 20.0) for i in block)
        assert all(k / 10 - 1e-6 <= v <= (k + 1) / 10 + 1e-6 for k, v in enumerate(logs))


def test_census_fails_and_repeats_exactly():
    census = workloads.census_requests(7)
    assert census == workloads.census_requests(7)
    causes = [workloads._point_check(inp, workloads._point_run(inp, ""), "") for inp in census]
    assert sum(c is not None for c in causes) > len(census) // 2
    assert causes == [workloads._point_check(inp, workloads._point_run(inp, ""), "") for inp in census]


# ---------------------------------------------------------------------------
# Gates fail when their reference moves by 1e-6
# ---------------------------------------------------------------------------


def _at_reference(kind: str) -> dict:
    """A request of ``kind`` whose bound equals its reference."""
    rng = np.random.default_rng(11)
    if kind == "generic":  # the optimum over configurations, reached by the optimal probe
        return dict(workloads.point_request("optimal", rng, workloads.R_TYPICAL), kind="generic")
    return workloads.point_request(kind, rng, workloads.R_TYPICAL)


@pytest.mark.parametrize("kind", sorted(workloads.POINT_GATES))
def test_point_gate_catches_perturbed_reference(kind, monkeypatch):
    inp = _at_reference(kind)
    value = workloads._point_run(inp, "")
    assert workloads._point_check(inp, value, "") is None
    # A 1e-6 shift sits exactly on the tolerance of the 1e-6 gates; they get 2e-6.
    scale = max(PERTURB, 1.0 + 2.0 * workloads.POINT_GATES[kind][1])
    exact = workloads.point_reference
    monkeypatch.setattr(workloads, "point_reference", lambda i: exact(i) * scale)
    assert workloads._point_check(inp, value, "") == "below_reference"


def test_region_gate_catches_perturbed_reference(tmp_path):
    inp = {"r1": 0.35, "r2": 0.69, "t_points": 6, "phi_points": 5, "w_points": 12}
    out = str(tmp_path / "region.csv")
    assert workloads._region_check(inp, workloads._region_run(inp, out), out) is None

    # Support points at the matched optimal mixing ratios lie on the envelope.
    r1, r2 = inp["r1"], inp["r2"]
    w_grid = np.geomspace(1e-2, 1e2, 9)
    amp = math.exp(-r1) * np.sqrt(w_grid)
    t_grid = amp / (amp + math.exp(-r2))
    points = regions.envelope_support_points(r1, r2, t_grid, [0.0], w_grid)
    v_x = np.array([p.v_x for p in points])
    v_y = np.array([p.v_y for p in points])
    reference = workloads.region_reference(v_x, r1, r2)
    assert workloads.region_gate(v_x, v_y, reference) is None
    assert workloads.region_gate(v_x, v_y, reference * PERTURB) == "below_reference"


def test_mc_gate_catches_perturbed_reference():
    inp = {"kind": "example1", "r": 0.7, "t": 0.4, "phi2": 0.0, "theta_x": 0.3,
           "theta_y": -0.2, "shots": 100_000, "seed": 5}
    report = workloads._mc_run(inp, "")
    ref = workloads.mc_reference(inp)
    theta = (inp["theta_x"], inp["theta_y"])
    assert workloads.mc_gate(report, ref, theta) is None
    # 1e-6 is far inside the 5-SE band at any feasible shot count, so the
    # variance reference is moved by 10 SE and the mean by 10 SE instead.
    moved = (ref[0] + 10.0 * report.se_var_x, ref[1])
    assert workloads.mc_gate(report, moved, theta) == "variance_off"
    assert workloads.mc_gate(report, ref, (theta[0] + 10.0 * report.se_mean_x, theta[1])) == "mean_off"


def test_verify_op_fails_under_perturbed_envelope(tmp_path):
    inp = {"check": "envelope-gap", "seed": 1}
    out = str(tmp_path / "verify.txt")
    assert workloads._verify_check(inp, workloads._verify_run(inp, out), out) is None
    rc = cli.main(workloads.verify_argv(inp, out) + ["--perturb-envelope", "0.01"])
    assert rc == 1
    assert workloads._verify_check(inp, rc, out) == "exit_1"


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _span(i, parent, layer, start, end):
    return trace.Span(i, parent, 0, f"{layer}.f", layer, start, end)


def test_self_times_sum_to_op_time_with_parallel_children():
    spans = [
        _span(0, None, "bench", 0.0, 10.0),
        _span(1, 0, "cli", 1.0, 9.0),
        _span(2, 1, "regions", 2.0, 8.0),
        _span(3, 2, "holevo", 3.0, 7.0),   # two pool threads, overlapping
        _span(4, 2, "holevo", 4.0, 6.0),
        _span(5, 1, "closed_forms", 8.5, 8.75),
    ]
    layers = trace.attribute(spans)[0]
    assert sum(layers.values()) == pytest.approx(10.0, rel=1e-12)
    assert layers["holevo"] == pytest.approx(4.0)        # union of [3, 7] and [4, 6]
    assert layers["regions"] == pytest.approx(2.0)
    assert layers["closed_forms"] == pytest.approx(0.25)
    assert layers["cli"] == pytest.approx(1.75)
    assert layers["bench"] == pytest.approx(2.0)


def test_traced_sweep_attributes_pool_spans_to_the_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("QBOUND_THREADS", "2")
    inp = {"r1": 0.4, "r2": 0.9, "t_points": 8, "phi_points": 7, "w_points": 15}
    tracer = trace.Tracer()
    runner = run.Runner(workloads.WORKLOADS["region-sweep"], str(tmp_path / "out.csv"))
    with trace.installed(tracer):
        _, cause, size = runner.run(inp, tracer, 0)
    assert cause is None and size > 0
    assert cli.main.__module__ == "qbound.cli" and not hasattr(cli.main, "__wrapped__")
    by_id = {s.id: s for s in tracer.spans}
    batch = [s for s in tracer.spans if s.name == "holevo.batch_bound"]
    assert len(batch) == 2
    assert all(s.thread != threading.get_ident() for s in batch)
    assert {by_id[s.parent].name for s in batch} == {"regions.envelope"}
    assert sum(s.extra["rows"] for s in batch) == 5 * 8 * 7 * 15
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 1
    layers = trace.attribute(tracer.spans)[0]
    assert sum(layers.values()) == pytest.approx(roots[0].duration, rel=1e-9)


def test_gates_outside_ops_are_not_traced():
    tracer = trace.Tracer()
    with trace.installed(tracer):
        closed_forms.two_mode_envelope(0.5, 0.3, 0.6)
    assert tracer.spans == []


# ---------------------------------------------------------------------------
# The command against BENCHMARK.json
# ---------------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace_flag,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_matches_benchmark_json(trace_flag, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "monte-carlo", "--seed", "2", "--seconds", "1",
                "--trace", trace_flag)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "monte-carlo", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
