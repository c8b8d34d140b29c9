import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qbound
from qbound import closed_forms, holevo
from qbound.cli import build_parser, main

import oracle


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected an argument
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_single_mode_3db(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--modes", "1", "--db", "3", "--phi", "0.5236", "--wx", "1", "--wy", "1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["f_hcr"] == pytest.approx(4.5, abs=5e-3)
    assert record["closed_form_crosscheck"]["abs_diff"] < 1e-9


def test_bound_auto_config(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--modes", "2", "--r1", "0.693", "--r2", "0.693",
        "--wx", "1", "--wy", "1", "--auto-config",
    )
    assert code == 0
    record = json.loads(out)
    assert record["f_hcr"] == pytest.approx(4.0 * math.exp(-2 * 0.693), rel=1e-6)
    assert record["f_hcr"] == pytest.approx(1.0, abs=5e-3)


def test_bound_degenerate_weight_special_case(capsys):
    r = 0.5 * math.log(4.0)
    code, out, _ = run_cli(
        capsys, "bound", "--modes", "2", "--r1", str(r), "--r2", str(r),
        "--wx", "1", "--wy", "0", "--t", "0.5",
    )
    assert code == 0
    record = json.loads(out)
    assert record["f_hcr"] == pytest.approx(8.0 / 17.0, rel=1e-9)


def test_bound_weights_whose_sum_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(capsys, "bound", "--r1", "2", "--r2", "2", "--wx", "1e308", "--wy", "1e308")
    assert code == 0
    record = json.loads(out)
    check = record["closed_form_crosscheck"]
    assert check["name"] == "balanced-point"
    assert math.isfinite(record["f_hcr"]) and check["abs_diff"] <= 1e-15 * record["f_hcr"]


def test_bound_too_large_for_a_float_exits_2_without_a_warning(capsys):
    # The single-mode bound at weights (w, w) is about 2.3 w; at w = 1e308 it is not a float.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "bound", "--modes", "1", "--r", "1", "--wx", "1e308", "--wy", "1e308")
        assert code == 2 and out == ""
        assert err == "error: the bound at weights (1e+308, 1e+308) overflows a float\n"
        code, out, _ = run_cli(capsys, "bound", "--modes", "1", "--r", "1", "--wx", "1e307", "--wy", "1e307")
    assert code == 0
    assert math.isfinite(json.loads(out)["f_hcr"])


def test_bound_certifies_a_near_product_probe(capsys):
    # min(t, 1 - t) = 1e-20: the scalar-dual certificate holds where the
    # covariance's duality gap lost its precision, and the value is exact.
    code, out, _ = run_cli(
        capsys, "bound", "--modes", "2", "--r1", "0.5", "--r2", "1.5", "--phi1", "0",
        "--phi2", "0.3", "--t", "1e-20", "--wx", "1", "--wy", "1",
    )
    assert code == 0
    want = oracle.bound(qbound.ProbeConfig(r1=0.5, r2=1.5, phi1=0.0, phi2=0.3, t=1e-20), qbound.Weights(1.0, 1.0))
    assert json.loads(out)["f_hcr"] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_bound_at_large_squeezing_is_certified(capsys):
    code, out, _ = run_cli(capsys, "bound", "--r1", "10", "--r2", "10", "--wx", "1", "--wy", "1")
    assert code == 0
    assert json.loads(out)["f_hcr"] == pytest.approx(4.0 * math.exp(-20.0), rel=1e-13, abs=0.0)


def test_bound_says_on_stderr_when_its_duals_are_not_certified(capsys):
    # At r = 10 the value is certified but the printed duals' own gap is not:
    # one stderr line says so, without the word numpy (CI greps stderr for
    # it), and stdout is the record alone.  Certified duals and a CSV row,
    # which prints no duals, write nothing there.
    argv = ("bound", "--r1", "10", "--r2", "10", "--wx", "1", "--wy", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and "duals" in json.loads(out)
    assert err == "duals not certified: their duality gap is not within 1e-09 (the bound is)\n"
    assert "numpy" not in err
    assert run_cli(capsys, *argv, "--format", "csv")[2] == ""
    code, out, err = run_cli(capsys, "bound", "--r1", "0.35", "--r2", "0.69", "--wx", "1", "--wy", "1")
    assert code == 0 and err == ""


def test_bound_exits_3_when_the_value_fails_its_certificate(capsys, monkeypatch):
    # A kernel whose multiplier is off the maximizer reports phi below its
    # maximum; the certificate rejects it and the value is not printed.
    # bound calls solve, whose float row takes mu* from _row_multiplier.
    multiplier = holevo._row_multiplier
    monkeypatch.setattr(holevo, "_row_multiplier", lambda d1, a, c: 0.5 * multiplier(d1, a, c))
    code, out, err = run_cli(capsys, "bound", "--r1", "0.5", "--r2", "1.5", "--phi2", "0.3",
                             "--wx", "1", "--wy", "1")
    assert code == 3
    assert out == "" and "did not converge" in err


@pytest.mark.parametrize("w_x, w_y", [("1e-40", "1"), ("5e-324", "1"), ("1", "5e-324")])
def test_bound_auto_config_keeps_a_tiny_transmissivity(capsys, w_x, w_y):
    # The weight ratio is at most 1e-40: 1 - t* rounds to 0, but the
    # transmissivity, computed without that subtraction, stays positive, and
    # the bound is the optimal configuration's weighted sum, also at a
    # subnormal weight.
    code, out, _ = run_cli(
        capsys, "bound", "--r1", "0.3", "--r2", "1.2", "--wx", w_x, "--wy", w_y, "--auto-config",
    )
    assert code == 0
    record = json.loads(out)
    assert 0.0 < record["probe"]["t"] < 1e-19
    assert record["f_hcr"] == pytest.approx(0.0907179532894125, rel=1e-13, abs=0.0)
    assert record["closed_form_crosscheck"]["abs_diff"] <= 1e-15


@pytest.mark.parametrize("r1, r2", [(0.2, 18.0), (0.5, 20.0)])
def test_numeric_region_stays_above_the_envelope_at_large_squeezing(capsys, r1, r2):
    code, out, _ = run_cli(capsys, "region", "--r1", str(r1), "--r2", str(r2), "--numeric", "--format", "json")
    assert code == 0
    rows = [row for row in json.loads(out) if row["source"] == "numeric-solver"]
    assert rows
    for row in rows:
        assert row["v_y"] >= closed_forms.two_mode_envelope(row["v_x"], r1, r2).v_y * (1.0 - 1e-9)


@pytest.mark.parametrize("r1, r2", [(0.35, 0.69), (0.0, 0.0), (1.0, 2.0), (19.0, 20.0), (0.0, 3.0)])
def test_region_names_its_uncertified_rows_on_stderr(capsys, monkeypatch, r1, r2):
    # The default numeric grids are certified and write nothing to stderr.
    # With a certificate that fails every row, stdout and the exit code are
    # unchanged, and one stderr line counts the rows.
    argv = ("region", "--r1", str(r1), "--r2", str(r2), "--numeric")
    code, want, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    certified = holevo._scalar_certified
    monkeypatch.setattr(holevo, "_scalar_certified", lambda *args: certified(*args) & False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == want
    n = sum(row["source"] == "numeric-solver" for row in csv.DictReader(io.StringIO(out)))
    assert n > 0
    assert err == f"{n} numeric rows not certified: their bound is not within 1e-09\n"
    assert "numpy" not in err


def test_bound_rejects_r_and_db_together(capsys):
    code, _, err = run_cli(capsys, "bound", "--modes", "1", "--r", "0.3", "--db", "3")
    assert code == 2
    assert "cannot both" in err


def test_region_closed_form_csv(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--r1", "0.35", "--r2", "0.69", "--closed-form", "--vx-points", "24"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["v_x", "v_y", "segment", "source", "t", "phi1", "w_ratio"]
    xs = [float(r["v_x"]) for r in rows]
    assert xs == sorted(xs)
    assert {r["segment"] for r in rows} == {"low", "middle", "high"}
    assert all(r["source"] == "closed-form" for r in rows)


def test_region_csv_round_trips_through_json(capsys, tmp_path):
    csv_path = tmp_path / "region.csv"
    code, _, _ = run_cli(
        capsys, "region", "--r1", "0.2", "--r2", "0.5", "--closed-form",
        "--vx-points", "10", "--out", str(csv_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "region", "--r1", "0.2", "--r2", "0.5", "--closed-form",
        "--vx-points", "10", "--format", "json",
    )
    assert code == 0
    json_rows = json.loads(out)
    with csv_path.open() as handle:
        csv_rows = list(csv.DictReader(handle))
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert float(crow["v_x"]) == jrow["v_x"]
        assert float(crow["v_y"]) == jrow["v_y"]


def test_region_vacuum_hyperbola(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--r1", "0", "--r2", "0", "--closed-form", "--vx-points", "12"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        v_x, v_y = float(row["v_x"]), float(row["v_y"])
        assert 1.0 / v_x + 1.0 / v_y == pytest.approx(1.0, rel=1e-10)


def test_region_single_mode(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--modes", "1", "--db", "3", "--phi", "0", "--vx-points", "9"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    r = 0.5 * math.log(10.0 ** 0.3)
    for row in rows:
        v_x, v_y = float(row["v_x"]), float(row["v_y"])
        product = (v_x - math.exp(-2 * r)) * (v_y - math.exp(2 * r))
        assert product == pytest.approx(1.0, rel=1e-9)


def test_simulate_example1(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scheme", "example1", "--r2", "0.693", "--phi2", "0",
        "--t", "0.3333", "--shots", "150000", "--seed", "1",
    )
    assert code == 0
    record = json.loads(out)
    assert record["var_x"] == pytest.approx(0.75, abs=0.02)
    assert record["var_y"] == pytest.approx(1.5, abs=0.04)
    assert record["within_5_se"]


def test_simulate_at_large_squeezing(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scheme", "balanced", "--r", "10", "--shots", "200000", "--seed", "1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["predicted_v_x"] == pytest.approx(2.0 * math.exp(-20.0), rel=1e-13)
    assert record["within_5_se"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (("bound", "--r1", "0.3", "--r2", "0.5", "--phi1", "nan"), "phi1"),
        (("bound", "--modes", "1", "--r", "0.3", "--phi", "inf"), "--phi"),
        (("simulate", "--scheme", "balanced", "--r", "0.3", "--theta", "nan,0"), "theta_x"),
        (("simulate", "--scheme", "example1", "--r2", "0.3", "--phi2", "nan"), "phi2"),
        (("bound", "--modes", "1", "--r", "0.3", "--phi", "nan"), "--phi"),
        (("region", "--modes", "1", "--r", "0.3", "--phi", "nan"), "--phi"),
        (("region", "--modes", "1", "--r", "0.3", "--phi", "inf"), "--phi"),
    ],
)
def test_non_finite_inputs_exit_2_naming_the_field(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and f"{field} must be finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bound", "--r1", "0.3", "--r2", "0.5", "--t", "1.5"), "transmissivity must lie in [0, 1]"),
        (("bound", "--r1", "0.7", "--r2", "0.3"), "canonical ordering"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--wx", "-1"), "weights must be >= 0"),
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--wx", "0", "--wy", "1"), "t_star = 1.0"),
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--t", "1"), "t_star = 1.0"),
        (("simulate", "--scheme", "example1", "--r2", "0.5", "--t", "0"), "transmissivity t = 0.0"),
        (("bound", "--modes", "1", "--db", "4000", "--wx", "1", "--wy", "1"),
         "squeezing of 4000.0 dB is out of range"),
        (("region", "--modes", "1", "--db", "-4000"), "squeezing of -4000.0 dB is out of range"),
        # --wx is refused before its value is checked
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--wx", "-1", "--t", "0.3"),
         "--wx cannot be given with --t, which fixes t*"),
        (("simulate", "--scheme", "example1", "--r2", "0.5", "--wx", "-3"),
         "--wx is a balanced flag: --scheme example1 would ignore it"),
        (("bound", "--modes", "1", "--db", "200"), "squeezing of 200.0 dB is out of range"),
        (("region", "--db1", "200", "--r2", "1"), "squeezing of 200.0 dB is out of range"),
        (("simulate", "--scheme", "balanced", "--db", "200"), "squeezing of 200.0 dB is out of range"),
        (("bound", "--modes", "1", "--db", "-3"), "squeezing of -3.0 dB is out of range"),
        # a dict stands for a --config file holding it
        (("bound", "--r1", "0.3", "--r2", "0.5", "--config", {"out": None}),
         "config key 'out' (--out) must be a number, string or boolean, not null"),
        (("verify", "--quick", "--config", {"only": None}), "config key 'only' (--only) must be a number"),
        (("region", "--r1", "0.3", "--r2", "0.5", "--config", {"t-points": [3, 4]}),
         "config key 't-points' (--t-points) must be a number, string or boolean, not [3, 4]"),
        (("simulate", "--scheme", "balanced", "--config", {"r": {"value": 0.5}}), "config key 'r' (--r) must be"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--config", {"config": "other.json"}),
         "config key 'config' is not allowed"),
        # the namespace's own attributes are not options
        (("bound", "--r1", "0.3", "--r2", "0.5", "--config", {"func": "x"}), "unknown config key 'func'"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--config", {"command": "region"}),
         "unknown config key 'command'"),
        (("bound", "--r1", "0.3", "--r2", "1.2", "--wx", "0", "--wy", "1", "--auto-config"),
         "degenerate weights have no two-mode auto configuration"),
        # sqrt(w_x / w_y) underflows to 0: the zero-weight limit
        (("bound", "--r1", "0.3", "--r2", "1.2", "--wx", "1e-200", "--wy", "1e200", "--auto-config"),
         "degenerate weights have no two-mode auto configuration"),
        # a decibel error names its flag
        (("bound", "--r1", "0.5", "--db2", "300"), "--db2: squeezing of 300.0 dB is out of range"),
        (("region", "--db1", "-5", "--r2", "1"), "--db1: squeezing of -5.0 dB is out of range"),
        (("bound", "--modes", "1", "--db", "200"), "--db: squeezing of 200.0 dB is out of range"),
        (("simulate", "--scheme", "example1", "--db2", "nan"), "--db2: squeezing of nan dB is out of range"),
        # a flag that the mode count would ignore, or one that --auto-config chooses
        (("bound", "--r1", "0.3", "--r2", "0.5", "--phi", "nan", "--r", "99"),
         "--r is a one-mode flag: two modes would ignore it"),
        (("bound", "--modes", "1", "--r", "0.3", "--r1", "nan", "--t", "7"),
         "--r1 is a two-mode flag: --modes 1 would ignore it"),
        (("region", "--modes", "1", "--r", "0.3", "--r1", "nan"), "--r1 is a two-mode flag: --modes 1 would ignore it"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--auto-config", "--t", "0.9", "--phi1", "nan"),
         "--phi1 cannot be given with --auto-config, which chooses it"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--auto-config", "--t", "0.5"),
         "--t cannot be given with --auto-config, which chooses it"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--auto-config", "--phi2", "1"),
         "--phi2 cannot be given with --auto-config, which chooses it"),
        (("bound", "--modes", "1", "--r", "0.3", "--auto-config"),
         "--auto-config is a two-mode flag: --modes 1 would ignore it"),
        (("bound", "--modes", "1", "--r", "0.3", "--phi1", "0"),
         "--phi1 is a two-mode flag: --modes 1 would ignore it"),
        (("region", "--r1", "0.3", "--r2", "0.5", "--phi", "0"), "--phi is a one-mode flag: two modes would ignore it"),
        (("region", "--r1", "0.3", "--r2", "0.5", "--db", "3"), "--db is a one-mode flag: two modes would ignore it"),
        (("region", "--modes", "1", "--r", "0.3", "--db2", "3"), "--db2 is a two-mode flag: --modes 1 would ignore it"),
        # a --config key counts as given
        (("bound", "--r1", "0.3", "--r2", "0.5", "--config", {"phi": 0.0}),
         "--phi is a one-mode flag: two modes would ignore it"),
        (("bound", "--r", "0.3", "--config", {"modes": 1, "t": 0.5}),
         "--t is a two-mode flag: --modes 1 would ignore it"),
        (("bound", "--r1", "0.3", "--r2", "0.5", "--config", {"auto-config": True, "phi1": 0.0}),
         "--phi1 cannot be given with --auto-config, which chooses it"),
        # a Monte-Carlo flag of verify is checked when --only selects no Monte-Carlo check
        (("verify", "--quick", "--only", "sql", "--shots", "5"), "shots must be at least 100, got 5"),
        (("verify", "--quick", "--only", "quartic", "--seed", "-1"), "seed must be at least 0, got -1"),
        # a flag that the simulated scheme would ignore, or one that --t fixes; a --config key counts
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--r2", "3"),
         "--r2 is an example1 flag: --scheme balanced would ignore it"),
        (("simulate", "--scheme", "example1", "--r2", "0.5", "--r", "3"),
         "--r is a balanced flag: --scheme example1 would ignore it"),
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--phi2", "1"),
         "--phi2 is an example1 flag: --scheme balanced would ignore it"),
        (("simulate", "--scheme", "example1", "--r2", "0.5", "--wx", "5"),
         "--wx is a balanced flag: --scheme example1 would ignore it"),
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--t", "0.3", "--wx", "5"),
         "--wx cannot be given with --t, which fixes t*"),
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--config", {"db2": 3}),
         "--db2 is an example1 flag: --scheme balanced would ignore it"),
        (("simulate", "--scheme", "example1", "--r2", "0.5", "--config", {"db": 3, "wy": 2}),
         "--db is a balanced flag: --scheme example1 would ignore it"),
        (("simulate", "--scheme", "balanced", "--r", "0.5", "--t", "0.3", "--config", {"wy": 2}),
         "--wy cannot be given with --t, which fixes t*"),
    ],
)
def test_library_errors_exit_2_with_the_library_message(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    for i, item in enumerate(argv):
        if isinstance(item, dict):
            argv[i] = "config.json"
            Path(argv[i]).write_text(json.dumps(item))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and message in err
    assert {p.name for p in tmp_path.iterdir()} <= {"config.json"}  # no output file, not even "None"


@pytest.mark.parametrize("argv, defaults", [
    (("bound", "--r1", "0.3", "--r2", "0.5", "--wx", "2"),
     ("--phi1", "0", "--phi2", repr(math.pi / 2.0), "--t", "0.5")),
    (("bound", "--modes", "1", "--r", "0.3", "--wy", "3"), ("--phi", "0")),
    (("region", "--modes", "1", "--r", "0.3", "--vx-points", "5"), ("--phi", "0")),
    (("simulate", "--scheme", "example1", "--r2", "0.5", "--shots", "1000"), ("--phi2", "0")),
    (("simulate", "--scheme", "balanced", "--r", "0.5", "--shots", "1000"), ("--wx", "1", "--wy", "1")),
])
def test_unset_angles_and_transmissivity_take_their_defaults(capsys, argv, defaults):
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, *defaults)


@pytest.mark.parametrize("argv, flag, value", [
    (("region", "--r1", "nan", "--r2", "0.7"), "--r1", "nan"),
    (("region", "--r1", "25", "--r2", "0.7"), "--r1", "25.0"),
    (("region", "--modes", "1", "--r", "-1"), "--r", "-1.0"),
    (("simulate", "--scheme", "balanced", "--r", "25"), "--r", "25.0"),
    (("simulate", "--scheme", "example1", "--r2", "inf"), "--r2", "inf"),
    (("bound", "--modes", "1", "--r", "30"), "--r", "30.0"),
    (("bound", "--r1", "0.3", "--r2", "21"), "--r2", "21.0"),
], ids=["region-nan", "region-too-large", "region-one-mode", "simulate-balanced", "simulate-example1",
        "bound-one-mode", "bound-two-mode"])
def test_invalid_squeezing_is_named_by_its_flag(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite and within [0, 20.0], got {value}\n"


def test_simulate_shot_floor(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--scheme", "balanced", "--r", "0.693", "--shots", "10"
    )
    assert code == 2
    assert "shots" in err


def test_simulate_shot_ceiling(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "balanced", "--r", "0.693", "--shots", "100000000000000000000"
    )
    assert code == 2
    assert out == "" and "shots must be at most 2**53" in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("--seed", "-1"), {}, "seed must be at least 0"),
        ((), {"shots": 1e5}, "argument --shots: invalid int value"),
        ((), {"seed": 0.5}, "argument --seed: invalid int value"),
    ],
)
def test_simulate_rejects_bad_shots_and_seed_naming_the_field(capsys, tmp_path, argv, config, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", "balanced", "--r", "0.693", "--config", str(path), *argv
    )
    assert code == 2
    assert out == "" and message in err


def test_simulate_statistical_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scheme", "balanced", "--r", "0.693", "--shots", "100000",
        "--seed", "5", "--target-vx", "0.4",
    )
    assert code == 4
    record = json.loads(out)
    assert not record["within_5_se"]


@pytest.mark.parametrize("name", [
    "single-mode-closed-form", "equal-squeezing-optimum", "weight-special-cases", "quartic-root", "envelope-gap",
    "reference-point-values", "monte-carlo-achievability", "no-bound-violation", "sql-threshold",
    "structural-properties",
])
def test_verify_only_runs_one_named_check(capsys, name):
    # perfbench's verify-suite sends each of these ten names and reads one record, then the tally.
    code, out, _ = run_cli(capsys, "verify", "--only", name, "--quick")
    assert code == 0
    record, tally = out.splitlines()
    assert json.loads(record)["check"] == name
    assert json.loads(record)["passed"]
    assert tally == "1/1 checks passed"


def test_verify_perturbation_hook_fails_named_check(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--only", "envelope", "--quick", "--perturb-envelope", "0.01"
    )
    assert code == 1
    line = json.loads(out.splitlines()[0])
    assert line["check"] == "envelope-gap"
    assert not line["passed"]
    assert "envelope-gap" in err


def test_verify_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "no-such-check")
    assert code == 2
    assert "no checks match" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"modes": 1, "db": 3, "phi": 0.5236, "wx": 1.0, "wy": 1.0}))
    code, out, _ = run_cli(capsys, "bound", "--config", str(config))
    assert code == 0
    assert json.loads(out)["f_hcr"] == pytest.approx(4.5, abs=5e-3)

    # explicit flag wins over the file value
    code, out, _ = run_cli(capsys, "bound", "--config", str(config), "--wy", "0")
    assert code == 0
    record = json.loads(out)
    assert record["weights"]["w_y"] == 0.0


@pytest.mark.parametrize(
    "command, config, option",
    [
        ("bound", {"wx": [1]}, "--wx"),
        ("verify", {"only": 3}, "--only"),
        ("bound", {"modes": 3}, "--modes"),
        ("region", {"numeric": 1}, "--numeric"),
        ("region", {"t_points": 0}, "--t-points"),
    ],
)
def test_config_values_are_parsed_like_flags(capsys, tmp_path, command, config, option):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2
    assert out == "" and option in err


def test_config_flag_takes_effect_and_negatives_parse(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"numeric": True, "t-points": 2, "phi_points": 2, "w_points": 3,
                                "r1": 0.3, "r2": 0.6, "closed_form": False}))
    code, out, _ = run_cli(capsys, "region", "--config", str(path))
    assert code == 0
    sources = {row["source"] for row in csv.DictReader(io.StringIO(out))}
    assert sources == {"numeric-solver"}
    path.write_text(json.dumps({"modes": 1, "r": 0.4, "phi": -0.3}))
    code, out, _ = run_cli(capsys, "bound", "--config", str(path))
    assert code == 0
    assert json.loads(out)["probe"]["phi1"] == -0.3


@pytest.mark.parametrize("option", ["--vx-points", "--t-points", "--phi-points", "--w-points"])
def test_region_rejects_empty_grids_naming_the_flag(capsys, option):
    code, out, err = run_cli(capsys, "region", "--r1", "0.3", "--r2", "0.6", "--numeric", option, "0")
    assert code == 2
    assert out == "" and f"{option} must be at least 1" in err


def test_atomic_out_file(capsys, tmp_path):
    path = tmp_path / "bound.json"
    code, out, _ = run_cli(
        capsys, "bound", "--modes", "1", "--r", "0.4", "--wx", "1", "--wy", "1",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    record = json.loads(path.read_text())
    assert record["converged"]
    assert not list(tmp_path.glob(".qbound-*"))


def test_atomic_out_file_skips_a_taken_temp_name(capsys, tmp_path):
    taken = tmp_path / f".qbound-{os.getpid()}-0"
    taken.write_text("another writer's")
    path = tmp_path / "bound.json"
    code, out, _ = run_cli(capsys, "bound", "--modes", "1", "--r", "0.4", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["converged"]
    assert taken.read_text() == "another writer's"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([taken.name, path.name])


def test_atomic_out_file_leaves_no_temp_file_when_the_rename_fails(capsys, tmp_path):
    target = tmp_path / "a-directory"
    target.mkdir()
    code, out, err = run_cli(capsys, "bound", "--modes", "1", "--r", "0.4", "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert target.is_dir() and not any(target.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, tmp_path):
    assert build_parser() is build_parser()
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"modes": 1, "r": 0.4, "phi": -0.3, "wy": 3}))
    calls = [["bound", "--config", str(path)], ["bound", "--modes", "1", "--r", "0.4"]]
    in_process = []
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        in_process.append((code, out, err))
    src = str(Path(qbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fresh = []
    for argv in calls:
        run = subprocess.run([sys.executable, "-m", "qbound.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        fresh.append((run.returncode, run.stdout, run.stderr))
    assert in_process == fresh
    assert json.loads(in_process[0][1])["weights"]["w_y"] == 3.0
    assert json.loads(in_process[1][1])["weights"]["w_y"] == 1.0
