"""The README's library quick start and CLI examples run against the current code, on a pinned public surface."""

import importlib
import re
import shlex
import types
from pathlib import Path

import pytest

import qbound
from qbound.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("qbound ")]
    assert commands, "README's CLI block has no qbound line"
    monkeypatch.chdir(tmp_path)  # one example writes region.csv
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_public_names_are_pinned():
    # The public, non-module names of the package: adding or removing one is an API change.
    # The package resolves them on first use, so they are read through dir() and a star
    # import, not vars(); each is the object its defining module holds.
    names = {name for name in dir(qbound)
             if not name.startswith("_") and not isinstance(getattr(qbound, name), types.ModuleType)}
    star = {}
    exec("from qbound import *", star)
    assert names == set(star) - {"__builtins__"} == {
        "BoundResult", "ChannelParams", "DualCoefficients", "EnvelopePoint", "Example2Params",
        "GaussianState", "MeasurementScheme", "OptimalConfig", "ProbeConfig", "RegionSample",
        "SimulationReport", "SolverConvergenceError", "Weights", "batch_bound", "build_probe", "build_scheme",
        "closed_form_boundary", "envelope", "example1_variances", "example2_parametric", "extract_measurement",
        "gamma_quartic_root", "optimal_config", "projected_variances", "run_scheme", "scheme_from_duals",
        "single_mode_boundary", "single_mode_line", "single_mode_tradeoff", "solve", "squeezing_db_to_r",
        "two_mode_envelope",
    }
    for name in names:
        value = getattr(qbound, name)
        assert getattr(importlib.import_module(value.__module__), name) is value is star[name]
    assert qbound.solve is qbound.holevo.solve
    with pytest.raises(AttributeError, match="no_such_name"):
        qbound.no_such_name
