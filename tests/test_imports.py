"""Fresh interpreters: `import qbound` and `bound` load no NumPy, and each command imports what it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbound

ENV = {**os.environ, "PYTHONPATH": str(Path(qbound.__file__).resolve().parent.parent)}


def _run(*args):
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=ENV)


def _imported(stderr: str) -> set:
    # The module names of -X importtime's lines: "import time: self | cumulative | name".
    return {line.rpartition("|")[2].strip() for line in stderr.splitlines() if line.startswith("import time:")}


def test_import_qbound_loads_no_numpy_and_no_submodule():
    code = ("import sys, qbound; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith(('numpy.', 'qbound.'))))")
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # A submodule read as an attribute is imported then, as a public name is.
    proc = _run("-c", "import qbound; print(qbound.regions.__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "qbound.regions"


@pytest.mark.parametrize("argv", [
    "bound --modes 1 --r 20 --phi 0.3 --wx 1 --wy 3",
    "bound --r1 0.5 --r2 1.5 --phi2 0.3 --wx 5e-324 --wy 1",
    "bound --r1 0.35 --r2 0.69 --auto-config --wx 1 --wy 2",
    "bound --r1 0.35 --r2 0.69 --t 1e-30 --format csv",
])
def test_bound_loads_no_numpy(argv):
    proc = _run("-X", "importtime", "-m", "qbound.cli", *argv.split())
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert "qbound.holevo" in imported
    assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}


@pytest.mark.parametrize("argv, needs, skips", [
    ("region --r1 0.35 --r2 0.69 --vx-points 5", {"numpy", "qbound.regions"}, {"qbound.simulate", "qbound.verify"}),
    ("simulate --scheme balanced --r 0.693 --shots 1000 --seed 1", {"numpy", "qbound.simulate"},
     {"qbound.regions", "qbound.verify"}),
    ("verify --quick", {"numpy", "qbound.regions", "qbound.simulate", "qbound.verify"}, set()),
])
def test_numpy_commands_import_their_modules_when_they_run(argv, needs, skips):
    # Submodules imported through a package attribute do not show in -X
    # importtime, so the command runs through main() and prints sys.modules.
    code = (f"import sys; from qbound.cli import main; code = main({argv.split()!r}); "
            "print(' '.join(sys.modules)); sys.exit(code)")
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.splitlines()[-1].split())
    assert needs <= imported and not skips & imported
