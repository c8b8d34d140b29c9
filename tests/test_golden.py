"""The golden corpus replays byte for byte, and `region` and `verify` print the same bytes on any CPU."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import qbound

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

# The names that switch NumPy 2.x's AVX-512 dispatch off, so that np.exp, np.log10 and np.power
# round as libm does; NumPy ignores names it does not know, and then both runs below are alike.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# quartic-root's line is left out: its draw, its coth reference and _gamma_rows' tanh are NumPy's.
DISPATCH_FREE_ARGV = [
    "region --r1 0.35 --r2 0.69 --vx-points 400",
    "region --r1 2 --r2 15 --vx-points 400",
    "region --modes 1 --r 0.69 --phi 0.3",
    "region --modes 1 --r 12 --phi 1.2 --vx-points 400",
    "region --r1 0.35 --r2 0.69 --numeric",
    "verify --quick",
    "verify",
]

# Runs the argv of argv[1]; with argv[2] == "grids", also holds cmd_region's five grids and
# _binned_envelope's edges against NumPy's, bit for bit, on seeded squeezings r <= 20 and 1 to 400 points.
SCRIPT = """
import json, math, sys
from qbound.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv.split()) == 0, argv
if sys.argv[2] == "grids":
    import numpy as np
    from qbound.closed_forms import projected_variances
    from qbound.gaussian import _spaced
    from qbound.regions import ENVELOPE_BINS
    rng = np.random.default_rng(46)
    for r, phi, n in zip(rng.uniform(0.0, 20.0, 300).tolist(), rng.uniform(0.0, math.pi, 300).tolist(),
                         rng.integers(1, 401, 300).tolist()):
        v_a, floor = projected_variances(r, phi)[0] * 1.01, math.exp(-2.0 * r) * 1.01
        grids = ((np.geomspace, v_a, v_a + 20.0, n), (np.geomspace, floor, 10.0 * math.exp(2.0 * r), n),
                 (np.geomspace, 1e-2, 1e2, n), (np.linspace, 0.02, 0.98, n), (np.linspace, 0.0, math.pi / 2.0, n),
                 (np.geomspace, math.exp(-2.0 * r) * 1.001, 10.0 * math.exp(2.0 * r), ENVELOPE_BINS + 1))
        for grid, start, stop, size in grids:
            want = [x.hex() for x in grid(start, stop, size).tolist()]
            got = [x.hex() for x in _spaced(start, stop, size, grid is np.geomspace)]
            assert got == want, (grid.__name__, start, stop, size)
"""


def _run(extra_env: dict, check: str) -> list[str]:
    env = {**os.environ, **extra_env, "PYTHONPATH": str(Path(qbound.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT,
                           json.dumps(DISPATCH_FREE_ARGV), check], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines() if not line.startswith('{"check": "quartic-root"')]


def test_golden_corpus_replays():
    assert golden.mismatches() == []


def test_closed_form_region_bytes_do_not_depend_on_numpy_simd_dispatch():
    assert _run({}, "") == _run(NO_AVX512, "grids")
