"""The golden corpus: the CI and README argv of qbound's commands with their exact output, in tests/golden.json.

Each entry is one argv run through ``qbound.cli.main`` in process, with
RuntimeWarning raised as an error: its exit code, and its stdout and stderr
as lists of lines (line ends kept, so the bytes are exact).  A ``verify``
entry keeps only the exit code and each check's name and pass flag, as its
detail values may round differently between hosts.  The argv come from
.github/workflows/tests.yml, README.md's CLI block (with ``--out`` dropped)
and tools/bench.py.

    python tools/golden.py            # replay: name each differing entry and its first differing field;
                                      # exit 1 if any differs
    python tools/golden.py --update   # rewrite tests/golden.json from this tree's src

A change that moves an entry names it in CHANGES.md.  CI replays the corpus
twice, the second time with NumPy's AVX-512 dispatch switched off
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden.json"

ARGV = (
    # bound: CI's import-time step, its --out step, tools/bench.py and README
    "bound --r1 10 --r2 10 --wx 1 --wy 1",
    "bound --modes 1 --r 20 --phi 0.3 --wx 1 --wy 3",
    "bound --r1 0.5 --r2 1.5 --phi2 0.3 --wx 0 --wy 1",
    "bound --r1 0.5 --r2 1.5 --phi2 0.3 --wx 5e-324 --wy 1",
    "bound --r1 0.5 --r2 1.5 --phi2 0.3 --wx 1e308 --wy 1",
    "bound --r1 0 --r2 20 --t 1 --phi2 0.3",
    "bound --r1 20 --r2 20 --t 0 --phi1 3.141592653589793",
    "bound --r1 19.5 --r2 20 --t 1e-30 --phi2 1.5707963267948966",
    "bound --r1 0.5 --r2 20 --t 0.5 --phi2 0.7",
    "bound --modes 2 --r1 0.693 --r2 0.693 --wx 1 --wy 1 --auto-config",
    "bound --r1 0.35 --r2 0.69 --t 1e-30 --format csv",
    "bound --r1 0.3 --r2 0.5 --phi nan --r 99",
    "bound --modes 1 --r 0.3 --r1 nan --t 7",
    "bound --r1 0.3 --r2 0.5 --auto-config --t 0.9 --phi1 nan",
    "bound --r1 0.35 --r2 0.69 --phi2 1.3 --t 0.4 --wy 2",
    "bound --modes 1 --r 0.69 --phi 0.3 --wy 3",
    "bound --r1 0.35 --r2 0.69 --auto-config --wy 2",
    "bound --modes 1 --db 3 --phi 0.5236 --wx 1 --wy 1",
    # region: closed form (two modes and one), numeric, and refused flags
    "region --r1 0.35 --r2 0.69",
    "region --r1 0.35 --r2 0.69 --vx-points 400",
    "region --r1 0.35 --r2 0.69 --closed-form",
    "region --modes 1 --r 0.69 --phi 0.3",
    "region --r1 0.35 --r2 0.69 --numeric",
    "region --r1 0.35 --r2 0.69 --numeric --t-points 25 --w-points 25",
    "region --r1 19 --r2 20 --numeric",
    "region --modes 1 --r 0.3 --r1 nan",
    "region --modes 1 --r 0.3 --numeric",
    "region --r1 0.35 --r2 0.69 --t-points 3",
    "region --r1 0.35 --r2 0.69 --numeric --vx-points 5",
    # simulate: CI's seeded runs, its exit-2 runs, tools/bench.py and README
    "simulate --scheme balanced --r 0.693 --wx 1 --wy 1 --shots 2000000 --seed 42 --theta 0.3,-0.1",
    "simulate --scheme balanced --r 20 --wx 1 --wy 1 --shots 2000000 --seed 42 --theta 0.3,-0.1",
    "simulate --scheme example1 --r2 20 --t 0.3 --phi2 0.5 --shots 2000000 --seed 42",
    "simulate --scheme example1 --r2 20 --t 1e-12 --phi2 0.5 --shots 2000000 --seed 42",
    "simulate --scheme example1 --r2 20 --t 0.999999999999 --phi2 0.5 --shots 2000000 --seed 42",
    "simulate --scheme balanced --r 20 --t 1e-12 --shots 100 --seed 1",
    "simulate --scheme balanced --r 0.693 --wx 1 --wy 1 --shots 1000000000000 --seed 42",
    "simulate --scheme balanced --r 0.693 --wx 1 --wy 1 --shots 100000000000000000000 --seed 42",
    "simulate --scheme balanced --r 0.5 --r2 3",
    "simulate --scheme example1 --r2 0.5 --r 3",
    "simulate --scheme balanced --r 0.5 --t 0.3 --wx 5",
    "simulate --scheme balanced --r 0.693 --shots 1000000 --seed 42",
    "simulate --scheme balanced --r 0.693 --wx 1 --wy 1 --shots 1000000 --seed 42 --theta 0.3,-0.1",
    # verify: names, pass flags and exit codes only
    "verify --quick",
    "verify",
    "verify --only quartic",
    "verify --quick --only sql --shots 5",
    "verify --quick --only quartic --seed -1",
)


def run(argv: str) -> dict:
    """One corpus entry: ``argv`` run through qbound.cli.main in this process."""
    from qbound.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(shlex.split(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    entry = {"argv": argv, "exit": code}
    if argv.startswith("verify"):
        lines = out.getvalue().splitlines()[:-1]  # the last line is the summary
        entry["checks"] = [[check["check"], check["passed"]] for check in map(json.loads, lines)]
    else:
        entry["stdout"] = out.getvalue().splitlines(keepends=True)
        entry["stderr"] = err.getvalue().splitlines(keepends=True)
    return entry


def _first_difference(recorded: dict, current: dict) -> str:
    """The first field of two entries that differs: the exit code, or a check, stdout or stderr line."""
    for key in ("exit", "checks", "stdout", "stderr"):
        old, new = recorded.get(key), current.get(key)
        if old != new and isinstance(old, list) and isinstance(new, list):
            n = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]), min(len(old), len(new)))
            key, old, new = f"{key} line {n + 1}", old[n] if n < len(old) else None, new[n] if n < len(new) else None
        if old != new:
            return f"  {key}, recorded: {old!r}\n  {key}, current:  {new!r}"
    return "  no field differs"


def _differences() -> dict[str, str]:
    """Each argv whose entry in tests/golden.json differs from a run now, or is missing from either side,
    with its first differing field."""
    recorded = {entry["argv"]: entry for entry in json.loads(CORPUS.read_text())}
    differ = {}
    for argv in ARGV:
        entry, current = recorded.pop(argv, None), run(argv)
        if entry != current:
            differ[argv] = "  not in tests/golden.json" if entry is None else _first_difference(entry, current)
    return {**differ, **dict.fromkeys(recorded, "  in tests/golden.json, not in ARGV")}


def mismatches() -> list[str]:
    """The argv whose entry in tests/golden.json differs from a run now, or is missing from either side."""
    return list(_differences())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite tests/golden.json")
    args = parser.parse_args(argv)
    if args.update:
        CORPUS.write_text(json.dumps([run(argv) for argv in ARGV], indent=1) + "\n")
        return 0
    differ = _differences()
    for argv, field in differ.items():
        print(f"differs from tests/golden.json: {argv}\n{field}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
