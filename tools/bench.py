"""Wall time of qbound's CLI commands and imports in fresh processes, written to BENCH_<n>.json.

Each key is a command run in a new interpreter, with the tree's ``src`` on
PYTHONPATH; its record holds the median, the quartiles and the raw seconds
of 16 runs (REPS).  A bare ``python -c pass`` and ``import numpy`` run next
to the qbound commands, so that host drift shows.  The file also records
provenance (git SHA and dirty flag, a hash of ``src/qbound/*.py``, Python
and NumPy versions, nproc) and size (lines of ``src/qbound/*.py`` and the
tier-1 test count).

    python tools/bench.py --out BENCH_new.json
    python tools/bench.py --out BENCH_new.json --baseline ../old --baseline-out BENCH_old.json
    python tools/bench.py --compare BENCH_old.json BENCH_new.json
    python tools/bench.py --out smoke.json --smoke

With ``--baseline`` every command runs on both trees in turn, the first of
the two alternating by repetition, so both files see the same host drift.
``--compare`` prints new / old for each key and marks with ``*`` a change
larger than the interquartile spread of both files.  ``--smoke`` runs one
repetition of four commands and skips the tier-1 count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
REPS = 16  # fresh processes per command; --smoke runs one

# key: interpreter arguments; each runs with the tree's src on PYTHONPATH.
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import qbound": ["-c", "import qbound"],
    "import qbound.cli": ["-c", "import qbound.cli"],
    "import qbound + first batch_bound": [
        "-c", "import qbound; qbound.batch_bound(qbound.ProbeConfig(0.35, 0.69, 0.0, 1.5708, 0.4), 1.0, 2.0)"],
    "bound --modes 1": ["-m", "qbound.cli", "bound", "--modes", "1", "--r", "0.69", "--phi", "0.3", "--wy", "3"],
    "bound": ["-m", "qbound.cli", "bound", "--r1", "0.35", "--r2", "0.69", "--phi2", "1.3", "--t", "0.4", "--wy", "2"],
    "bound --auto-config": ["-m", "qbound.cli", "bound", "--r1", "0.35", "--r2", "0.69", "--auto-config", "--wy", "2"],
    "region --numeric": ["-m", "qbound.cli", "region", "--r1", "0.35", "--r2", "0.69", "--numeric"],
    "simulate --shots 1e6": ["-m", "qbound.cli", "simulate", "--scheme", "balanced", "--r", "0.693",
                             "--shots", "1000000", "--seed", "42"],
    "verify --quick": ["-m", "qbound.cli", "verify", "--quick"],
    "verify": ["-m", "qbound.cli", "verify"],
}
SMOKE = ("python -c pass", "import qbound", "bound", "bound --modes 1")


def _git(tree: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _sources(tree: Path) -> list[Path]:
    return sorted((tree / "src" / "qbound").glob("*.py"))


def _tier1_count(tree: Path) -> int:
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=_env(tree), capture_output=True, text=True, check=True)
    return sum("::" in line for line in proc.stdout.splitlines())


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _seconds(tree: Path, args: list[str]) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=_env(tree),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode} in {tree}:\n{proc.stderr}")
    return seconds


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _provenance(tree: Path, reps: int, smoke: bool) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in _sources(tree):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git(tree, "rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "reps": reps, "smoke": smoke,
    }


def measure(trees: list[Path], smoke: bool) -> list[dict]:
    """One BENCH record per tree; each repetition runs every command on every tree in turn."""
    keys, reps = (SMOKE, 1) if smoke else (tuple(COMMANDS), REPS)
    times = [{key: [] for key in keys} for _ in trees]
    for rep in range(reps):
        pairs = list(zip(trees, times))[::(-1) ** rep]  # who goes first alternates too
        for key in keys:
            for tree, record in pairs:
                record[key].append(_seconds(tree, COMMANDS[key]))
    results = []
    for tree, record in zip(trees, times):
        size = {"src_lines": sum(len(p.read_bytes().splitlines()) for p in _sources(tree)),
                "tier1_tests": None if smoke else _tier1_count(tree)}
        results.append({"schema": SCHEMA, "provenance": _provenance(tree, reps, smoke), "size": size,
                        "wall_s": {key: _summary(values) for key, values in record.items()}})
    return results


def compare(old: dict, new: dict) -> dict:
    """new / old per key, and whether the change exceeds both files' interquartile spread."""
    rows = {}
    for key, value in old["size"].items():
        other = new["size"].get(key)
        if value is not None and other is not None:
            rows[f"size.{key}"] = (other / value, other != value)
    for key, a in old["wall_s"].items():
        b = new["wall_s"].get(key)
        if b is not None:
            spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
            rows[f"wall_s.{key}"] = (b["median"] / a["median"], abs(b["median"] - a["median"]) > spread)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record of the tree this script sits in here")
    parser.add_argument("--baseline", type=Path, help="another repository root, measured alternately")
    parser.add_argument("--baseline-out", help="write the baseline's record here")
    parser.add_argument("--smoke", action="store_true", help="one repetition of a few commands, no tier-1 count")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print NEW / OLD per key")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        for key, (ratio, marked) in compare(old, new).items():
            print(f"{'*' if marked else ' '} {ratio:8.3f}  {key}")
        return 0
    if not args.out or (args.baseline is None) != (args.baseline_out is None):
        parser.error("give --out, and --baseline with --baseline-out, or --compare")
    trees = [ROOT] + ([args.baseline.resolve()] if args.baseline else [])
    outs = [args.out] + ([args.baseline_out] if args.baseline else [])
    for record, out in zip(measure(trees, args.smoke), outs):
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
