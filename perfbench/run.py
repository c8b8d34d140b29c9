"""Run one benchmark workload; the last line of stdout is the result as JSON.

    python3 perfbench/run.py --workload point-bounds --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics over as many whole blocks of
requests as take about ``--seconds`` at the workload's nominal pace, with
every time scaled to the host's nominal speed (see ``hostspeed.py``).
``--trace 1`` takes half as many blocks and runs each request untraced and
then traced; the per-layer metrics come from the traced copies only.  Block
``b`` of a seed is always the same; the program under test is the ``src/``
tree next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path

# The load model has one client thread plus the sweep pool that regions owns.
# BLAS helper threads would compete with the pool for the cores and, measured
# on a 2-core machine, add run-to-run noise without speeding up the 4x4
# batched solves, so main() pins them to one before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = sha256()
    for path in sorted((SRC / "qbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _provenance(workload: str, seed: int, inputs_sha256: str) -> dict:
    import numpy as np
    import scipy

    from qbound import regions

    blas = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    try:
        blas["library"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas["library"] = None
    return {
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "sweep_threads": regions._n_threads(), "blas": blas,
        "workload": workload, "seed": seed, "inputs_sha256": inputs_sha256,
    }


def inputs_sha256(plan, extra=()) -> str:
    return sha256(json.dumps([plan, list(extra)], sort_keys=True).encode()).hexdigest()


def _import_seconds() -> tuple[float, float]:
    """``import qbound`` in a fresh interpreter: its wall time and the scale
    factor of the interpreter calibration measured right after it in that same
    process, which may run on another core, at another speed, than this one."""
    code = (f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; "
            "start = time.perf_counter(); import qbound; "
            "seconds = time.perf_counter() - start; "
            "from perfbench.hostspeed import HostSpeed; speed = HostSpeed(); "
            "[speed.sample() for _ in range(3)]; "
            "print(seconds, speed.nominal_s * len(speed.values) / sum(speed.values))")
    proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                          capture_output=True, text=True)
    seconds, scale = proc.stdout.split()
    return float(seconds), float(scale)


class Runner:
    """Sends one request, times it, and checks the answer outside the timing."""

    def __init__(self, workload, out_path: str) -> None:
        self.workload = workload
        self.out_path = out_path
        self._reported: set[str] = set()

    def _error(self, where: str, exc: Exception) -> str:
        cause = f"error_{where}_{type(exc).__name__}"
        if cause not in self._reported:
            self._reported.add(cause)
            traceback.print_exc(file=sys.stderr)
        return cause

    def run(self, inp: dict, tracer=None, op_id: int = 0) -> tuple[float, str | None, int]:
        """(seconds, failure cause or None, bytes the request wrote)."""
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(inp, self.out_path)
                seconds = time.perf_counter() - start
            else:
                with tracer.op(op_id) as root:
                    out = self.workload.run(inp, self.out_path)
                seconds = root.duration
        except Exception as exc:  # the loop keeps going; the op counts as failed
            return time.perf_counter() - start, self._error("run", exc), 0
        try:
            cause = self.workload.check(inp, out, self.out_path)
        except Exception as exc:
            cause = self._error("check", exc)
        size = os.path.getsize(self.out_path) if os.path.exists(self.out_path) else 0
        return seconds, cause, size


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def plan_blocks(args, workload) -> int:
    """Blocks a run generates: about --seconds of requests at the nominal
    block time, plus one warm-up block; a traced run takes half as many and
    no warm-up.  A fixed count, not a deadline, so every run of a workload
    makes the same requests and its percentiles fall on the same ranks.  Two
    timed blocks of at least nine requests give the tail its 11 samples."""
    if args.trace:
        return max(1, round(0.5 * args.seconds / workload.nominal_block_s))
    return max(2, round(args.seconds / workload.nominal_block_s)) + 1


def measure(runner: Runner, plan, speed):
    """The plan's last block warms the process up untimed (only its failures
    count); the other blocks are timed, each request between two calibration
    samples.  Returns the tally of calibrated times and that of raw times."""
    from perfbench.stats import Tally

    tally, raw = Tally(), Tally()
    for inp in plan[-1]:
        speed.sample()
        dt, cause, _ = runner.run(inp)
        if cause is not None:
            tally.record(dt, cause, 0.0)
            raw.record(dt, cause, 0.0)
    timed = []
    for block in plan[:-1]:
        for inp in block:
            before = speed.sample()
            dt, cause, _ = runner.run(inp)
            timed.append((before, dt, cause, runner.workload.work(inp)))
    speed.sample()
    for before, dt, cause, work in timed:
        tally.record(dt * speed.scale(before), cause, work)
        raw.record(dt, cause, work)
    return tally, raw


def setup_seconds(gen_s, speed):
    """Calibrated and raw fresh-import times, and the calibrated
    input-generation time."""
    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    first = speed.sample()
    return ([dt * scale for dt, scale in imports], [dt for dt, _ in imports],
            gen_s * speed.scale(first, first))


def end_to_end(args, workload, runner, plan, gen_s):
    from perfbench.hostspeed import HostSpeed
    from perfbench.stats import latency_summary

    speed = HostSpeed(workload.calibration)
    setup, setup_raw, gen_s = setup_seconds(gen_s, speed)
    setup_s = statistics.median(setup) + gen_s
    tally, raw = measure(runner, plan, speed)
    blocks = len(plan) - 1
    lat = latency_summary(tally.latencies_ms)
    lat_raw = latency_summary(raw.latencies_ms)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = lat["n"]
    print(f"host calibration ({workload.calibration}): {len(speed.values)} samples, median "
          f"{1e3 * speed.median_s:.3f} ms (nominal {1e3 * speed.nominal_s:.3f} ms); "
          f"times below are scaled to the nominal speed, raw wall times in brackets")
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} fresh imports "
          f"{[round(s, 4) for s in setup]} [{[round(s, 4) for s in setup_raw]}] "
          f"+ input generation {gen_s:.4f} s)")
    print(f"ops {tally.attempted} in {blocks} blocks; failed {tally.failed} "
          f"fail_frac {tally.fail_frac:.4g} causes {dict(tally.causes)}")
    if n:
        print(f"latency_p50_ms {lat['p50_ms']:.3f} ms [{lat_raw['p50_ms']:.3f}] (n={n})")
    if lat["tail_ms"] is not None:
        print(f"latency_tail_ms {lat['tail_ms']:.3f} ms [{lat_raw['tail_ms']:.3f}] "
              f"(p{lat['tail_pct']:.1f}, n={n}, {lat['tail_beyond']} beyond)")
    print(f"{workload.work_name} {tally.work_per_s:.6g} 1/s [{raw.work_per_s:.6g}] "
          f"({tally.work:.6g} units in {tally.busy_s:.3f} s of requests)")
    print(f"peak_rss_mb {peak_mb:.2f} MB")
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (lat["p50_ms"] or 0.0, "ms"),
        "latency_tail_ms": (lat["tail_ms"] or 0.0, "ms"),
        "work_per_s": (tally.work_per_s, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    correct = tally.failed == 0 and lat["tail_ms"] is not None
    return correct, tally.attempted, tally.failed, metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


@contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def traced(args, workload, runner, plan, census_inputs):
    from perfbench import trace

    ops = [inp for block in plan for inp in block]
    tracer = trace.Tracer()
    plain_s, traced_s, plain_causes, causes, bytes_out = [], [], Counter(), Counter(), 0
    for i, inp in enumerate(ops):
        dt, cause, _ = runner.run(inp)
        plain_s.append(dt)
        plain_causes.update([cause] if cause else [])
        with trace.installed(tracer):
            dt, cause, size = runner.run(inp, tracer, i)
        traced_s.append(dt)
        causes.update([cause] if cause else [])
        bytes_out += size

    # Single-threaded baseline of every op that entered a sweep.
    swept = sorted({s.op for s in tracer.spans if s.name in trace.SWEEPS})
    serial = trace.Tracer()
    with _env("QBOUND_THREADS", "1"), trace.installed(serial):
        for i in swept:
            runner.run(ops[i], serial, i)

    # Requests over the rest of the r <= 20 contract: counted, not timed.
    census = trace.Tracer()
    census_causes = Counter()
    with trace.installed(census):
        for i, inp in enumerate(census_inputs):
            _, cause, _ = runner.run(inp, census, i)
            census_causes.update([cause] if cause else [])
    n_census = len(census_inputs)

    metrics, self_sum_err = layer_metrics(tracer, serial, census)
    metrics["holevo.below_reference"] = (causes["below_reference"] + census_causes["below_reference"], "count")
    metrics["holevo.off_reference"] = (causes["off_reference"] + census_causes["off_reference"], "count")
    metrics["cli.bytes_out"] = (bytes_out, "B")
    metrics["trace.overhead_frac"] = ((sum(traced_s) - sum(plain_s)) / sum(plain_s), "1")
    metrics["census.fail_frac"] = (sum(census_causes.values()) / n_census if n_census else 0.0, "1")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as handle:
        for label, t in (("main", tracer), ("serial", serial), ("census", census)):
            for span in t.spans:
                handle.write(json.dumps({"pass": label, **span.to_dict()}) + "\n")
    print(f"traced {len(ops)} ops ({len(swept)} with sweeps re-run single-threaded); "
          f"failures {dict(causes)}; census {n_census} requests, failures {dict(census_causes)}")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    correct = not causes and not plain_causes and self_sum_err < 1e-9
    return correct, len(ops), sum(causes.values()), metrics


def layer_metrics(tracer, serial, census):
    """Per-layer metrics of the traced pass, plus the sweep speed-up and the
    census's build_probe rejections."""
    from perfbench import trace
    from perfbench.workloads import VERIFY_CHECKS

    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    op_time = {s.op: s.duration for s in roots}
    total = sum(op_time.values())
    attributed = trace.attribute(spans)
    layer_time = Counter()
    self_sum_err = 0.0
    for op, layers in attributed.items():
        layer_time.update(layers)
        self_sum_err = max(self_sum_err, abs(sum(layers.values()) - op_time[op]) / op_time[op])

    def named(name, source=spans):
        return [s for s in source if s.name == name]

    def outer(layer):
        return [s for s in spans if s.layer == layer and by_id[s.parent].layer != layer]

    def busy(items):
        return sum(s.duration for s in items)

    def p50(items, scale):
        return statistics.median(s.duration for s in items) * scale if items else 0.0

    solve = named("holevo.solve")
    batch = named("holevo.batch_bound")
    sweeps = [s for s in spans if s.name in trace.SWEEPS]
    sweep_ids = {s.id for s in sweeps}
    sweep_rows = sum(s.extra.get("rows", 0) for s in batch if s.parent in sweep_ids)
    points = sum(s.extra.get("points", 0) for s in sweeps)
    serial_busy = busy(s for s in serial.spans if s.name in trace.SWEEPS)
    probes = named("gaussian.build_probe")
    rejects = sum(s.error for s in probes + named("gaussian.build_probe", census.spans))
    rows = sum(s.extra.get("rows", 0) for s in batch)
    m = {
        "holevo.solve.calls": (len(solve), "count"),
        "holevo.solve.ms_p50": (p50(solve, 1e3), "ms"),
        "holevo.solve.nm_iterations": (sum(s.extra.get("iterations", 0) for s in solve), "count"),
        "holevo.batch_bound.calls": (len(batch), "count"),
        "holevo.batch_bound.rows": (rows, "count"),
        "holevo.batch_bound.busy_s": (busy(batch), "s"),
        "holevo.batch_bound.rows_per_s": (rows / busy(batch) if batch else 0.0, "1/s"),
        "holevo.batch_bound.inf_rows": (sum(s.extra.get("inf_rows", 0) for s in batch), "count"),
        "regions.sweep.calls": (len(sweeps), "count"),
        "regions.sweep.busy_s": (busy(sweeps), "s"),
        "regions.sweep.self_s": (layer_time["regions"], "s"),
        "regions.points_out": (points, "count"),
        "regions.rows_per_point": (sweep_rows / points if points else 0.0, "1"),
        "regions.parallel_speedup": (serial_busy / busy(sweeps) if sweeps else 0.0, "1"),
        "gaussian.build_probe.calls": (len(probes), "count"),
        "gaussian.build_probe.us_p50": (p50(probes, 1e6), "us"),
        "gaussian.build_probe.rejects": (rejects, "count"),
        "closed_forms.calls": (sum(s.layer == "closed_forms" for s in spans), "count"),
        "closed_forms.busy_s": (busy(outer("closed_forms")), "s"),
        "closed_forms.gamma_quartic_root.us_p50": (p50(named("closed_forms.gamma_quartic_root"), 1e6), "us"),
        "simulate.run_scheme.calls": (len(named("simulate.run_scheme")), "count"),
        "simulate.run_scheme.busy_s": (busy(named("simulate.run_scheme")), "s"),
        "simulate.build_scheme.us_p50": (p50(named("simulate.build_scheme"), 1e6), "us"),
    }
    for check in VERIFY_CHECKS:
        name = "verify.check_" + check.replace("-", "_")
        m[f"verify.check_s.{check}"] = (busy(named(name)), "s")
    m["verify.self_s"] = (layer_time["verify"], "s")
    m["cli.main.calls"] = (len(named("cli.main")), "count")
    m["cli.self_ms"] = (layer_time["cli"] * 1e3, "ms")
    for layer in trace.LAYERS + (trace.HARNESS,):
        m[f"{layer}.self_share"] = (layer_time[layer] / total if total else 0.0, "1")
    m["trace.self_sum_err"] = (self_sum_err, "1")
    return m, self_sum_err


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qbound" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qbound sources under {SRC}\n")
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qbound

    if Path(qbound.__file__).resolve().parent != SRC / "qbound":
        sys.stderr.write(f"error: imported qbound from {qbound.__file__}, not {SRC}\n")
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    plan = workload.plan(args.seed, plan_blocks(args, workload))
    gen_s = time.perf_counter() - start
    census = workload.census(args.seed) if workload.census else []
    print("provenance " + json.dumps(_provenance(workload.name, args.seed, inputs_sha256(plan, census))))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        runner = Runner(workload, os.path.join(tmp, "out"))
        if args.trace:
            correct, attempted, failed, metrics = traced(args, workload, runner, plan, census)
        else:
            correct, attempted, failed, metrics = end_to_end(args, workload, runner, plan, gen_s)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
