"""Command-line front end: bound, region, simulate, and verify commands.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 invalid configuration, 3 solver non-convergence, 4 statistical acceptance
failure.  Numbers are serialized with shortest round-trip decimals and file
output is written atomically (temp file + rename).  Each command imports the
modules it needs when it runs: region, simulate and verify import NumPy,
bound does not.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys

from . import closed_forms
from .gaussian import ChannelParams, ProbeConfig, _check_r, squeezing_db_to_r
from .holevo import CERTIFICATE_TOL, Weights, solve

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_STAT_FAILED = 4

REGION_CSV_FIELDS = ("v_x", "v_y", "segment", "source", "t", "phi1", "w_ratio")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # NumPy's float64 included
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to a new temp file next to ``path``, then rename it over ``path``.

    The temp file is ``.qbound-<pid>-<n>``, created exclusively with mode
    0o600 (a taken name is skipped); any failure removes it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    for n in itertools.count():
        tmp = os.path.join(directory, f".qbound-{os.getpid()}-{n}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            break
        except FileExistsError:
            continue
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _rows_to_csv(rows: list[dict], fields) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fields})
    return buffer.getvalue()


def _resolve_r(args, r_attr: str, db_attr: str) -> float:
    r, db = getattr(args, r_attr), getattr(args, db_attr)
    if r is not None and db is not None:
        raise ValueError(f"--{r_attr} and --{db_attr} cannot both be given")
    if db is not None:
        try:
            return squeezing_db_to_r(db)
        except ValueError as exc:
            raise ValueError(f"--{db_attr}: {exc}") from None
    if r is None:
        raise ValueError(f"one of --{r_attr} or --{db_attr} is required")
    _check_r(r, f"--{r_attr}")
    return r


def _refuse_then_default(args, refused: dict, defaults: dict) -> None:
    """Raise ValueError naming the first given flag of ``refused`` and its reason, then set the unset ``defaults``.

    A flag counts as given on the command line or as a --config key.
    """
    for name, reason in refused.items():
        value = getattr(args, name, None)
        if value is not None and value is not False:
            raise ValueError(f"--{name.replace('_', '-')} {reason}")
    for name, default in defaults.items():
        if getattr(args, name, default) is None:
            setattr(args, name, default)


def _resolve_mode_flags(args) -> None:
    """Refuse a flag that bound or region would ignore, then apply the defaults of the angles and --t.

    Unset, --phi, --phi1, --phi2 and --t take 0, 0, pi/2 and 0.5.
    """
    if args.modes == 1:
        refused = dict.fromkeys(("r1", "r2", "db1", "db2", "phi1", "phi2", "t", "auto_config"),
                                "is a two-mode flag: --modes 1 would ignore it")
    else:
        refused = dict.fromkeys(("r", "db", "phi"), "is a one-mode flag: two modes would ignore it")
        if getattr(args, "auto_config", False):
            refused.update(dict.fromkeys(("phi1", "phi2", "t"), "cannot be given with --auto-config, which chooses it"))
    _refuse_then_default(args, refused, {"phi": 0.0, "phi1": 0.0, "phi2": math.pi / 2.0, "t": 0.5})


def _resolve_single_mode(args) -> tuple[float, float]:
    """The one-mode squeezing (--r or --db) and a finite --phi."""
    r = _resolve_r(args, "r", "db")
    if not math.isfinite(args.phi):
        raise ValueError(f"--phi must be finite, got {args.phi}")
    return r, args.phi


def _config_tokens(path: str, args: argparse.Namespace) -> list[str]:
    """A JSON config file as ``--key=value`` tokens for the subcommand's parser.

    Each key names an option of the subcommand other than ``config``.  A
    flag set to true becomes ``--flag`` and one set to false nothing; every
    other number or string is parsed as if typed on the command line, with
    the same type and choice checks.  null, arrays and objects are rejected.
    """
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    tokens = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest == "config":
            raise ValueError("config key 'config' is not allowed: a config file cannot load another")
        # command and func are set by the parser; hasattr also blocks abbreviations.
        if dest in ("command", "func") or not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        option = "--" + dest.replace("_", "-")
        if value is None or isinstance(value, (list, dict)):
            raise ValueError(f"config key {key!r} ({option}) must be a number, string or boolean, "
                             f"not {json.dumps(value)}")
        if isinstance(getattr(args, dest), bool) and isinstance(value, bool):
            tokens += [option] if value else []
        else:
            tokens.append(f"{option}={value}")
    return tokens


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    _resolve_mode_flags(args)
    weights = Weights(args.wx, args.wy)
    if args.modes == 1:
        r, phi = _resolve_single_mode(args)
        probe = ProbeConfig(r1=r, phi1=phi, n_modes=1)
        crosscheck = {
            "name": "single-mode-line",
            "value": closed_forms.single_mode_line(weights.w_x, weights.w_y, r, phi),
        }
    else:
        r1 = _resolve_r(args, "r1", "db1")
        r2 = _resolve_r(args, "r2", "db2")
        if args.auto_config:
            opt = closed_forms.optimal_config(weights.w_x, weights.w_y, r1, r2)
            if not 0.0 < opt.probe_t < 1.0:
                raise ValueError("degenerate weights have no two-mode auto configuration")
            probe = ProbeConfig(r1=r1, r2=r2, phi1=opt.phi1, phi2=opt.phi2, t=opt.probe_t)
            crosscheck = {
                "name": "optimal-config-weighted-sum",
                "value": weights.w_x * opt.v_x + weights.w_y * opt.v_y,
            }
        else:
            probe = ProbeConfig(r1=r1, r2=r2, phi1=args.phi1, phi2=args.phi2, t=args.t)
            crosscheck = None
            if (r1 == r2 and args.t == 0.5 and args.phi1 == 0.0
                    and abs(args.phi2 - math.pi / 2.0) < 1e-12):
                if weights.w_x == 0.0 or weights.w_y == 0.0:
                    crosscheck = {
                        "name": "degenerate-weight-special-case",
                        "value": max(weights.w_x, weights.w_y) / math.cosh(2.0 * r1),
                    }
                elif weights.w_x == weights.w_y:
                    crosscheck = {
                        "name": "balanced-point",
                        "value": weights.w_x * (4.0 * math.exp(-2.0 * r1)),
                    }

    result = solve(probe, weights)
    if not result.converged:
        sys.stderr.write("solver did not converge\n")
        return EXIT_NO_CONVERGENCE
    if not result.duals_certified and args.format == "json":  # the CSV row prints no duals
        sys.stderr.write(f"duals not certified: their duality gap is not within {CERTIFICATE_TOL:g} (the bound is)\n")
    record = {
        "f_hcr": result.f_hcr,
        "v_x": result.v_x,
        "v_y": result.v_y,
        "duals": {"c_x": list(result.duals.c_x), "c_y": list(result.duals.c_y)},
        "weights": {"w_x": weights.w_x, "w_y": weights.w_y},
        "probe": {
            "n_modes": probe.n_modes, "r1": probe.r1, "r2": probe.r2,
            "phi1": probe.phi1, "phi2": probe.phi2, "t": probe.t,
        },
        "converged": result.converged,
        "iterations": result.iterations,
        "closed_form_crosscheck": crosscheck,
    }
    if crosscheck is not None:
        record["closed_form_crosscheck"]["abs_diff"] = abs(crosscheck["value"] - result.f_hcr)
    if args.format == "csv":
        flat = {
            "f_hcr": record["f_hcr"], "v_x": record["v_x"], "v_y": record["v_y"],
            "w_x": weights.w_x, "w_y": weights.w_y,
            "crosscheck": crosscheck["value"] if crosscheck else None,
        }
        _emit(_rows_to_csv([flat], list(flat)), args.out)
    else:
        _emit(json.dumps(record, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    import numpy as np

    from . import regions

    for dest in ("vx_points", "t_points", "phi_points", "w_points"):
        count = getattr(args, dest)
        if count < 1:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least 1, got {count}")
    _resolve_mode_flags(args)

    samples = []
    if args.modes == 1:
        r, phi = _resolve_single_mode(args)
        v_a, _ = closed_forms.projected_variances(r, phi)
        v_x_values = np.geomspace(v_a * 1.01, v_a * 1.01 + 20.0, args.vx_points)
        samples += regions.single_mode_boundary(r, phi, v_x_values)
    else:
        r1 = _resolve_r(args, "r1", "db1")
        r2 = _resolve_r(args, "r2", "db2")
        if r1 > r2:
            r1, r2 = r2, r1
        if args.closed_form or not args.numeric:
            floor = math.exp(-2.0 * r2)
            v_x_values = np.geomspace(floor * 1.01, 10.0 * math.exp(2.0 * r2), args.vx_points)
            samples += regions.closed_form_boundary(r1, r2, v_x_values)
        if args.numeric:
            t_grid = np.linspace(0.02, 0.98, args.t_points)
            phi_grid = np.linspace(0.0, math.pi / 2.0, args.phi_points)
            w_grid = np.geomspace(1e-2, 1e2, args.w_points)
            samples += regions.envelope(r1, r2, t_grid, phi_grid, w_grid)
    samples.sort(key=lambda sample: sample.v_x)
    rows = [{field: getattr(s, field) for field in REGION_CSV_FIELDS} for s in samples]
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
    else:
        _emit(_rows_to_csv(rows, REGION_CSV_FIELDS), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_theta(text: str) -> ChannelParams:
    try:
        parts = [float(p) for p in text.split(",")]
        theta_x, theta_y = parts
    except (ValueError, TypeError):
        raise ValueError(f"--theta expects 'x,y', got {text!r}") from None
    return ChannelParams(theta_x, theta_y)


def cmd_simulate(args) -> int:
    from .simulate import build_scheme, run_scheme

    if args.scheme == "example1":
        refused = dict.fromkeys(("r", "db", "wx", "wy"), "is a balanced flag: --scheme example1 would ignore it")
        _refuse_then_default(args, refused, {"phi2": 0.0, "t": 0.5})
    else:
        refused = dict.fromkeys(("r2", "db2", "phi2"), "is an example1 flag: --scheme balanced would ignore it")
        if args.t is not None:
            refused.update(dict.fromkeys(("wx", "wy"), "cannot be given with --t, which fixes t*"))
        _refuse_then_default(args, refused, {"wx": 1.0, "wy": 1.0})
    theta = _parse_theta(args.theta)
    if args.scheme == "example1":
        scheme = build_scheme("example1", r2=_resolve_r(args, "r2", "db2"), t=args.t, phi2=args.phi2)
    elif args.t is None:
        scheme = build_scheme("balanced", r=_resolve_r(args, "r", "db"), weights=Weights(args.wx, args.wy))
    else:
        scheme = build_scheme("balanced", r=_resolve_r(args, "r", "db"), t_star=args.t)

    report = run_scheme(scheme, scheme.probe, theta, args.shots, args.seed)
    target_x = args.target_vx if args.target_vx is not None else report.predicted_v_x
    target_y = args.target_vy if args.target_vy is not None else report.predicted_v_y
    ok_x = abs(report.var_x - target_x) <= 5.0 * report.se_var_x
    ok_y = abs(report.var_y - target_y) <= 5.0 * report.se_var_y
    record = report.to_dict()
    record["target_v_x"] = target_x
    record["target_v_y"] = target_y
    record["within_5_se"] = bool(ok_x and ok_y)
    _emit(json.dumps(record, indent=2), args.out)
    return EXIT_OK if (ok_x and ok_y) else EXIT_STAT_FAILED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_verification(
        only=args.only,
        quick=args.quick,
        perturb_envelope=args.perturb_envelope,
        shots=verify.MC_SHOTS if args.shots is None else args.shots,
        seed=verify.MC_SEED if args.seed is None else args.seed,
    )
    if not results:
        sys.stderr.write(f"no checks match --only {args.only!r}\n")
        return EXIT_INVALID_CONFIG
    lines = []
    for res in results:
        lines.append(json.dumps({"check": res.name, "passed": res.passed, "detail": res.detail}))
    n_failed = sum(not r.passed for r in results)
    summary = f"{len(results) - n_failed}/{len(results)} checks passed"
    text = "\n".join(lines) + "\n" + summary + "\n"
    _emit(text, args.out)
    if n_failed:
        failed = ", ".join(r.name for r in results if not r.passed)
        sys.stderr.write(f"failed checks: {failed}\n")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    parser.add_argument("--out", help="output path (written atomically); stdout if omitted")


_FLOAT_HELP = {
    "r": "squeezing parameter (or give --db)",
    "db": "squeezing in dB (or give --r)",
    "phi": "single-mode squeezing angle (rad)",
    "t": "beam-splitter transmissivity",
    "target-vx": "override the acceptance target for v_x",
    "target-vy": "override the acceptance target for v_y",
}


def _add_floats(parser: argparse.ArgumentParser, *names: str, **defaults: float) -> None:
    """Add a float option ``--name`` per name, defaulting to ``defaults[name]`` or None.

    None means "not given": each ``--rN``/``--dbN`` pair accepts at most one,
    bound and region refuse a flag that their mode count would ignore, and
    simulate one that its scheme would ignore.
    """
    for name in names:
        parser.add_argument(f"--{name}", type=float, default=defaults.get(name),
                            help=_FLOAT_HELP.get(name))


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The qbound argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="qbound",
        description="Precision bounds, accessible regions, and measurement simulations "
                    "for conjugate displacement sensing with squeezed probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute the weighted-variance bound for a probe")
    p.add_argument("--modes", type=int, choices=(1, 2), default=2)
    _add_floats(p, "r", "db", "phi", "r1", "r2", "db1", "db2", "phi1", "phi2", "t", "wx", "wy", wx=1.0, wy=1.0)
    p.add_argument("--auto-config", action="store_true",
                   help="use the optimal rotations and mixing ratio for the weights")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("region", help="emit accessible-region boundary samples")
    p.add_argument("--modes", type=int, choices=(1, 2), default=2)
    _add_floats(p, "r", "db", "phi", "r1", "r2", "db1", "db2")
    p.add_argument("--closed-form", action="store_true", help="emit analytic envelope rows")
    p.add_argument("--numeric", action="store_true", help="emit numeric envelope rows")
    p.add_argument("--vx-points", type=int, default=200)
    p.add_argument("--t-points", type=int, default=25)
    p.add_argument("--phi-points", type=int, default=13)
    p.add_argument("--w-points", type=int, default=25)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="Monte-Carlo run of a measurement scheme")
    p.add_argument("--scheme", choices=("balanced", "example1"), required=True)
    _add_floats(p, "r", "db", "r2", "db2", "phi2")
    p.add_argument("--t", type=float, help="t* of the optimal-variance formulas; the probe's transmissivity "
                   "is 1 - t* (default: optimal for the weights, or 0.5 for example1)")
    _add_floats(p, "wx", "wy")
    p.add_argument("--shots", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", default="0.0,0.0", help="displacement as 'x,y'")
    _add_floats(p, "target-vx", "target-vy")  # None: the scheme's predicted variances
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--only", help="run only checks whose name contains this substring")
    p.add_argument("--quick", action="store_true", help="reduced grids and shot counts")
    p.add_argument("--perturb-envelope", type=float, default=0.0,
                   help="fault-injection hook: scale the reference envelope")
    p.add_argument("--shots", type=int, help="shots of each Monte-Carlo check (default: verify.MC_SHOTS)")
    p.add_argument("--seed", type=int, help="base seed of the two Monte-Carlo checks (default: verify.MC_SEED; "
                   "quartic-root uses 7, structural-properties 11)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # File values go right after the subcommand, so explicit flags override them.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args.config, args) + argv[at:])
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
