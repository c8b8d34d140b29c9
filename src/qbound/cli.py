"""Command-line front end: bound, region, simulate, and verify commands.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 invalid configuration, 3 solver non-convergence, 4 statistical acceptance
failure.  Numbers are serialized with shortest round-trip decimals and file
output is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import closed_forms, regions, verify
from .gaussian import ChannelParams, ProbeConfig, build_probe, squeezing_db_to_r
from .holevo import SolverConvergenceError, Weights, solve
from .simulate import build_scheme, run_scheme

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_STAT_FAILED = 4

REGION_CSV_FIELDS = ("v_x", "v_y", "segment", "source", "t", "phi1", "w_ratio")


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qbound-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
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


def _resolve_r(args, r_attr: str, db_attr: str, default: float | None = None) -> float:
    r = getattr(args, r_attr, None)
    db = getattr(args, db_attr, None)
    if r is not None and db is not None:
        raise ConfigError(f"--{r_attr.replace('_', '-')} and --{db_attr.replace('_', '-')} "
                          "cannot both be given")
    if db is not None:
        return squeezing_db_to_r(db)
    if r is not None:
        return float(r)
    if default is None:
        raise ConfigError(f"one of --{r_attr.replace('_', '-')} or "
                          f"--{db_attr.replace('_', '-')} is required")
    return default


def _config_tokens(path: str, args: argparse.Namespace) -> list[str]:
    """A JSON config file as ``--key=value`` tokens for the subcommand's parser.

    Each key names an option of the subcommand.  A flag set to true becomes
    ``--flag`` and one set to false nothing; every other value is parsed as
    if typed on the command line, with the same type and choice checks.
    """
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    tokens = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):  # also keeps argparse from expanding an abbreviation
            raise ConfigError(f"unknown config key {key!r}")
        option = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool) and isinstance(value, bool):
            tokens += [option] if value else []
        else:
            tokens.append(f"{option}={value}")
    return tokens


def _weights(args) -> Weights:
    w_x = args.wx if args.wx is not None else 1.0
    w_y = args.wy if args.wy is not None else 1.0
    try:
        return Weights(float(w_x), float(w_y))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    weights = _weights(args)
    modes = args.modes if args.modes is not None else 2

    if modes == 1:
        r = _resolve_r(args, "r", "db")
        phi = args.phi if args.phi is not None else 0.0
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
                raise ConfigError("degenerate weights have no two-mode auto configuration")
            probe = ProbeConfig(r1=r1, r2=r2, phi1=opt.phi1, phi2=opt.phi2, t=opt.probe_t)
            crosscheck = {
                "name": "optimal-config-weighted-sum",
                "value": weights.w_x * opt.v_x + weights.w_y * opt.v_y,
            }
        else:
            phi1 = args.phi1 if args.phi1 is not None else 0.0
            phi2 = args.phi2 if args.phi2 is not None else math.pi / 2.0
            t = args.t if args.t is not None else 0.5
            try:
                probe = ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=t)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            crosscheck = None
            if r1 == r2 and t == 0.5 and phi1 == 0.0 and abs(phi2 - math.pi / 2.0) < 1e-12:
                if weights.w_x == 0.0 or weights.w_y == 0.0:
                    crosscheck = {
                        "name": "degenerate-weight-special-case",
                        "value": max(weights.w_x, weights.w_y) / math.cosh(2.0 * r1),
                    }
                elif weights.w_x == weights.w_y:
                    crosscheck = {
                        "name": "balanced-point",
                        "value": 4.0 * weights.w_x * math.exp(-2.0 * r1),
                    }

    result = solve(build_probe(probe).cov, weights)
    if not result.converged:
        sys.stderr.write("solver did not converge\n")
        return EXIT_NO_CONVERGENCE
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


def _sample_to_row(sample: regions.RegionSample) -> dict:
    return {
        "v_x": sample.v_x,
        "v_y": sample.v_y,
        "segment": sample.segment,
        "source": sample.source,
        "t": sample.t,
        "phi1": sample.phi1,
        "w_ratio": sample.w_ratio,
    }


def cmd_region(args) -> int:
    modes = args.modes if args.modes is not None else 2
    for dest in ("vx_points", "t_points", "phi_points", "w_points"):
        count = getattr(args, dest)
        if count < 1:
            raise ConfigError(f"--{dest.replace('_', '-')} must be at least 1, got {count}")
    n_vx = args.vx_points

    rows: list[dict] = []
    if modes == 1:
        r = _resolve_r(args, "r", "db")
        phi = args.phi if args.phi is not None else 0.0
        v_a, _ = closed_forms.projected_variances(r, phi)
        v_x_values = np.geomspace(v_a * 1.01, v_a * 1.01 + 20.0, n_vx)
        rows.extend(_sample_to_row(s) for s in regions.single_mode_boundary(r, phi, v_x_values))
    else:
        r1 = _resolve_r(args, "r1", "db1")
        r2 = _resolve_r(args, "r2", "db2")
        if r1 > r2:
            r1, r2 = r2, r1
        want_numeric = bool(args.numeric)
        want_closed = bool(args.closed_form) or not want_numeric
        if want_closed:
            floor = math.exp(-2.0 * r2)
            v_x_values = np.geomspace(floor * 1.01, 10.0 * math.exp(2.0 * r2), n_vx)
            rows.extend(
                _sample_to_row(s) for s in regions.closed_form_boundary(r1, r2, v_x_values)
            )
        if want_numeric:
            t_grid = np.linspace(0.02, 0.98, args.t_points)
            phi_grid = np.linspace(0.0, math.pi / 2.0, args.phi_points)
            w_grid = np.geomspace(1e-2, 1e2, args.w_points)
            rows.extend(
                _sample_to_row(s)
                for s in regions.envelope(r1, r2, t_grid, phi_grid, w_grid)
            )
    rows.sort(key=lambda row: row["v_x"])
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
        raise ConfigError(f"--theta expects 'x,y', got {text!r}") from None
    return ChannelParams(theta_x, theta_y)


def cmd_simulate(args) -> int:
    shots = args.shots if args.shots is not None else 1_000_000
    seed = args.seed if args.seed is not None else 0
    theta = _parse_theta(args.theta if args.theta is not None else "0.0,0.0")

    if args.scheme == "balanced":
        r = _resolve_r(args, "r", "db")
        if args.t is not None:
            t_star = args.t
        else:
            weights = _weights(args)
            t_star = math.sqrt(weights.w_y) / (math.sqrt(weights.w_x) + math.sqrt(weights.w_y))
        try:
            scheme = build_scheme("balanced", r=r, t_star=t_star)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif args.scheme == "example1":
        r2 = _resolve_r(args, "r2", "db2")
        t = args.t if args.t is not None else 0.5
        phi2 = args.phi2 if args.phi2 is not None else 0.0
        try:
            scheme = build_scheme("example1", r2=r2, t=t, phi2=phi2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        raise ConfigError(f"unknown scheme {args.scheme!r}")

    report = run_scheme(scheme, scheme.probe, theta, shots, seed)
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
    results = verify.run_verification(
        only=args.only,
        quick=bool(args.quick),
        perturb_envelope=args.perturb_envelope or 0.0,
        shots=args.shots if args.shots is not None else 1_000_000,
        seed=args.seed if args.seed is not None else 20240816,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbound",
        description="Precision bounds, accessible regions, and measurement simulations "
                    "for conjugate displacement sensing with squeezed probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute the weighted-variance bound for a probe")
    p.add_argument("--modes", type=int, choices=(1, 2))
    p.add_argument("--r", type=float, help="single-mode squeezing parameter")
    p.add_argument("--db", type=float, help="single-mode squeezing in dB")
    p.add_argument("--phi", type=float, help="single-mode squeezing angle (rad)")
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--db1", type=float)
    p.add_argument("--db2", type=float)
    p.add_argument("--phi1", type=float)
    p.add_argument("--phi2", type=float)
    p.add_argument("--t", type=float, help="beam-splitter transmissivity")
    p.add_argument("--wx", type=float)
    p.add_argument("--wy", type=float)
    p.add_argument("--auto-config", action="store_true",
                   help="use the optimal rotations and mixing ratio for the weights")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("region", help="emit accessible-region boundary samples")
    p.add_argument("--modes", type=int, choices=(1, 2))
    p.add_argument("--r", type=float)
    p.add_argument("--db", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--db1", type=float)
    p.add_argument("--db2", type=float)
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
    p.add_argument("--r", type=float)
    p.add_argument("--db", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--db2", type=float)
    p.add_argument("--phi2", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--wx", type=float)
    p.add_argument("--wy", type=float)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--theta", help="displacement as 'x,y'")
    p.add_argument("--target-vx", type=float, help="override the acceptance target for v_x")
    p.add_argument("--target-vy", type=float, help="override the acceptance target for v_y")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--only", help="run only checks whose name contains this substring")
    p.add_argument("--quick", action="store_true", help="reduced grids and shot counts")
    p.add_argument("--perturb-envelope", type=float,
                   help="fault-injection hook: scale the reference envelope")
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
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
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_CONFIG
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_CONFIG
    except SolverConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
