"""Precision limits for joint estimation of conjugate displacements with Gaussian probes.

Importing the package imports none of its modules: each public name below is
imported from its module on first use (PEP 562), so ``import qbound`` and
the float bound path load no NumPy.  Submodules are reachable as attributes
in the same way.
"""

import importlib

_EXPORTS = {
    "gaussian": ("ChannelParams", "GaussianState", "ProbeConfig", "build_probe", "squeezing_db_to_r"),
    "holevo": ("BoundResult", "DualCoefficients", "SolverConvergenceError", "Weights", "batch_bound", "solve"),
    "closed_forms": (
        "EnvelopePoint", "Example2Params", "OptimalConfig", "example1_variances", "example2_parametric",
        "gamma_quartic_root", "optimal_config", "projected_variances", "single_mode_line", "single_mode_tradeoff",
        "two_mode_envelope",
    ),
    "regions": ("RegionSample", "closed_form_boundary", "envelope", "single_mode_boundary"),
    "simulate": (
        "MeasurementScheme", "SimulationReport", "build_scheme", "extract_measurement", "run_scheme",
        "scheme_from_duals",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "verify"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF))
