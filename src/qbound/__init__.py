"""Precision limits for joint estimation of conjugate displacements with Gaussian probes."""

from .gaussian import (
    ChannelParams,
    GaussianState,
    ProbeConfig,
    beam_splitter,
    build_probe,
    probe_covariances,
    probe_factors,
    rotation,
    squeezing_db_to_r,
    symplectic_form,
)
from .holevo import (
    BoundResult,
    DualCoefficients,
    SolverConvergenceError,
    Weights,
    batch_bound,
    solve,
)
from .closed_forms import (
    EnvelopePoint,
    Example2Params,
    OptimalConfig,
    ScalarCorollaries,
    example1_relations,
    example1_variances,
    example2_parametric,
    gamma_quartic_root,
    optimal_config,
    projected_variances,
    scalar_corollaries,
    single_mode_line,
    single_mode_tradeoff,
    two_mode_envelope,
)
from .regions import (
    RegionSample,
    SqlFeasibility,
    boundary_for_config,
    closed_form_boundary,
    envelope,
    single_mode_boundary,
    sql_feasible,
)
from .simulate import (
    BoundComparison,
    MeasurementScheme,
    SimulationReport,
    build_scheme,
    compare_to_bound,
    extract_measurement,
    run_scheme,
    scheme_from_duals,
)

__version__ = "0.1.0"
