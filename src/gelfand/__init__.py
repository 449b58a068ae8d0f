"""Branch tracing for the Gelfand problem with singular weights on 2D domains."""

from .errors import (
    BlowupDetected,
    ConfigError,
    DegenerateWeight,
    FoldSingularity,
    GelfandError,
    InvalidDelta,
    InvalidDensity,
    InvalidSingularity,
    InvalidWeight,
    MeshFailure,
    NoConvergence,
    NoFoldInRange,
    OverflowGuard,
    SolverError,
    UnsupportedRegime,
)
from .geometry import (
    DomainSpec,
    GreenField,
    Mesh,
    SingularitySpec,
    WeightField,
    build_mesh,
    build_weight,
    domain_from_config,
    green_function,
    uniform_weight,
)
from .meanfield import (
    EIGHT_PI,
    MeanFieldProblem,
    MeanFieldState,
    save_state,
)
from .spectrum import (
    SpectrumReport,
    poincare_constant,
    standard_tau1,
    weighted_eigs,
)
from .branch import (
    BranchDiagram,
    BranchPoint,
    classify_kind,
    dE_dlambda,
    emit_diagram,
    find_fold,
    g_of,
    plot_csv,
    read_csv,
    solve_eta,
    trace_branch,
    write_csv,
)
from .freeenergy import (
    DensityState,
    EnergyBoundReport,
    collar_density,
    free_energy_of,
    minimize_free_energy,
    verify_energy_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupDetected", "ConfigError", "DegenerateWeight", "FoldSingularity",
    "GelfandError", "InvalidDelta", "InvalidDensity", "InvalidSingularity",
    "InvalidWeight", "MeshFailure", "NoConvergence", "NoFoldInRange",
    "OverflowGuard", "SolverError", "UnsupportedRegime",
    "DomainSpec", "GreenField", "Mesh", "SingularitySpec", "WeightField",
    "build_mesh", "build_weight", "domain_from_config", "green_function",
    "uniform_weight",
    "EIGHT_PI", "MeanFieldProblem", "MeanFieldState", "save_state",
    "SpectrumReport", "poincare_constant", "standard_tau1", "weighted_eigs",
    "BranchDiagram", "BranchPoint", "classify_kind",
    "dE_dlambda", "emit_diagram", "find_fold", "g_of", "plot_csv",
    "read_csv", "solve_eta", "trace_branch", "write_csv",
    "DensityState", "EnergyBoundReport", "collar_density", "free_energy_of",
    "minimize_free_energy", "verify_energy_bound",
    "__version__",
]
